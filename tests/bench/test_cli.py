"""Tests for the command-line interface."""

import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import _parse_fault, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "bench_all_quick.txt"
RULE = "=" * 72


def bench_sections(text):
    """``bench`` stdout as {artifact: body}, timing lines dropped."""
    text = re.sub(r"^\[\w+ regenerated in .*s wall\]\n", "", text, flags=re.M)
    chunks = re.split(rf"\n{RULE}\n(\w+)\n{RULE}\n", text)
    return dict(zip(chunks[1::2], chunks[2::2]))


# -- argument parsing ------------------------------------------------------------
def test_parse_fault_spec():
    assert _parse_fault("300:3") == (300.0, [3])
    assert _parse_fault("120.5:1,2,7") == (120.5, [1, 2, 7])


@pytest.mark.parametrize("bad", ["", "300", "abc:1", "300:", "-5:1"])
def test_parse_fault_rejects_garbage(bad):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_fault(bad)


def test_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.app == "bcp"
    assert args.scheme == "ms-8"
    assert args.duration == 900.0
    assert args.crash is None


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "nope"])


def test_parser_crash_flag_is_repeatable():
    args = build_parser().parse_args(
        ["run", "--crash", "100:3", "--crash", "200:4"])
    assert args.crash == [(100.0, [3]), (200.0, [4])]


def test_run_command_with_two_crash_bursts(capsys):
    rc = main(["run", "--app", "bcp", "--scheme", "ms-8",
               "--duration", "300", "--warmup", "50", "--period", "60",
               "--idle", "4", "--crash", "100:3", "--crash", "200:4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recoveries: 2" in out


def test_parser_bench_artifacts():
    args = build_parser().parse_args(["bench", "fig8", "--quick"])
    assert args.artifact == "fig8"
    assert args.quick


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- end-to-end commands ------------------------------------------------------------
def test_run_command_reports_metrics(capsys):
    rc = main(["run", "--app", "bcp", "--scheme", "base",
               "--duration", "400", "--warmup", "100", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "region0" in out
    assert "t/s" in out
    assert "wifi bytes" in out


def test_run_command_with_crash(capsys):
    rc = main(["run", "--app", "bcp", "--scheme", "ms-8",
               "--duration", "300", "--warmup", "50", "--period", "60",
               "--idle", "4", "--crash", "120:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recoveries: 1" in out


def test_run_command_exit_code_on_region_loss(capsys):
    rc = main(["run", "--app", "bcp", "--scheme", "base",
               "--duration", "300", "--crash", "120:3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "STOPPED" in out


@pytest.mark.parametrize("argv", [
    ["run", "--duration", "-5"],
    ["run", "--warmup", "1000", "--duration", "200"],
    ["run", "--regions", "0"],
    ["run", "--phones", "0"],
    ["run", "--period", "0"],
    ["scenario", "run", "SPEC_FILE"],
])
def test_bad_deployment_input_is_a_usage_error(argv, tmp_path, capsys):
    spec_file = tmp_path / "bad-period.json"
    spec_file.write_text('{"name": "bad-period", "duration_s": 60, '
                         '"warmup_s": 10, "checkpoint_period_s": 0}')
    rc = main([str(spec_file) if a == "SPEC_FILE" else a for a in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_command_with_departure(capsys):
    rc = main(["run", "--app", "bcp", "--scheme", "ms-8",
               "--duration", "240", "--warmup", "20", "--period", "60",
               "--idle", "4", "--depart", "100:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "departures handled: 1" in out


@pytest.mark.parametrize("artifact", ["table1", "fig8"])
def test_bench_quick_matches_golden(capsys, artifact):
    """The paper artifacts print the committed quick-run cells exactly."""
    assert main(["bench", artifact, "--quick"]) == 0
    fresh = bench_sections(capsys.readouterr().out)
    golden = bench_sections(GOLDEN.read_text(encoding="utf-8"))
    assert list(fresh) == [artifact]
    assert fresh[artifact] == golden[artifact]


def test_cli_import_loads_no_bench_module():
    """Cold start: the paper artifacts load only when a command needs
    them, never at CLI import."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = ("import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['repro', 'bench']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert proc.stdout.strip() == "[]"


def test_info_command(capsys):
    rc = main(["info"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bcp" in out and "signalguru" in out
    assert "ms-8" in out and "MobiStreamsScheme" in out
