"""Framework mechanics: the rule catalog, parse errors, and the CLI."""

import json
import textwrap

import repro.analysis as analysis
from repro.analysis import RULES
from repro.cli import main

VIOLATION = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """)


def test_catalog_is_wall_clock_and_observer_purity():
    assert [rule.name for rule in RULES] == ["wall-clock", "observer-purity"]


def test_parse_error_becomes_a_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    hits = analysis.lint_file(str(bad))
    assert [f.rule for f in hits] == ["parse-error"]


# -- CLI ------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    assert main(["lint", clean]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_on_violation_with_json_report(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert main(["lint", bad, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 1
    assert report["findings"][0]["rule"] == "wall-clock"


def test_cli_exit_two_on_missing_path(tmp_path):
    assert main(["lint", str(tmp_path / "absent.py")]) == 2


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.name in out
    assert "spec-late-event" in out
