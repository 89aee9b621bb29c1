"""Framework mechanics: registry, suppressions, baseline, CLI gate."""

import json
import textwrap

import pytest

import repro.analysis as analysis
from repro.analysis import (
    Rule,
    diff_against,
    get_rule,
    lint_source,
    load_baseline,
    register_rule,
    rule_names,
    write_baseline,
)
from repro.analysis.core import _RULES
from repro.cli import main

VIOLATION = textwrap.dedent(
    """
    import random

    def draw():
        return random.random()
    """)


# -- registry -------------------------------------------------------------

def test_unknown_rule_error_lists_known_names():
    with pytest.raises(ValueError) as err:
        get_rule("no-such-rule")
    message = str(err.value)
    assert "no-such-rule" in message
    for name in ("unseeded-rng", "observer-purity"):
        assert name in message


def test_catalog_has_all_eight_rules_across_three_families():
    names = rule_names()
    assert len(names) == 8
    families = {get_rule(n).family for n in names}
    assert families == {"determinism", "api-contract", "observer-purity"}


def test_duplicate_registration_rejected():
    class Dupe(Rule):
        name = "unseeded-rng"
        family = "determinism"
        description = "dupe"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Dupe)
    assert _RULES["unseeded-rng"] is not Dupe


def test_bad_family_rejected():
    class Wrong(Rule):
        name = "wrong-family"
        family = "vibes"
        description = "x"

    with pytest.raises(ValueError, match="vibes"):
        register_rule(Wrong)


# -- suppressions ---------------------------------------------------------

def test_disable_comment_suppresses_that_rule_on_that_line():
    src = ("import random\n"
           "x = random.random()  # repro-lint: disable=unseeded-rng\n"
           "y = random.random()\n")
    hits = lint_source(src, "repro/sim/fixture.py")
    assert [f.line for f in hits if f.rule == "unseeded-rng"] == [3]


def test_disable_all_and_multi_rule_lists():
    src = ("import random, time\n"
           "a = random.random()  # repro-lint: disable=all\n"
           "b = time.time()  # repro-lint: disable=wall-clock,unseeded-rng\n")
    assert lint_source(src, "repro/sim/fixture.py") == []


def test_disable_comment_on_other_line_does_not_suppress():
    src = ("import random\n"
           "# repro-lint: disable=unseeded-rng\n"
           "x = random.random()\n")
    hits = lint_source(src, "repro/sim/fixture.py")
    assert len(hits) == 1


# -- fingerprints & baseline ----------------------------------------------

def test_fingerprint_is_stable_across_line_churn():
    before = lint_source(VIOLATION, "repro/sim/fixture.py")
    after = lint_source("\n\n\n" + VIOLATION, "repro/sim/fixture.py")
    assert [f.fingerprint for f in before] == [f.fingerprint for f in after]
    assert before[0].line != after[0].line


def test_baseline_roundtrip_and_diff(tmp_path):
    findings = lint_source(VIOLATION, "repro/sim/fixture.py")
    path = str(tmp_path / "baseline.json")
    write_baseline(path, findings)
    baseline = load_baseline(path)
    new, matched = diff_against(findings, baseline)
    assert new == []
    assert sum(matched.values()) == len(findings)


def test_baseline_diff_uses_multiset_counts():
    f = lint_source(VIOLATION, "repro/sim/fixture.py")[0]
    twice = [f, f]
    baseline_one = {f.fingerprint: 1}
    new, matched = diff_against(twice, baseline_one)
    assert len(new) == 1 and matched == {f.fingerprint: 1}


def test_corrupt_baseline_raises_with_path(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match=str(path)):
        load_baseline(str(path))


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
    assert main(["lint", clean, "--no-baseline"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_on_violation_with_json_report(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert main(["lint", bad, "--no-baseline", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 1
    assert report["new"][0]["rule"] == "unseeded-rng"


def test_cli_exit_two_on_unknown_rule_and_missing_path(tmp_path):
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    assert main(["lint", clean, "--rule", "nope"]) == 2
    assert main(["lint", str(tmp_path / "absent.py")]) == 2


def test_cli_rule_filter_narrows_the_run(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py",
                 "import random, time\n"
                 "a = random.random()\n"
                 "b = time.time()\n")
    assert main(["lint", bad, "--no-baseline", "--rule", "wall-clock",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in report["new"]} == {"wall-clock"}


def test_cli_write_baseline_then_gate_passes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    baseline = str(tmp_path / "lint-baseline.json")
    assert main(["lint", bad, "--write-baseline", "--baseline", baseline]) == 0
    capsys.readouterr()
    # Gate: the old finding is known, so the run is clean...
    assert main(["lint", bad, "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "known from baseline" in out
    # ...until a new violation appears.
    worse = _write(tmp_path, "bad.py", VIOLATION + "\nimport time\nt = time.time()\n")
    assert main(["lint", worse, "--baseline", baseline]) == 1


def test_cli_default_baseline_discovered_from_cwd(tmp_path, monkeypatch):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    nested = tmp_path / "deep" / "er"
    nested.mkdir(parents=True)
    write_baseline(str(tmp_path / "lint-baseline.json"),
                   analysis.lint_file(bad))
    monkeypatch.chdir(nested)
    assert main(["lint", bad]) == 0


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out
    assert "spec-late-event" in out
