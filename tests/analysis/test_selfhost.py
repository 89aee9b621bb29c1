"""Self-hosting: the tree must lint clean.

This is the same check CI's lint-smoke job runs; keeping it in the
test suite means a violation fails `pytest` locally before a push.
"""

import os

from repro.analysis import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_src_lints_clean():
    findings = lint_paths([os.path.join(REPO_ROOT, "src")])
    assert findings == [], "lint findings:\n" + "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings)


def test_violation_fixture_fires_expected_rules():
    findings = lint_paths([os.path.join(FIXTURES, "seeded_violation.py")])
    assert {f.rule for f in findings} == {"observer-purity", "wall-clock"}
    assert lint_paths([os.path.join(FIXTURES, "clean.py")]) == []
