"""The ``repro lint`` command (its flags are declared in :mod:`repro.cli`).

Exit codes: 0 — no findings; 1 — findings (including ``parse-error``
and ``spec-invalid``); 2 — a path that does not exist.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.analysis.core import RULES, Finding, lint_paths
from repro.analysis.speclint import SPEC_RULES, lint_spec_file


def _print_table(findings: List[Finding], stream) -> None:
    rows = [(f"{f.path}:{f.line}:{f.col}", f.rule, f.message)
            for f in findings]
    widths = [max(len(row[i]) for row in rows) for i in range(2)]
    for loc, rule, message in rows:
        stream.write(f"{loc:<{widths[0]}}  {rule:<{widths[1]}}  {message}\n")


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name:<22} {rule.description}")
        for name in SPEC_RULES:
            print(f"{name:<22} see `repro lint <spec>.json`")
        return 0

    paths = args.paths or ["src"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(p for p in paths if not p.endswith(".json"))
    for path in paths:
        if path.endswith(".json"):
            findings.extend(lint_spec_file(path))
    findings.sort(key=Finding.sort_key)

    if args.format == "json":
        report = {"total": len(findings),
                  "findings": [f.to_dict() for f in findings]}
        print(json.dumps(report, indent=2, sort_keys=True))
    elif findings:
        _print_table(findings, sys.stdout)
        print(f"{len(findings)} finding(s)")
    else:
        print("clean: no findings")
    return 1 if findings else 0
