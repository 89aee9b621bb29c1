"""The lint framework: findings, the rule registry, and the engine.

The moving parts mirror the app/scheme registries: rules are classes
registered under a stable kebab-case name (:func:`register_rule`),
looked up with the same unknown-name-lists-the-known-names ValueError
(:func:`get_rule`), and instantiated fresh per run (:func:`all_rules`).

A rule sees one file at a time through a :class:`FileContext` — the
parsed AST, the raw source lines, and the *module path* (the
``repro/...`` suffix), which is what project-aware scoping keys on.
Findings carry a content-based fingerprint (rule, module path, stripped
source line) so the committed baseline survives unrelated line churn.

Per-line suppression::

    risky_thing()  # repro-lint: disable=rule-name
    risky_thing()  # repro-lint: disable=rule-a,rule-b
    risky_thing()  # repro-lint: disable=all

The comment must sit on the *reported* line (for a multi-line
statement, the line the finding points at).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Rule families, in catalog order.
FAMILIES = ("determinism", "api-contract", "observer-purity")

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, \-]+)")


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a line of one file."""

    rule: str
    path: str  # module path (posix separators), e.g. "repro/net/wifi.py"
    line: int
    col: int
    message: str
    #: The stripped source line (fingerprint material; "" for JSON specs).
    code: str = ""

    @property
    def fingerprint(self) -> str:
        """Content-based identity for baseline matching: stable across
        unrelated edits that only shift line numbers."""
        return f"{self.rule}|{self.path}|{self.code}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``--format json`` report rows)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
        }


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: str, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def code(self, lineno: int) -> str:
        """The stripped source text of 1-based ``lineno`` ("" if out of
        range — defensive for synthetic nodes)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s location."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.relpath, line=line, col=col,
                       message=message, code=self.code(line))


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` (the stable rule ID used in ``--rule`` /
    ``disable=`` / the baseline), ``family`` (one of :data:`FAMILIES`),
    and ``description``, and implement :meth:`check`.
    """

    name: str = ""
    family: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> List[Finding]:
        raise NotImplementedError


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} needs a name")
    if cls.family not in FAMILIES:
        raise ValueError(
            f"rule {cls.name!r} has unknown family {cls.family!r}; "
            f"expected one of {', '.join(FAMILIES)}"
        )
    if cls.name in _RULES:
        raise ValueError(f"rule {cls.name!r} is already registered")
    _RULES[cls.name] = cls
    return cls


def rule_names() -> List[str]:
    """Registered rule IDs, catalog order (family, then name)."""
    return [cls.name for cls in sorted(
        _RULES.values(), key=lambda c: (FAMILIES.index(c.family), c.name))]


def get_rule(name: str) -> Type[Rule]:
    """One rule class; unknown names raise listing the known IDs."""
    try:
        return _RULES[name]
    except KeyError:
        known = ", ".join(rule_names())
        raise ValueError(
            f"unknown lint rule {name!r}; known rules: {known}"
        ) from None


def all_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of the selected (default: all) rules."""
    selected = names if names is not None else rule_names()
    return [get_rule(name)() for name in selected]


# -- import/alias resolution helpers -------------------------------------

class ImportMap:
    """Resolves local names to the dotted module paths they alias.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``; attribute chains
    then resolve through the map (``np.random.shuffle`` ->
    ``numpy.random.shuffle``).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The fully-resolved dotted path of a Name/Attribute chain, or
        None when the chain is not rooted at a plain name."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.aliases.get(parts[0])
        if root is not None:
            parts[0] = root
        return ".".join(parts)

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """The resolved dotted path of a call's target."""
        return self.resolve(call.func)


def attr_chain(node: ast.AST) -> Optional[str]:
    """Unresolved dotted text of a Name/Attribute chain (``self.x.y``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """The class's directly-defined methods by name (async included)."""
    out: Dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[stmt.name] = stmt  # type: ignore[assignment]
    return out


def decorator_names(cls: ast.ClassDef) -> List[str]:
    """Textual names of a class's decorators (calls unwrapped)."""
    names = []
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        chain = attr_chain(target)
        if chain:
            names.append(chain)
    return names


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(name.split(".")[-1] == "dataclass" for name in decorator_names(cls))


# -- suppression ----------------------------------------------------------

def suppressions(source: str) -> Dict[int, set]:
    """Per-line suppressed rule sets: ``{lineno: {"rule", ...}}``."""
    table: Dict[int, set] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            table[i] = {part.strip() for part in match.group(1).split(",")
                        if part.strip()}
    return table


def apply_suppressions(findings: List[Finding], source: str) -> List[Finding]:
    table = suppressions(source)
    if not table:
        return findings
    kept = []
    for f in findings:
        rules = table.get(f.line)
        if rules and ("all" in rules or f.rule in rules):
            continue
        kept.append(f)
    return kept


# -- the engine -----------------------------------------------------------

def module_relpath(path: str) -> str:
    """The stable module path of a file: the ``repro/...`` suffix when
    the file lives under the package, else the path as given (posix
    separators, leading ``./`` stripped) — what fingerprints and
    project-aware scoping key on."""
    norm = path.replace(os.sep, "/")
    parts = norm.split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return norm.lstrip("./") or norm


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        seen.append(os.path.join(dirpath, name))
        else:
            seen.append(path)
    return iter(sorted(dict.fromkeys(seen)))


def lint_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[Rule]] = None,
    path: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string as though it lived at ``relpath``.

    The unit the fixture tests drive: path-scoped rules see ``relpath``,
    so a fixture can impersonate any module of the tree.  Raises
    SyntaxError for unparseable source.
    """
    tree = ast.parse(source, filename=path or relpath)
    ctx = FileContext(path or relpath, relpath, source, tree)
    findings: List[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        findings.extend(rule.check(ctx))
    return sorted(apply_suppressions(findings, source),
                  key=Finding.sort_key)


def lint_file(path: str, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint one file (see :func:`lint_source`); unreadable or
    unparseable files produce a single ``parse-error`` finding."""
    relpath = module_relpath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return [Finding(rule="parse-error", path=relpath, line=1, col=0,
                        message=f"cannot read file: {exc}")]
    try:
        return lint_source(source, relpath, rules, path=path)
    except SyntaxError as exc:
        return [Finding(rule="parse-error", path=relpath,
                        line=exc.lineno or 1, col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}")]


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; findings in stable order."""
    rules = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules))
    return sorted(findings, key=Finding.sort_key)
