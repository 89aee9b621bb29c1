"""The lint framework, its two rules, and the engine.

A rule sees one file at a time through a :class:`FileContext` — the
parsed AST, the raw source lines, and the *module path* (the
``repro/...`` suffix) that findings report.  :data:`RULES` is the whole
catalog: ``wall-clock`` and ``observer-purity``, the two bug classes
that change timing or scheduling without changing a row, so the golden
tests cannot see them.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a line of one file."""

    rule: str
    path: str  # module path (posix separators), e.g. "repro/net/wifi.py"
    line: int
    col: int
    message: str
    #: The stripped source line ("" for JSON specs, which carry a
    #: descriptor such as ``key=telemetry`` instead).
    code: str = ""

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

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.lines = source.splitlines()
        self.tree = tree

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s location."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        code = self.lines[line - 1].strip() if 1 <= line <= len(self.lines) else ""
        return Finding(rule=rule, path=self.relpath, line=line, col=col,
                       message=message, code=code)


# -- AST helpers ------------------------------------------------------------

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

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """The fully-resolved dotted path of a call's target, or None
        when the target is not a Name/Attribute chain."""
        node = call.func
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


def is_self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


# -- the rules ----------------------------------------------------------------

#: Wall-clock reads (resolved dotted names).  ``time.perf_counter`` /
#: ``time.monotonic`` are the sanctioned interval clocks.
_WALL_CLOCK_CALLS = frozenset({
    "time.asctime",
    "time.ctime",
    "time.gmtime",
    "time.localtime",
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})


class WallClockRule:
    """Wall-clock reads: ``time.time()`` / ``datetime.now()`` and kin.

    Simulation, checkpoint, and verification code must be a function of
    sim-time only; harness code timing real intervals wants
    ``time.perf_counter()`` / ``time.monotonic()``.  A wall-clock
    interval (say a fuzz budget) jumps with NTP and DST, so it changes
    how far a run gets without changing any row the goldens hash.
    """

    name = "wall-clock"
    description = ("wall-clock read; use time.perf_counter()/"
                   "monotonic() for intervals")

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node)
            if resolved in _WALL_CLOCK_CALLS:
                findings.append(ctx.finding(
                    self.name, node,
                    f"{resolved}() reads the wall clock; use "
                    "time.perf_counter()/monotonic() for intervals, or "
                    "thread a timestamp in explicitly"))
        return findings


#: The simulator's scheduling/mutation surface: calling any of these
#: from a Trace-observer callback breaks the observes-only contract.
SCHEDULER_API = frozenset({
    "call_at",
    "call_every",
    "call_in",
    "fail",
    "interrupt",
    "process",
    "schedule",
    "succeed",
    "timeout",
    "trigger",
})


def _self_attr_values(node: ast.AST) -> Set[str]:
    """Every ``self.X`` attr name referenced anywhere under ``node``."""
    out: Set[str] = set()
    for sub in ast.walk(node):
        attr = is_self_attr(sub)
        if attr is not None:
            out.add(attr)
    return out


class ObserverPurityRule:
    """Scheduler/RNG calls reachable from a Trace-observer callback.

    ``Trace.add_observer`` callbacks run synchronously inside the
    simulator's hot loop.  Telemetry and ``--verify`` must not change a
    run, which holds only if those callbacks never touch the scheduler
    or the RNG.  A no-op ``call_in`` from an observer adds events
    without changing a row, so only this rule sees it.  The rule walks
    the *callback closure* — the registered method, every
    ``self.helper()`` it reaches, and every handler a dispatch-table
    attribute points at — and flags scheduler/RNG calls inside it.
    """

    name = "observer-purity"
    description = ("Trace observer callback calls scheduler/RNG APIs; "
                   "observers must be observe-only")

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node, imports))
        return findings

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef,
                     imports: ImportMap) -> List[Finding]:
        methods = {stmt.name: stmt for stmt in cls.body
                   if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if not methods:
            return []
        handler_attrs = self._handler_table_attrs(cls, methods)
        entries = self._registered_entries(cls, methods, handler_attrs)
        if not entries:
            return []
        closure = self._closure(entries, methods, handler_attrs)
        findings = []
        for name in sorted(closure):
            findings.extend(
                self._check_method(ctx, cls, methods[name], imports))
        return findings

    # -- closure construction --------------------------------------------

    @staticmethod
    def _handler_table_attrs(cls: ast.ClassDef,
                             methods: Dict[str, ast.FunctionDef],
                             ) -> Dict[str, Set[str]]:
        """``self.X = {...: self.m}`` dispatch tables: attr -> methods."""
        tables: Dict[str, Set[str]] = {}
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, (ast.Dict, ast.List, ast.Tuple)):
                continue
            referenced = {m for m in _self_attr_values(node.value)
                          if m in methods}
            if not referenced:
                continue
            for target in node.targets:
                attr = is_self_attr(target)
                if attr is not None:
                    tables.setdefault(attr, set()).update(referenced)
        return tables

    @staticmethod
    def _registered_entries(cls: ast.ClassDef,
                            methods: Dict[str, ast.FunctionDef],
                            handler_attrs: Dict[str, Set[str]]) -> Set[str]:
        """Methods handed to ``*.add_observer(...)`` (directly or via a
        dispatch-table attribute passed as an argument)."""
        entries: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "add_observer"):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                attr = is_self_attr(value)
                if attr is None:
                    continue
                if attr in methods:
                    entries.add(attr)
                entries.update(handler_attrs.get(attr, ()))
        return entries

    @staticmethod
    def _closure(entries: Set[str], methods: Dict[str, ast.FunctionDef],
                 handler_attrs: Dict[str, Set[str]]) -> Set[str]:
        """Transitive ``self.m()`` / dispatch-table reachability."""
        closure: Set[str] = set()
        work = sorted(entries)
        while work:
            name = work.pop()
            if name in closure or name not in methods:
                continue
            closure.add(name)
            for node in ast.walk(methods[name]):
                called = None
                if isinstance(node, ast.Call):
                    called = is_self_attr(node.func)
                if called and called in methods:
                    work.append(called)
                # A referenced dispatch table pulls in its handlers.
                attr = is_self_attr(node)
                if attr and attr in handler_attrs:
                    work.extend(handler_attrs[attr])
        return closure

    # -- purity check ----------------------------------------------------

    def _check_method(self, ctx: FileContext, cls: ast.ClassDef,
                      method: ast.FunctionDef,
                      imports: ImportMap) -> List[Finding]:
        findings = []
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver_is_self = (isinstance(func.value, ast.Name)
                                    and func.value.id == "self")
                if func.attr in SCHEDULER_API and not receiver_is_self:
                    findings.append(ctx.finding(
                        self.name, node,
                        f"observer callback {cls.name}.{method.name}() "
                        f"calls scheduler API .{func.attr}(); Trace "
                        "observers must be observe-only"))
                    continue
                if func.attr == "stream" and not receiver_is_self:
                    findings.append(ctx.finding(
                        self.name, node,
                        f"observer callback {cls.name}.{method.name}() "
                        "draws from an RNG stream; Trace observers must "
                        "be observe-only"))
                    continue
            resolved = imports.resolve_call(node) or ""
            parts = resolved.split(".")
            if parts[0] == "random" or parts[:2] == ["numpy", "random"]:
                findings.append(ctx.finding(
                    self.name, node,
                    f"observer callback {cls.name}.{method.name}() "
                    "calls the RNG; Trace observers must be observe-only"))
        return findings


#: The rule catalog, in ``--list-rules`` order.  A rule has a ``name``,
#: a ``description`` and ``check(ctx) -> List[Finding]``.
RULES = (WallClockRule(), ObserverPurityRule())


# -- the engine -----------------------------------------------------------

def module_relpath(path: str) -> str:
    """The stable module path of a file: the ``repro/...`` suffix when
    the file lives under the package, else the path as given (posix
    separators, leading ``./`` stripped)."""
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


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Lint one source string as though it lived at ``relpath``.

    The unit the fixture tests drive.  Raises SyntaxError for
    unparseable source.
    """
    ctx = FileContext(relpath, source, ast.parse(source, filename=relpath))
    findings: List[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(ctx))
    return sorted(findings, key=Finding.sort_key)


def lint_file(path: str) -> List[Finding]:
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
        return lint_source(source, relpath)
    except SyntaxError as exc:
        return [Finding(rule="parse-error", path=relpath,
                        line=exc.lineno or 1, col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}")]


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every Python file under ``paths``; findings in stable order."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return sorted(findings, key=Finding.sort_key)
