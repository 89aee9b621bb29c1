"""API-contract rules: keep callers on the supported surfaces.

These rules encode conventions the library already states in
docstrings — the linter makes them diff-time errors instead of latent
bugs.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import (
    FileContext,
    Finding,
    ImportMap,
    Rule,
    class_methods,
    is_dataclass,
    register_rule,
)
from repro.analysis.project import (
    HOT_PATH_MODULES,
    LOSS_INTERNALS,
    SLOTTED_BASES,
    WIFI_MODULE,
    in_paths,
)


@register_rule
class RawLossPokeRule(Rule):
    """Poking WifiCell loss internals instead of calling ``set_loss()``.

    ``_loss`` / ``_uniform_p`` / ``_uniform_loss_p`` are the loss
    model's private state; writing them directly skips validation and
    the uniform/per-link bookkeeping that keeps loss draws reproducible
    across backends.
    """

    name = "raw-loss-poke"
    family = "api-contract"
    description = "WifiCell loss internals poked directly; use set_loss()"

    def check(self, ctx: FileContext) -> List[Finding]:
        if ctx.relpath == WIFI_MODULE:
            return []
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in LOSS_INTERNALS:
                findings.append(ctx.finding(
                    self.name, node,
                    f".{node.attr} is a WifiCell loss-model internal; "
                    "use set_loss()"))
        return findings


@register_rule
class MissingSlotsRule(Rule):
    """Classes that should declare ``__slots__`` but don't.

    Two triggers: (a) anywhere — subclassing a known-slotted base
    (``Event``, ``Condition``, ``StreamTuple``, ...) without declaring
    ``__slots__`` silently regains ``__dict__`` for every instance;
    (b) in hot-path modules — any class that assigns instance
    attributes in ``__init__`` must be slotted, because these types are
    allocated millions of times per run.  Dataclasses and Exception
    subclasses are exempt from (b).
    """

    name = "missing-slots"
    family = "api-contract"
    description = "hot-path class or slotted-base subclass lacks __slots__"

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        slotted_here = self._slotted_classes(ctx.tree)
        hot_path = in_paths(ctx.relpath, HOT_PATH_MODULES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._has_slots(node):
                continue
            base = self._slotted_base(node, slotted_here)
            if base is not None and not is_dataclass(node):
                findings.append(ctx.finding(
                    self.name, node,
                    f"class {node.name} subclasses slotted {base} without "
                    "declaring __slots__ (even __slots__ = () works); "
                    "instances regain __dict__"))
            elif (hot_path and not is_dataclass(node)
                    and not self._is_exceptionish(node)
                    and self._init_assigns_attrs(node)):
                findings.append(ctx.finding(
                    self.name, node,
                    f"class {node.name} lives on the hot path and "
                    "assigns instance attributes; declare __slots__"))
        return findings

    @staticmethod
    def _has_slots(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    @classmethod
    def _slotted_classes(cls, tree: ast.Module) -> Set[str]:
        return {node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and cls._has_slots(node)}

    @staticmethod
    def _slotted_base(cls_node: ast.ClassDef, slotted_here: Set[str]) -> Optional[str]:
        for base in cls_node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None)
            if name and (name in SLOTTED_BASES or name in slotted_here):
                return name
        return None

    @staticmethod
    def _is_exceptionish(cls_node: ast.ClassDef) -> bool:
        for base in cls_node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else "")
            if name.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    @staticmethod
    def _init_assigns_attrs(cls_node: ast.ClassDef) -> bool:
        init = class_methods(cls_node).get("__init__")
        if init is None:
            return False
        for node in ast.walk(init):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
        return False


@register_rule
class DefaultKeyEmitRule(Rule):
    """``to_dict()`` that emits keys for fields still at their default.

    The serialization convention (see ``ScenarioSpec.to_dict``) is to
    *omit* optional fields at their default so that adding a field
    never changes the digest of an old spec.  A ``to_dict`` built on
    ``dataclasses.asdict`` must delete (or conditionally emit) every
    None-default field; one that never mentions such a field ships the
    default into the payload.
    """

    name = "default-key-emit"
    family = "api-contract"
    description = ("to_dict() emits a default-valued optional key; omit "
                   "it to keep digests stable")

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not is_dataclass(node):
                continue
            to_dict = class_methods(node).get("to_dict")
            if to_dict is None:
                continue
            optional = self._none_default_fields(node)
            if not optional:
                continue
            if not self._calls_asdict(to_dict, imports):
                continue
            mentioned = self._mentioned_fields(to_dict)
            for field_name in sorted(optional):
                if field_name not in mentioned:
                    findings.append(ctx.finding(
                        self.name, to_dict,
                        f"{node.name}.to_dict() never filters optional "
                        f"field {field_name!r}; asdict() will emit it "
                        "even at its None default, perturbing digests"))
        return findings

    @staticmethod
    def _none_default_fields(cls_node: ast.ClassDef) -> Set[str]:
        fields: Set[str] = set()
        for stmt in cls_node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None):
                fields.add(stmt.target.id)
        return fields

    @staticmethod
    def _calls_asdict(func: ast.FunctionDef, imports: ImportMap) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                resolved = imports.resolve_call(node) or ""
                if resolved.split(".")[-1] == "asdict":
                    return True
        return False

    @staticmethod
    def _mentioned_fields(func: ast.FunctionDef) -> Set[str]:
        """Field names the body references as a key string or ``self.F``."""
        mentioned: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.add(node.value)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                mentioned.add(node.attr)
        return mentioned
