"""No orphan definitions in ``src/repro``.

A *definition* is a function, method or class anywhere under
``src/repro``. It is an *orphan* when its name is referenced nowhere in
``src/repro`` outside its own ``def``/``class`` line: not as a name or
attribute, not as an import outside an ``__init__.py`` (re-exports do
not count), not as an identifier-shaped string constant (``__all__``
entries do not count), and not as a name an f-string's literal head
prefixes (``getattr(self, f"_schedule_{kind}")`` reaches every
``_schedule_*``; only heads ending in ``_`` count, so ``f"p{i}"`` reaches
nothing). Dunders, ``visit_*`` methods and definitions carrying
a registering decorator (anything but ``property``, ``setter``,
``staticmethod``, ``classmethod`` and ``dataclass``) count as used.

An orphan is either deleted with the tests that only test it, or kept
in ``ALLOWLIST`` below with the reason it stays. The test fails on a new
orphan and on an allowlist entry that is no longer an orphan.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PLAIN_DECORATORS = {"property", "setter", "staticmethod", "classmethod", "dataclass"}

# "relative/path.py:Qualified.name" -> why it stays although src/ never names it.
ALLOWLIST = {
    # Fixtures, observers and reference oracles of tests of other behaviour.
    "apps/edgeml/operators.py:PrototypeClassifier.accuracy": "observer: classifier training",
    "apps/registry.py:unregister_app": "fixture: registry tests undo their registrations",
    "apps/signalguru/svm.py:LinearSVM.accuracy": "observer: SVM training and online updates",
    "apps/signalguru/svm.py:LinearSVM.fit": "fixture: the norm and snapshot tests",
    "apps/vision.py:clear_vision_caches": "fixture: cold render caches for the fast-path tests",
    "checkpoint/store.py:CheckpointStore.is_complete": "observer: checkpoint commit",
    "checkpoint/store.py:CheckpointStore.state_for": "observer: stored snapshot contents",
    "checkpoint/token_protocol.py:TokenTracker.is_done": "observer: token rounds",
    "checkpoint/token_protocol.py:TokenTracker.waiting_channels": "observer: token rounds",
    "core/node.py:NodeRuntime.blocked_channels": "observer: channel blocking during rounds",
    "core/operator.py:MapOperator": "fixture: the small graphs of the core tests",
    "core/operator.py:StatefulOperator": "fixture: the checkpointed graphs of the recovery tests",
    "device/storage.py:FlashStorage.free_bytes": "observer: flash accounting",
    "device/storage.py:FlashStorage.keys": "observer: FlashStorage.wipe",
    "device/storage.py:FlashStorage.used_bytes": "observer: flash accounting",
    "net/cellular.py:CellularNetwork.phone_rates": "observer: per-phone rate draws",
    "net/loss.py:GilbertElliottLoss.steady_state_loss": "oracle: the bursty model's long-run loss",
    "net/loss.py:NoLoss": "fixture: loss-free cells",
    "net/topology.py:RegionArea.contains": "observer: RegionArea.random_point placement",
    "net/wifi.py:WifiCell.set_loss": "fixture: per-receiver loss in the broadcast tests",
    "results/resultset.py:GroupedResults.keys": "observer: group order; completes the mapping API",
    "results/resultset.py:ResultSet.from_cases": "fixture: typed result sets for the results tests",
    "sim/resources.py:Resource.queue_length": "observer: resource grants",
    "util/bitmaps.py:received_bytes": "oracle: reception accounting of the packed bitmaps",
    # Documented in README.md.
    "results/resultset.py:Pivot.to_text": "README: results API",
    "results/resultset.py:ResultSet.pivot": "README: results API",
    "results/resultset.py:ResultSet.to_rows": "README: results API",
    "telemetry/timeline.py:Timeline.final": "README: timeline API",
    "telemetry/timeline.py:Timeline.operator_names": "README: timeline API",
    # Reached from benchmarks/e2e.
    "net/wifi.py:WifiCell.udp_unicast": "benchmarks/e2e/tracing.py counts its calls",
}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _exempt(node):
    name = node.name
    if name.startswith("__") and name.endswith("__") or name.startswith("visit_"):
        return True
    return any(_decorator_name(d) not in PLAIN_DECORATORS for d in node.decorator_list)


def _family(head):
    """An f-string head like ``_schedule_`` names a family of definitions;
    a bare word (``f"p{i}"``, ``f"region{r}"``) names none."""
    return head.isidentifier() and head.endswith("_")


def _all_strings(tree):
    """Ids of the string constants inside ``__all__ = [...]``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(id(c) for c in ast.walk(node.value))
    return found


def scan(root):
    """Sorted ``"path:Qualname"`` of every orphan definition under *root*."""
    definitions, names, prefixes = [], set(), set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_all = _all_strings(tree)

        def collect(body, scope):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = scope + node.name
                    if not _exempt(node):
                        definitions.append((node.name, f"{rel}:{qual}"))
                    collect(node.body, qual + ".")
                else:
                    for child in ast.iter_child_nodes(node):
                        if isinstance(child, ast.stmt):
                            collect([child], scope)

        collect(tree.body, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier() and id(node) not in in_all:
                    names.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and _family(head.value):
                    prefixes.add(head.value)
    return sorted(
        where
        for name, where in definitions
        if name not in names and not any(name.startswith(p) for p in prefixes)
    )


def test_no_orphans_outside_the_allowlist():
    orphans = set(scan(SRC))
    assert sorted(orphans - set(ALLOWLIST)) == [], "delete these, or allowlist them with a reason"
    assert sorted(set(ALLOWLIST) - orphans) == [], "allowlisted, but referenced or gone"


def test_scanner_reports_only_the_planted_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from pkg.mod import orphan, used\n")
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n"
    )
    assert scan(pkg) == ["mod.py:orphan"]
