"""Scenario execution: single cases, reduced to typed artifact rows.

A scenario's matrix (app × scheme × seed) expands into independent
cases.  Each case builds a fresh :class:`MobiStreamsSystem` seeded via
:class:`~repro.sim.rng.RngRegistry`, arms the scenario's event script,
runs it, and reduces the trace to an artifact row — the schema lives in
:mod:`repro.results.model`; :func:`case_to_type`/:func:`case_to_dict`
are the bridge from a live run.  Cases share nothing and are
deterministic in (spec, app, scheme, seed) — which is what lets
:mod:`repro.scenarios.executor` fan them out over a warm
``multiprocessing`` pool, resume partial sweeps from a case cache, and
stream artifacts, all while staying bit-identical to a serial run.
Sweeps are :func:`repro.scenarios.executor.run_sweep`; artifact
serialization is :mod:`repro.results`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.apps.registry import AppRef, AppRefLike, create_app, get_app
from repro.baselines import (
    ActiveStandby,
    DistributedCheckpoint,
    LocalCheckpoint,
    NoFaultTolerance,
)
from repro.checkpoint import MobiStreamsScheme
from repro.core.metrics import MetricsReport
from repro.core.system import MobiStreamsSystem, RegionBuildSpec, SystemConfig
from repro.device.phone import PhoneConfig
from repro.results.model import CaseResult as ArtifactCase
from repro.scenarios.events import EventDirector
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry import QoSMonitor, TelemetrySnapshot, Timeline


#: Extra scheme labels registered at runtime (fault-injection fixtures,
#: experiment variants).  Factories here take no arguments; they shadow
#: nothing — built-in labels stay first and cannot be overridden.
_EXTRA_SCHEMES: Dict[str, Callable] = {}


def register_scheme(label: str, factory: Callable) -> None:
    """Add a scheme label to the comparison set at runtime.

    ``factory`` is a zero-argument callable producing a fresh scheme
    instance per case.  Built-in labels cannot be shadowed; registering
    an already-registered extra label raises too (unregister first).
    """
    if label in scheme_factories() or label in _EXTRA_SCHEMES:
        raise ValueError(f"scheme label {label!r} is already registered")
    _EXTRA_SCHEMES[label] = factory


def unregister_scheme(label: str) -> None:
    """Remove a runtime-registered scheme label (unknown labels are a
    no-op so teardown paths can call this unconditionally)."""
    _EXTRA_SCHEMES.pop(label, None)


def scheme_factories(checkpoint_period_s: float = 300.0) -> Dict[str, Callable]:
    """The Section IV-B comparison set, keyed by figure label.

    ``checkpoint_period_s`` drives the periodic baselines; MobiStreams
    takes its period from the controller's checkpoint clock instead.
    Runtime-registered extras (:func:`register_scheme`) appear after the
    built-ins.
    """
    factories: Dict[str, Callable] = {
        "base": NoFaultTolerance,
        "rep-2": lambda: ActiveStandby(2),
        "local": lambda: LocalCheckpoint(period_s=checkpoint_period_s),
        "dist-1": lambda: DistributedCheckpoint(1, period_s=checkpoint_period_s),
        "dist-2": lambda: DistributedCheckpoint(2, period_s=checkpoint_period_s),
        "dist-3": lambda: DistributedCheckpoint(3, period_s=checkpoint_period_s),
        "ms-8": MobiStreamsScheme,
    }
    factories.update(_EXTRA_SCHEMES)
    return factories


def scheme_factory(scheme: str, checkpoint_period_s: float = 300.0) -> Callable:
    """One scheme's factory; unknown names raise with the known labels."""
    factories = scheme_factories(checkpoint_period_s)
    try:
        return factories[scheme]
    except KeyError:
        known = ", ".join(factories)
        raise ValueError(
            f"unknown scheme {scheme!r}; known schemes: {known}"
        ) from None


def app_factory(app: AppRefLike):
    """Back-compat shim: a fresh-AppSpec factory for any app ref.

    New code should use :func:`repro.apps.registry.create_app`; this
    keeps the historical ``app_factory("bcp")()`` call shape working.
    """
    ref = AppRef.coerce(app)
    entry = get_app(ref.name)  # raises ValueError naming the known apps
    return lambda: entry.create(ref)


@dataclass
class CaseResult:
    """One executed (app, scheme, seed) case of a scenario.

    ``app`` is the ref's deterministic case key (``"bcp"``, or
    ``"edgeml[n_stages=2]"`` for parameterized refs).
    """

    scenario: str
    app: str
    scheme: str
    seed: int
    report: MetricsReport
    region_stopped: List[bool]
    #: The sampled QoS timeline (None unless ``spec.telemetry`` is set).
    #: Lives beside — never inside — the artifact row: rows keep the
    #: strict :mod:`repro.results.model` schema.
    timeline: Optional[Timeline] = None
    #: Invariant violations found by the armed harness (empty unless the
    #: case ran with ``verify=True``).  Like the timeline, these live
    #: beside the artifact row, never inside it.
    violations: tuple = ()

    @property
    def recoveries(self) -> int:
        return self.report.recoveries


def build_system(
    spec: ScenarioSpec, app: AppRefLike, scheme: str, seed: int
) -> MobiStreamsSystem:
    """A fresh deployment for one case of ``spec``."""
    region_builds: Optional[List[Optional[RegionBuildSpec]]] = None
    if spec.regions:
        region_builds = []
        for r in spec.regions:
            phone_cfg = (
                PhoneConfig(cpu_speed=r.cpu_speed) if r.cpu_speed != 1.0 else None
            )
            region_builds.append(RegionBuildSpec(
                phones=r.phones, idle=r.idle, phone=phone_cfg,
                charge_fraction=r.charge_fraction,
            ))
    sys_cfg = SystemConfig(
        n_regions=spec.n_regions,
        phones_per_region=spec.phones_per_region,
        idle_per_region=spec.idle_per_region,
        master_seed=seed,
        checkpoint_period_s=spec.checkpoint_period_s,
        region_builds=region_builds,
        device_backend=spec.device_backend,
    )
    return MobiStreamsSystem(
        sys_cfg,
        create_app(app),
        scheme_factory(scheme, spec.checkpoint_period_s),
    )


def run_case(
    spec: ScenarioSpec,
    app: AppRefLike,
    scheme: str,
    seed: int,
    on_snapshot: Optional[Callable[[TelemetrySnapshot], None]] = None,
    verify: bool = False,
) -> CaseResult:
    """Build, script, run, and measure one case.

    With ``spec.telemetry`` set, a :class:`~repro.telemetry.QoSMonitor`
    samples the run and the result carries its timeline;
    ``on_snapshot`` streams each live sample (the ``repro watch``
    feed).  The monitor is read-only and draws no randomness, so the
    metrics row is identical with telemetry on or off.

    With ``verify=True``, a :class:`~repro.verify.InvariantHarness`
    observes the run and the result carries any violations.  The
    harness, like the monitor, is observe-only and draws no
    randomness — the artifact row is byte-identical either way.
    """
    app_key = AppRef.coerce(app).key
    system = build_system(spec, app, scheme, seed)
    harness = None
    if verify:
        from repro.verify.harness import InvariantHarness

        harness = InvariantHarness(system)
        harness.start()
    monitor: Optional[QoSMonitor] = None
    if spec.telemetry is not None:
        monitor = QoSMonitor(
            system.sim, system.trace, interval_s=spec.telemetry.interval_s,
            meta={"scenario": spec.name, "app": app_key,
                  "scheme": scheme, "seed": seed},
        )
        if on_snapshot is not None:
            monitor.add_callback(on_snapshot)
        system.attach_telemetry(monitor)
        monitor.start()
    director = EventDirector(system, spec)
    director.install()
    system.start()
    director.schedule()
    system.run(spec.duration_s)
    if monitor is not None:
        monitor.finish()
    if harness is not None:
        harness.finish()
    report = system.metrics(warmup_s=spec.warmup_s)
    result = CaseResult(
        scenario=spec.name,
        app=app_key,
        scheme=scheme,
        seed=seed,
        report=report,
        region_stopped=[r.stopped for r in system.regions],
        timeline=monitor.timeline() if monitor is not None else None,
        violations=tuple(harness.violations) if harness is not None else (),
    )
    # A finished case is one large reference cycle (region <-> scheme,
    # node <-> region, the deliver closures in the cell member tables,
    # suspended process generators): 8k-28k objects that only the cycle
    # collector frees.  It runs after a set number of container
    # allocations, which a run makes few of, so dead cases would pile up
    # between collections and set the peak RSS.  Collect each one here.
    del system, director, monitor, harness
    gc.collect()
    return result


def case_to_type(result: CaseResult) -> ArtifactCase:
    """The artifact-typed form of a live case result (the schema lives
    in :mod:`repro.results.model`; this is the bridge from a run)."""
    return ArtifactCase.from_report(
        scenario=result.scenario,
        app=result.app,
        scheme=result.scheme,
        seed=result.seed,
        report=result.report,
        region_stopped=result.region_stopped,
    )


def case_to_dict(result: CaseResult) -> Dict[str, Any]:
    """JSON-ready metrics for one case (stable, timestamp-free)."""
    return case_to_type(result).to_dict()

