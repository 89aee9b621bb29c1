"""The full MobiStreams deployment: cascaded regions + controller.

Assembles everything (Fig. 4): N regions cascaded in a line (the paper's
experiments use 4 — bus stops along a route, intersections along a road),
one cellular network, one reliable controller, one scheme instance per
region, phones placed geometrically inside each region's area.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.app import AppSpec
from repro.core.controller import Controller, ControllerConfig
from repro.core.metrics import MetricsReport, compute_metrics
from repro.core.region import Region, RegionConfig
from repro.device.failures import FailureInjector
from repro.device.fleet import Fleet
from repro.device.mobility import PoissonChurn
from repro.device.phone import Phone, PhoneConfig
from repro.net.cellular import CellularConfig, CellularNetwork
from repro.net.topology import Position, RegionArea
from repro.net.wifi import WifiCell, WifiConfig
from repro.sim.core import Simulator
from repro.sim.monitor import Trace
from repro.sim.rng import RngRegistry

#: Distance between cascaded regions (far beyond WiFi range).
REGION_SPACING_M = 500.0


@dataclass
class RegionBuildSpec:
    """Per-region overrides for a heterogeneous deployment.

    Any field left at ``None`` falls back to the :class:`SystemConfig`
    default, so a spec only states what differs (a slow fleet, a region
    that starts half-charged, ...).
    """

    #: Computing phones in this region (None -> ``phones_per_region``).
    phones: Optional[int] = None
    #: Idle spare phones (None -> ``idle_per_region``).
    idle: Optional[int] = None
    #: Hardware profile for this region's phones (None -> ``phone``).
    phone: Optional[PhoneConfig] = None
    #: Initial battery charge of this region's phones.
    charge_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.charge_fraction <= 1.0:
            raise ValueError("charge_fraction must be in (0, 1]")


@dataclass
class SystemConfig:
    """Deployment-wide configuration (defaults follow Section IV)."""

    n_regions: int = 4
    phones_per_region: int = 8
    idle_per_region: int = 2
    master_seed: int = 0
    #: Checkpoint period; "The checkpoint period in MobiStreams is 5 minutes."
    checkpoint_period_s: float = 300.0
    wifi: WifiConfig = field(default_factory=WifiConfig)
    cellular: CellularConfig = field(default_factory=CellularConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    phone: PhoneConfig = field(default_factory=PhoneConfig)
    region_defaults: RegionConfig = field(default_factory=lambda: RegionConfig(name="_"))
    #: Per-region heterogeneity: entry r overrides region r; a short list
    #: (or ``None`` entries) leaves the remaining regions at the defaults.
    region_builds: Optional[List[Optional[RegionBuildSpec]]] = None
    #: Device-state storage: "object" (one Phone/Battery per phone, the
    #: default and the parity oracle) or "fleet" (numpy struct-of-arrays
    #: behind duck-typed proxies — the large-n backend).
    device_backend: str = "object"

    def __post_init__(self) -> None:
        if self.n_regions < 1:
            raise ValueError("need at least one region")
        if self.phones_per_region < 1:
            raise ValueError("need at least one phone per region")
        if self.region_builds is not None and len(self.region_builds) > self.n_regions:
            raise ValueError("more region_builds entries than regions")
        if self.device_backend not in ("object", "fleet"):
            raise ValueError(
                f"unknown device_backend {self.device_backend!r}; "
                "expected 'object' or 'fleet'"
            )

    def region_build(self, index: int) -> RegionBuildSpec:
        """The effective build spec for region ``index``."""
        spec = None
        if self.region_builds is not None and index < len(self.region_builds):
            spec = self.region_builds[index]
        return spec if spec is not None else RegionBuildSpec()


class MobiStreamsSystem:
    """A runnable multi-region MobiStreams deployment."""

    def __init__(
        self,
        config: SystemConfig,
        app: AppSpec,
        scheme_factory: Callable[[], Any],
    ) -> None:
        self.config = config
        self.app = app
        self.sim = Simulator()
        #: Vectorized device storage when device_backend == "fleet".
        self.fleet: Optional[Fleet] = (
            Fleet() if config.device_backend == "fleet" else None
        )
        self.rng = RngRegistry(config.master_seed)
        self.trace = Trace()
        self.cellular = CellularNetwork(self.sim, self.rng, config.cellular, trace=self.trace)
        self.controller = Controller(self.sim, self.cellular, self.trace, config.controller)
        self.injector = FailureInjector(self.sim, trace=self.trace)
        self.injector.on_crash(self._apply_crash)
        self.injector.on_liveness(self._phone_alive)
        self.regions: List[Region] = []
        self.schemes: List[Any] = []
        self.areas: List[RegionArea] = []
        self._phone_region: Dict[str, Region] = {}
        self._compute_counts: List[int] = []
        self._join_seq = 0
        self._build_regions(scheme_factory)
        self._started = False

    # -- construction ------------------------------------------------------
    def _build_regions(self, scheme_factory: Callable[[], Any]) -> None:
        cfg = self.config
        geo_rng = self.rng.stream("geometry")
        for r in range(cfg.n_regions):
            name = f"region{r}"
            build = cfg.region_build(r)
            n_compute = build.phones if build.phones is not None else cfg.phones_per_region
            n_idle = build.idle if build.idle is not None else cfg.idle_per_region
            phone_cfg = build.phone if build.phone is not None else cfg.phone
            area = RegionArea(Position(REGION_SPACING_M * r, 0.0), radius=10.0)
            self.areas.append(area)
            self._compute_counts.append(n_compute)
            compute = [
                self._new_phone(f"{name}.p{i}", area.random_point(geo_rng),
                                phone_cfg, build.charge_fraction)
                for i in range(n_compute)
            ]
            idle = [
                self._new_phone(f"{name}.idle{i}", area.random_point(geo_rng),
                                phone_cfg, build.charge_fraction)
                for i in range(n_idle)
            ]
            wifi = WifiCell(self.sim, self.rng, cfg.wifi, name=name, trace=self.trace)
            scheme = scheme_factory()
            factor = getattr(scheme, "replication_factor", 1)
            compute_ids = [p.id for p in compute]
            if factor > 1:
                # rep-k: squeeze the whole dataflow onto the first 1/k of
                # the phones, then replicate onto disjoint ring shifts —
                # each chain runs on its own phones (Flux-style pairing).
                base = self.app.build_placement(compute_ids[: len(compute_ids) // factor])
                placement = base.replicate(compute_ids, factor)
            else:
                placement = self.app.build_placement(compute_ids)
            region_cfg = dataclasses.replace(cfg.region_defaults, name=name)
            region = Region(
                sim=self.sim,
                rng=self.rng,
                trace=self.trace,
                config=region_cfg,
                graph_factory=self.app.build_graph,
                placement=placement,
                compute_phones=compute,
                idle_phones=idle,
                wifi=wifi,
                cellular=self.cellular,
                scheme=scheme,
                fleet=self.fleet,
            )
            for op_name, workload in self.app.build_workloads(self.rng, r).items():
                region.bind_workload(op_name, workload)
            self.controller.manage(region)
            self.regions.append(region)
            self.schemes.append(scheme)
            for p in compute + idle:
                self._phone_region[p.id] = region
        # Cascade the regions in a line (Section IV: "regions are cascaded
        # in a line").
        for upstream, downstream in zip(self.regions, self.regions[1:]):
            upstream.add_downstream_region(downstream)

    def _new_phone(self, phone_id, position, config, charge_fraction):
        """One phone on the configured device backend."""
        if self.fleet is not None:
            return self.fleet.create_phone(phone_id, position, config, charge_fraction)
        return Phone(phone_id, position, config, charge_fraction=charge_fraction)

    def _apply_crash(self, phone_id: str, reason: str) -> None:
        region = self._phone_region.get(phone_id)
        if region is None:
            raise KeyError(f"unknown phone {phone_id!r}")
        region.apply_crash(phone_id, reason)

    def _phone_alive(self, phone_id: str) -> bool:
        """Injector liveness probe.  Unknown ids report True so the
        crash handler still raises its KeyError for typos; dead or
        departed phones report False (the injection is a no-op).  A
        departing computing phone stays in ``region.phones`` while the
        scheme hands its operators off, but it already left the WiFi
        cell — membership is what "present in the region" means (the
        same definition :meth:`Region.alive_phone_ids` uses)."""
        region = self._phone_region.get(phone_id)
        if region is None:
            return True
        phone = region.phones.get(phone_id)
        return (phone is not None and phone.alive
                and region.wifi.is_member(phone_id))

    def apply_departure(self, phone_id: str) -> None:
        """A phone physically leaves its region (mobility)."""
        region = self._phone_region.get(phone_id)
        if region is None:
            raise KeyError(f"unknown phone {phone_id!r}")
        region.apply_departure(phone_id)

    def find_phone(self, phone_id: str) -> Optional[Phone]:
        """Look a phone up across all regions (None if unknown)."""
        region = self._phone_region.get(phone_id)
        return region.phones.get(phone_id) if region is not None else None

    def admit_phone(
        self,
        region_index: int,
        charge_fraction: float = 1.0,
        config: Optional["PhoneConfig"] = None,
    ) -> str:
        """A new phone enters a region and registers as an idle spare.

        Models churn/joins (Section III-A: phones that dwell in a region
        register with the controller).  The phone becomes immediately
        available for replacement promotion.  Returns the new phone id.
        """
        region = self.regions[region_index]
        area = self.areas[region_index]
        self._join_seq += 1
        pid = f"{region.name}.j{self._join_seq}"
        phone = self._new_phone(
            pid,
            area.random_point(self.rng.stream("geometry.join")),
            config if config is not None else self.config.phone,
            charge_fraction,
        )
        region.admit_idle_phone(phone)
        self._phone_region[pid] = region
        return pid

    def handoff(self, phone_id: str, to_region_index: Optional[int] = None) -> Optional[str]:
        """A phone walks from its region into another one (Section III-E).

        The departure side runs the usual urgent-mode/state-transfer
        machinery; the arrival side admits the phone (same battery, same
        hardware) as an idle spare of the target region.  ``None`` target
        defaults to the next region down the cascade; a phone walking off
        the far end simply departs.  Returns the arrival-side phone id.
        """
        region = self._phone_region.get(phone_id)
        if region is None:
            raise KeyError(f"unknown phone {phone_id!r}")
        phone = region.phones.get(phone_id)
        charge = phone.battery.fraction if phone is not None else 1.0
        p_cfg = phone.config if phone is not None else None
        if to_region_index is None:
            to_region_index = self.regions.index(region) + 1
        region.apply_departure(phone_id)
        if not 0 <= to_region_index < len(self.regions) or phone is None or not phone.alive:
            return None
        return self.admit_phone(to_region_index, charge_fraction=charge, config=p_cfg)

    def attach_mobility(self, model: PoissonChurn) -> None:
        """Arm a churn model: its departures drive the regions.

        The model's ``on_departure`` callback resolves each phone to its
        region and applies the physical departure (WiFi break, GPS
        confirmation, scheme handling all follow automatically).
        """
        model.start(self.sim, self.apply_departure)

    # -- running ------------------------------------------------------------
    def start(self) -> None:
        """Boot every region immediately and arm the checkpoint clocks.

        The one start path: every phone joins its networks at once, so
        the paper's Section III-A boot (dwell, controller registration,
        code shipping) is not simulated.
        """
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for region, scheme in zip(self.regions, self.schemes):
            region.start()
            if getattr(scheme, "wants_checkpoint_clock", False):
                self.controller.start_checkpoint_clock(
                    region, self.config.checkpoint_period_s)
        self.trace.record(self.sim.now, "system_started", regions=len(self.regions))

    def attach_telemetry(self, monitor: Any) -> Any:
        """Wire a live QoS monitor into every region (cascade order).

        The monitor (:class:`repro.telemetry.QoSMonitor`) taps node
        runtimes through ``region.telemetry`` and the shared trace
        through an observer; call this before :meth:`run`, then the
        monitor's own ``start()``.  Returns the monitor for chaining.
        """
        for region in self.regions:
            monitor.watch_region(region)
        return monitor

    def run(self, duration_s: float) -> None:
        """Start (if needed) and simulate ``duration_s`` of virtual time."""
        if not self._started:
            self.start()
        self.sim.run(until=self.sim.now + duration_s)

    def metrics(self, warmup_s: float = 0.0, until: Optional[float] = None) -> MetricsReport:
        """Measurement report over ``[warmup_s, until]``.

        Beyond the trace-derived figures, the report carries the live
        kernel/hot-counter view (``events_processed``, ``counters``) —
        the shared namespace the telemetry layer samples (see
        :mod:`repro.telemetry`); neither reaches artifact rows.
        """
        report = compute_metrics(
            self.trace,
            [r.name for r in self.regions],
            warmup_s=warmup_s,
            until=until if until is not None else self.sim.now,
        )
        report.events_processed = self.sim.events_processed
        report.counters = {
            name: counter.value for name, counter in self.trace.counters.items()
        }
        return report

    def region(self, index: int) -> Region:
        """Region by cascade position."""
        return self.regions[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MobiStreamsSystem regions={len(self.regions)} t={self.sim.now:.1f}s>"
