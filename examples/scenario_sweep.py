"""Scenario engine tour: specs, the library, and a parallel sweep.

Run with::

    PYTHONPATH=src python examples/scenario_sweep.py

Shows the three layers of the scenario subsystem:

1. the named library (``repro.scenarios.library``) and what each spec
   declares,
2. a custom declarative spec — a crash burst *plus* a flash-crowd surge
   in one timed event script,
3. the sweep executor fanning a scheme × seed matrix out over worker
   processes, with results identical to a serial run.
"""

import os

from repro import scenarios
from repro.results import ResultSet
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec


def main() -> None:
    # -- 1. the built-in library --------------------------------------------
    print("built-in scenarios:")
    for spec in scenarios.all_specs():
        print(f"  {spec.name:<20s} {len(spec.matrix)} cases, "
              f"{len(spec.events)} scripted events")

    # -- 2. a custom declarative scenario ------------------------------------
    spec = ScenarioSpec(
        name="surge-under-failure",
        description="A flash crowd doubles the load while two phones die.",
        duration_s=300.0,
        warmup_s=50.0,
        idle_per_region=4,
        checkpoint_period_s=60.0,
        events=(
            EventSpec(kind="surge", time=80.0, factor=2.0, until=220.0),
            EventSpec(kind="crash", time=140.0, phones=(3, 4)),
        ),
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    print(f"\ncustom scenario {spec.name!r} round-trips through JSON: "
          f"{scenarios.ScenarioSpec.from_json(spec.to_json()) == spec}")

    # -- 3. sweep the matrix in parallel, query it typed ---------------------
    jobs = min(4, os.cpu_count() or 1)
    rs = ResultSet.from_sweep(scenarios.run_sweep(spec, jobs=jobs))
    print(f"\nsweep of {len(rs)} cases (jobs={jobs}):")
    print(f"{'scheme':<8s} {'seed':<5s} {'tput t/s':<9s} {'recoveries'}")
    for case in rs:
        print(f"{case.scheme:<8s} {case.seed:<5d} "
              f"{case.throughput:<9.3f} {case.recoveries}")

    # The results API answers the paper-style questions directly: mean
    # cross-seed throughput per scheme, normalized to the base system.
    rel = rs.relative_to("base", metrics=("throughput", "latency"))
    print(f"\nms-8 vs base: {rel['ms-8']['throughput']:.0%} throughput, "
          f"{rel['ms-8']['latency']:.2f}x latency under the surge+crash mix")

    ms = rs.filter(scheme="ms-8")
    assert all(c.recoveries >= 1 for c in ms), "ms-8 must have recovered"
    print("ms-8 recovered from the burst in every seed; sweep artifacts are")
    print("byte-identical at any --jobs level.")


if __name__ == "__main__":  # the sweep pool re-imports this module on
    main()                  # spawn-start platforms; keep the body guarded
