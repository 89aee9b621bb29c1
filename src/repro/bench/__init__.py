"""Benchmark harness: regenerates every table and figure of Section IV.

One module per artifact, each running :class:`~repro.scenarios.ScenarioSpec`
cases through the scenario engine (:mod:`repro.scenarios`):

* :mod:`repro.bench.table1` — MobiStreams vs server-based DSPS.
* :mod:`repro.bench.fig8`   — steady-state FT overhead of all schemes.
* :mod:`repro.bench.fig9`   — n simultaneous failures/departures.
* :mod:`repro.bench.fig10`  — preservation + checkpoint data volumes.
* :mod:`repro.bench.ablation` — design-choice sweeps beyond the paper.

``python -m repro bench all`` prints every artifact, paper values
alongside measured ones.
"""
