"""Commit-token safety checkers, driven by synthetic trace records.

A stub system (one region, exactly-once contract) lets each checker be
exercised in isolation: tokens, commits, abandons, restores, and sink
outputs are plain ``trace.record`` calls, so every violating interleaving
is a three-line scenario.
"""

from repro.sim.monitor import Trace
from repro.verify.harness import InvariantHarness


class _StubScheme:
    delivery_contract = "exactly-once"


class _StubRegion:
    name = "region0"
    scheme = _StubScheme()


class _StubSim:
    now = 0.0


class _StubSystem:
    def __init__(self):
        self.trace = Trace()
        self.regions = [_StubRegion()]
        self.sim = _StubSim()


def _armed():
    system = _StubSystem()
    harness = InvariantHarness(system)
    harness.start()
    return system, harness


def _names(harness):
    return [v.invariant for v in harness.violations]


def test_commit_with_outstanding_tokens_violates():
    system, harness = _armed()
    t = system.trace
    t.record(10.0, "token_received", region="region0", node="E",
             version=1, ready=False)
    t.record(11.0, "checkpoint_complete", region="region0", version=1)
    assert _names(harness) == ["token-safety"]
    v = harness.violations[0]
    assert v.details["nodes"] == ["E"]
    assert any(r["category"] == "token_received" for r in v.window)


def test_snapshot_clears_outstanding_tokens():
    system, harness = _armed()
    t = system.trace
    t.record(10.0, "token_received", region="region0", node="E",
             version=1, ready=False)
    t.record(10.5, "node_snapshot", region="region0", node="E", version=1)
    t.record(11.0, "checkpoint_complete", region="region0", version=1)
    assert harness.violations == []


def test_commit_of_abandoned_version_violates():
    system, harness = _armed()
    t = system.trace
    t.record(9.0, "checkpoint_abandoned", region="region0", version=2)
    t.record(12.0, "checkpoint_complete", region="region0", version=2)
    assert "token-safety" in _names(harness)


def test_restore_from_abandoned_version_violates():
    system, harness = _armed()
    t = system.trace
    t.record(5.0, "checkpoint_abandoned", region="region0", version=1)
    t.record(20.0, "catchup_started", region="region0", mrc=1, tuples=0)
    assert "token-safety" in _names(harness)


def test_restore_from_never_completed_version_violates():
    system, harness = _armed()
    system.trace.record(
        20.0, "catchup_started", region="region0", mrc=3, tuples=0)
    assert "token-safety" in _names(harness)


def test_restore_from_completed_version_is_clean():
    system, harness = _armed()
    t = system.trace
    t.record(10.0, "checkpoint_requested", region="region0", version=1)
    t.record(12.0, "checkpoint_complete", region="region0", version=1)
    t.record(20.0, "catchup_started", region="region0", mrc=1, tuples=0)
    assert harness.violations == []


def test_replay_gap_checker_counts_from_the_cut():
    system, harness = _armed()
    t = system.trace
    for i in range(5):
        t.record(float(i), "source_ingest", region="region0")
    t.record(10.0, "checkpoint_requested", region="region0", version=1)
    t.record(12.0, "checkpoint_complete", region="region0", version=1)
    for i in range(3):
        t.record(13.0 + i, "source_ingest", region="region0")
    # 3 ingested since the v1 cut but only 2 replayed: one tuple lost.
    t.record(20.0, "catchup_started", region="region0", mrc=1, tuples=2)
    assert _names(harness) == ["replay-gap"]
    v = harness.violations[0]
    assert v.details == {"mrc": 1, "replayed": 2, "expected": 3}


def test_duplicate_sink_emit_key_violates():
    system, harness = _armed()
    t = system.trace
    t.record(1.0, "sink_output", region="region0", op="K",
             key=("w", 7), latency=0.5)
    t.record(2.0, "sink_output", region="region0", op="K",
             key=("w", 8), latency=0.5)
    t.record(3.0, "sink_output", region="region0", op="K",
             key=("w", 7), latency=0.5)
    assert _names(harness) == ["duplication-free"]


def test_checkpoint_version_must_advance():
    system, harness = _armed()
    t = system.trace
    t.record(10.0, "checkpoint_requested", region="region0", version=2)
    t.record(20.0, "checkpoint_requested", region="region0", version=1)
    assert "monotone-versions" in _names(harness)


def test_mrc_must_not_move_backwards():
    system, harness = _armed()
    t = system.trace
    for version in (1, 2):
        t.record(10.0 * version, "checkpoint_requested",
                 region="region0", version=version)
        t.record(10.0 * version + 2, "checkpoint_complete",
                 region="region0", version=version)
    t.record(30.0, "catchup_started", region="region0", mrc=2, tuples=0)
    t.record(40.0, "catchup_started", region="region0", mrc=1, tuples=0)
    assert "monotone-versions" in _names(harness)


def test_finish_detaches_the_observer():
    system, harness = _armed()
    assert system.trace._observers
    harness.finish()
    assert system.trace._observers == []
    # Idempotent, and records after finish are no longer observed.
    harness.finish()
    system.trace.record(50.0, "catchup_started", region="region0",
                        mrc=9, tuples=0)
    assert harness.violations == []
