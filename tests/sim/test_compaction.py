"""Tests for lazy-deletion compaction of the simulator event queue.

Cancelled timeouts are left in place (removing from mid-heap is O(n))
and marked dead; once dead entries hit ``COMPACT_MIN_DEAD`` *and*
outnumber live ones, the queue is rebuilt without them.  These tests
drive the trigger directly.
"""

import pytest

from repro.sim.core import Simulator


@pytest.fixture
def sim():
    return Simulator()


def _queued(sim):
    return sim._queued()


def test_cancellations_below_threshold_stay_lazy(sim):
    timeouts = [sim.timeout(float(i + 1)) for i in range(100)]
    for t in timeouts[: Simulator.COMPACT_MIN_DEAD - 1]:
        t.cancel()
    # 63 dead of 100: under the count floor, nothing compacts.
    assert sim.dead_entries == Simulator.COMPACT_MIN_DEAD - 1
    assert _queued(sim) == 100


def test_compaction_fires_once_dead_outnumber_live(sim):
    timeouts = [sim.timeout(float(i + 1)) for i in range(200)]
    # Cancel more than half, beyond the count floor.  The trigger is
    # checked per cancellation, so it fires mid-loop the moment both
    # conditions hold (dead >= 64 and dead*2 >= queued).
    for t in timeouts[:130]:
        t.cancel()
    # The trigger tripped at dead == 100 (100*2 >= 200 queued): those
    # entries were physically removed and the ledger reset; the last 30
    # cancellations sit lazily below the 64-count floor.
    assert sim.dead_entries == 30
    assert _queued(sim) == 100
    # Every surviving entry is live.
    sim.run()
    assert sim.dead_entries == 0
    assert _queued(sim) == 0


def test_compaction_preserves_event_order(sim):
    fired = []
    keep = []
    pending = []
    for i in range(200):
        t = sim.timeout(float(i + 1))
        if i % 3 == 0:
            t.add_callback(lambda ev, i=i: fired.append(i))
            keep.append(i)
        else:
            pending.append(t)
    for t in pending:
        t.cancel()  # compaction fires mid-loop once dead*2 >= queued
    assert sim.dead_entries < len(pending)  # at least one compaction ran
    sim.run()
    assert sim.dead_entries == 0
    assert fired == keep


def test_call_every_cancel_leaves_nothing_queued(sim):
    hits = []
    cancel = sim.call_every(1.0, hits.append, 1)
    sim.run(until=3.5)
    assert hits == [1, 1, 1]
    cancel()
    # The in-flight Callback was cancelled; compaction thresholds aside,
    # draining the queue runs nothing further.
    sim.run()
    assert hits == [1, 1, 1]
    assert _queued(sim) == 0
    assert sim.dead_entries == 0


def test_revival_decrements_dead_ledger(sim):
    t = sim.timeout(5.0)
    t.cancel()
    assert sim.dead_entries == 1
    fired = []
    t.add_callback(fired.append)  # revive: fires at its original deadline
    assert sim.dead_entries == 0
    sim.run()
    assert fired == [t]
    assert sim.now == 5.0


def test_popped_dead_entries_settle_ledger(sim):
    """Cancelled entries that never trip compaction pop as no-ops and
    settle ``dead_entries`` back to zero."""
    ts = [sim.timeout(float(i + 1)) for i in range(10)]
    for t in ts[:5]:
        t.cancel()
    assert sim.dead_entries == 5
    sim.run()
    assert sim.dead_entries == 0
    assert sim.events_processed == 10  # dead pops still count


def test_revival_after_compaction_fires_at_deadline(sim):
    """A timeout whose lazily-deleted entry was dropped by a wholesale
    compaction must re-enter the queue on revival, not wait on an entry
    that no longer exists."""
    t = sim.timeout(10.0)
    t.cancel()
    churn = [sim.timeout(50.0) for _ in range(2 * Simulator.COMPACT_MIN_DEAD)]
    for other in churn:
        other.cancel()  # trips compaction, dropping t's queue entry
    assert sim.dead_entries < 2 * Simulator.COMPACT_MIN_DEAD
    fired = []
    t.add_callback(fired.append)  # revive: re-pushes at the deadline
    sim.run()
    assert fired == [t]
    assert t.deadline == 10.0
    assert sim.dead_entries == 0


def test_anyof_loser_yield_after_compaction(sim):
    """The reviewer's repro: an AnyOf loser is auto-cancelled; after a
    compaction drops its entry, ``yield``-ing it must still resume the
    process at the original deadline (it used to hang forever)."""
    results = []

    def proc(sim):
        fast = sim.timeout(1.0)
        slow = sim.timeout(10.0)
        yield sim.any_of([fast, slow])  # slow loses and is auto-cancelled
        churn = [sim.timeout(50.0) for _ in range(2 * Simulator.COMPACT_MIN_DEAD)]
        for other in churn:
            other.cancel()
        yield slow
        results.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert results == [10.0]
    assert sim.dead_entries == 0


def test_popped_dead_entry_add_callback_fires_immediately(sim):
    """Once a cancelled entry has popped at its deadline, a later
    add_callback behaves like on any expired timeout: it runs the
    callback now and must not decrement the dead ledger again."""
    t = sim.timeout(1.0)
    t.cancel()
    sim.run()
    assert sim.dead_entries == 0
    fired = []
    t.add_callback(fired.append)
    assert fired == [t]
    assert sim.dead_entries == 0


def test_dropped_entry_past_deadline_fires_immediately(sim):
    """A compaction-dropped timeout revived after its deadline has
    passed runs the callback immediately instead of scheduling into the
    past."""
    t = sim.timeout(1.0)
    t.cancel()
    churn = [sim.timeout(2.0) for _ in range(2 * Simulator.COMPACT_MIN_DEAD)]
    for other in churn:
        other.cancel()  # compaction drops t's entry
    sim.timeout(3.0)  # live event carrying the clock past t's deadline
    sim.run()
    assert sim.now == 3.0
    fired = []
    t.add_callback(fired.append)
    assert fired == [t]
    assert sim.dead_entries == 0
    assert sim.now == 3.0  # clock never moved backwards


def test_compaction_keeps_run_loop_alive():
    """Heap compaction rebuilds the queue list in place so the inlined
    run loop's local alias keeps draining the same list."""
    sim = Simulator()
    fired = []

    def proc(sim):
        ts = [sim.timeout(float(i + 10)) for i in range(200)]
        yield sim.timeout(1.0)
        for t in ts[:150]:
            t.cancel()  # compacts mid-run, inside the run loop
        yield sim.timeout(100.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [101.0]
    assert sim.dead_entries == 0
