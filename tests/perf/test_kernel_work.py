"""Kernel work per case as a pinned count (no clock).

A free resource slot is granted inside ``Resource.request()`` and a
tuple send is one channel request plus one callback, not a process;
together that removes ~40 % of the events of a scenario case.  The
count below moves only if the runtime adds or drops kernel work — rows
are guarded separately by ``test_golden_equivalence.py``.
"""

from repro.scenarios import get
from repro.scenarios.runner import run_case

#: Events of this case when every grant was a queued event and every
#: tuple send ran in its own process.
EVENTS_WITH_GRANT_EVENTS_AND_SEND_PROCESSES = 5659
EVENTS = 3438


def test_fig8_quick_case_event_count():
    result = run_case(get("paper-fig8").quick(), "bcp", "ms-8", 3)
    assert result.report.events_processed == EVENTS
    assert EVENTS <= 0.62 * EVENTS_WITH_GRANT_EVENTS_AND_SEND_PROCESSES
