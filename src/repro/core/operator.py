"""Operators: the application logic units of the query network.

An operator is "a piece of program code executed repeatedly to process
its input data" (Section II-A).  Operators here carry three things:

1. **Logic** — ``process(tup, ctx)`` returning output tuples.
2. **A CPU cost model** — ``cost(tup)`` in *reference seconds* (time on a
   600 MHz iPhone-3GS-class core); the node runtime divides by the host
   phone's speed.  Costs are explicit because the simulator cannot infer
   wall time from Python execution.
3. **Checkpointable state** — ``state_size()`` plus
   ``snapshot()``/``restore()``; the fault-tolerance schemes move these
   bytes around.

The library types (:class:`MapOperator`, :class:`SourceOperator`,
:class:`SinkOperator`) cover most application needs; BCP and SignalGuru
subclass :class:`Operator` directly where they keep model state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RngRegistry


@dataclass
class OperatorContext:
    """Runtime facilities handed to ``process``.

    A runtime keeps one context and stamps ``now`` before each call, so
    the object is valid only during one ``process()`` call: an operator
    must not keep it, and must read ``now`` inside that call.

    Attributes
    ----------
    now:
        Current virtual time.
    rng:
        The region's RNG registry (operators draw named streams).
    region_name:
        Name of the hosting region (for operators that key models by
        region, e.g. per-bus-stop statistics).
    """

    now: float
    rng: "RngRegistry"
    region_name: str = ""


class Operator(ABC):
    """Base class for all operators."""

    #: Default state size for operators that do not override it.
    DEFAULT_STATE_SIZE = 0
    #: Whether this operator ingests external data.
    is_source = False
    #: Whether this operator publishes results.
    is_sink = False

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("operator name must be non-empty")
        self.name = name

    # -- logic ---------------------------------------------------------
    @abstractmethod
    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        """Consume one tuple, return zero or more output tuples."""

    def cost(self, tup: StreamTuple) -> float:
        """Reference CPU seconds to process ``tup`` (default: negligible)."""
        return 1e-4

    def route(self, out: StreamTuple, downstream: List[str]) -> List[str]:
        """Which downstream operators receive ``out`` (default: all).

        Dispatchers override this: BCP's ``D`` round-robins each image to
        exactly one counter; SignalGuru's ``S1`` spreads frames over the
        three filter chains.
        """
        return downstream

    # -- state ----------------------------------------------------------
    def state_size(self) -> int:
        """Bytes of operator state a checkpoint must save."""
        return self.DEFAULT_STATE_SIZE

    def snapshot(self) -> Any:
        """Serializable state object (paired with :meth:`restore`)."""
        return None

    def restore(self, state: Any) -> None:
        """Reset internal state from a :meth:`snapshot` object."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class MapOperator(Operator):
    """Stateless 1->1 operator from a payload function.

    Parameters
    ----------
    fn:
        ``fn(payload) -> payload`` transformation.
    out_size:
        Output tuple size: an int, or ``None`` to keep the input size, or
        a callable ``(in_size, out_payload) -> int``.
    cost_s:
        Reference CPU seconds per tuple (constant, or callable of tuple).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Any],
        out_size: Optional[Any] = None,
        cost_s: Any = 1e-4,
    ) -> None:
        super().__init__(name)
        self._fn = fn
        self._out_size = out_size
        self._cost = cost_s

    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        out_payload = self._fn(tup.payload)
        if self._out_size is None:
            size = tup.size
        elif callable(self._out_size):
            size = self._out_size(tup.size, out_payload)
        else:
            size = self._out_size
        return [tup.derive(out_payload, size)]

    def cost(self, tup: StreamTuple) -> float:
        return self._cost(tup) if callable(self._cost) else self._cost


class SourceOperator(Operator):
    """Ingests external data (sensors, cameras, upstream regions).

    Sources are *stateless* in the paper's recovery story (Section III-D:
    "it is easier to recover them since they are stateless"); the durable
    part — preserved input — is owned by the fault-tolerance scheme, not
    the operator.

    Subclasses/instances provide a *workload*: an iterator of
    ``(inter_arrival_s, payload, size)`` triples, or attach at runtime via
    :meth:`bind_workload`.  Sources with no workload only ingest what the
    runtime feeds them (e.g. tuples arriving from an upstream region).
    """

    is_source = True

    def __init__(self, name: str, workload: Optional[Any] = None) -> None:
        super().__init__(name)
        self.workload = workload

    def bind_workload(self, workload: Any) -> None:
        """Attach/replace the workload iterator."""
        self.workload = workload

    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        """Pass-through: sources forward ingested tuples unchanged."""
        return [tup]


class SinkOperator(Operator):
    """Publishes results (to users and to downstream regions)."""

    is_sink = True

    def process(self, tup: StreamTuple, ctx: OperatorContext) -> List[StreamTuple]:
        """Pass-through: the runtime forwards sink outputs across regions."""
        return [tup]


class StatefulOperator(Operator):
    """Convenience base for operators with a dict state and fixed size.

    Subclasses mutate ``self.state`` freely; snapshots follow the
    copy-on-write protocol of :mod:`repro.checkpoint.snapshots` — array
    leaves are frozen and shared rather than copied, containers become
    cheap immutable views.  A subclass that mutates a snapshotted array
    in place must un-share it first via
    :func:`repro.checkpoint.snapshots.writable`.
    """

    def __init__(self, name: str, state_size: int = 1024) -> None:
        super().__init__(name)
        if state_size < 0:
            raise ValueError("state_size must be >= 0")
        self._state_size = state_size
        self.state: Dict[str, Any] = {}

    def state_size(self) -> int:
        return self._state_size

    def snapshot(self) -> Any:
        # Imported here: repro.checkpoint pulls in the scheme/baseline
        # stack, which imports this module back at load time.
        from repro.checkpoint import snapshots

        return snapshots.freeze_state(self.state)

    def restore(self, state: Any) -> None:
        from repro.checkpoint import snapshots

        self.state = snapshots.thaw_state(state) if state else {}
