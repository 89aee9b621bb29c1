"""Checkpoint versions and source preservation (Sections III-B/III-C).

Both stores model data that is physically replicated on *every* phone in
the region ("The data is saved on every node in the region (all source,
sink, computing and idle nodes)"), so any healthy phone can restore any
node.  The stores track logical content and sizes; the physical broadcast
that replicates them is charged separately by
:mod:`repro.checkpoint.broadcast`.
"""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.tuples import StreamTuple

NodeKey = frozenset

#: Shared empty mapping for :meth:`CheckpointStore.states_at_mrc` before
#: any checkpoint completed.
_EMPTY_STATES: Mapping = MappingProxyType({})


class CheckpointStore:
    """Versioned node-state snapshots with completion tracking.

    A version is *complete* once every node that participated has saved
    its state; the Most Recent (complete) Checkpoint — the MRC — is the
    restore point.  Partial checkpoints (a failure hit mid-save) are
    simply ignored, per Section III-D.
    """

    def __init__(self) -> None:
        self._states: Dict[int, Dict[NodeKey, Tuple[Any, int]]] = defaultdict(dict)
        self._needed: Dict[int, set] = {}
        self._saved: Dict[int, set] = defaultdict(set)
        self._complete: List[int] = []

    def begin_version(self, version: int, node_ids: Iterable[str]) -> None:
        """Register the participants of checkpoint ``version``."""
        self._needed[version] = set(node_ids)

    def put(self, version: int, node_id: str, op_key: NodeKey, snapshot: Any, size: int) -> bool:
        """Record one node's saved state; returns True if ``version`` is
        now complete."""
        self._states[version][op_key] = (snapshot, size)
        self._saved[version].add(node_id)
        needed = self._needed.get(version)
        if needed is not None and needed <= self._saved[version]:
            if version not in self._complete:
                self._complete.append(version)
                self._prune(version)
            return True
        return False

    def _prune(self, version: int) -> None:
        """Drop data older than the newest complete version.

        "The input data and the checkpoint data will be kept until the
        next checkpoint of the region is completed."
        """
        for v in list(self._states):
            if v < version:
                del self._states[v]
        self._complete = [v for v in self._complete if v >= version]

    def abandon_version(self, version: int) -> None:
        """Write off an incomplete version (partial data is ignored).

        No-op when the version already completed.  Afterwards the version
        can never become the MRC: its participant set and partial states
        are dropped.
        """
        if version in self._complete:
            return
        self._needed.pop(version, None)
        self._saved.pop(version, None)
        self._states.pop(version, None)

    @property
    def mrc_version(self) -> int:
        """The newest complete version (0 = initial, pre-checkpoint state)."""
        return max(self._complete) if self._complete else 0

    def is_pending(self, version: int) -> bool:
        """Whether ``version`` was begun and is still collecting saves —
        i.e. it could yet complete.  False once abandoned (the
        participant set is dropped) and for never-begun versions."""
        return version in self._needed and version not in self._complete

    def is_complete(self, version: int) -> bool:
        """Whether every participant saved its state for ``version``."""
        return version in self._complete

    def state_for(self, version: int, op_key: NodeKey) -> Optional[Tuple[Any, int]]:
        """(snapshot, size) of one node's state at ``version``."""
        return self._states.get(version, {}).get(op_key)

    def states_at_mrc(self) -> Mapping[NodeKey, Tuple[Any, int]]:
        """All node states at the MRC (empty mapping before any checkpoint).

        Returns a read-only *view* of the stored version, not a copy:
        every restore used to pay a fresh dict (and recovery can restore
        the same MRC repeatedly).  Callers only iterate and ``.get`` —
        anyone who needs a mutable mapping must copy explicitly.
        """
        states = self._states.get(self.mrc_version)
        if states is None:
            return _EMPTY_STATES
        return MappingProxyType(states)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CheckpointStore mrc={self.mrc_version} versions={sorted(self._states)}>"


class PreservationStore:
    """Source preservation: input retained since the MRC (Section III-B).

    Input is recorded in per-version *segments*: a new segment opens when
    the source emits the token of a checkpoint (the cut), and segments
    older than a completed checkpoint are dropped.  Restoration to MRC v
    replays every retained segment >= v, in order.

    Retained tuples are shared by reference — recording, broadcasting,
    and replaying all hold the same immutable :class:`StreamTuple`
    objects, so preservation never copies payload bytes.  Segment keys
    are kept in insertion order, which *is* version order because
    :meth:`start_segment` enforces monotone versions — so replay walks
    the dict directly instead of re-sorting every key on every call.
    """

    def __init__(self) -> None:
        #: version -> retained (source op, tuple) pairs.  Plain dict, not
        #: defaultdict: keys must only ever be created at the current
        #: (largest) version so iteration order stays sorted.
        self._segments: Dict[int, List[Tuple[str, StreamTuple]]] = {}
        self._current = 0
        self.total_bytes = 0

    def start_segment(self, version: int) -> None:
        """Open the segment for checkpoint ``version`` (the token cut)."""
        if version < self._current:
            raise ValueError(f"segment versions must be monotone ({version} < {self._current})")
        self._current = version

    def record(self, source_op: str, tup: StreamTuple) -> None:
        """Preserve one ingested input tuple (by reference, no copy)."""
        segment = self._segments.get(self._current)
        if segment is None:
            # New keys only ever appear at the current version, which
            # start_segment keeps monotone — insertion order stays sorted.
            segment = self._segments[self._current] = []
        segment.append((source_op, tup))
        self.total_bytes += tup.size

    def on_checkpoint_complete(self, version: int) -> None:
        """Drop segments made obsolete by a completed checkpoint."""
        for v in list(self._segments):
            if v >= version:
                # Keys are sorted: everything after the first survivor
                # survives too.
                break
            for _op, tup in self._segments[v]:
                self.total_bytes -= tup.size
            del self._segments[v]

    def replay_from(self, version: int) -> List[Tuple[str, StreamTuple]]:
        """All retained input at or after the cut of ``version``, in order.

        Segment keys are maintained sorted (monotone insertion), so this
        is a single ordered walk — the per-recovery ``sorted()`` over
        every retained segment is gone.
        """
        out: List[Tuple[str, StreamTuple]] = []
        for v, segment in self._segments.items():
            if v >= version:
                out.extend(segment)
        return out

    def retained_count(self) -> int:
        """Number of retained tuples (diagnostics)."""
        return sum(len(seg) for seg in self._segments.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PreservationStore segments={sorted(self._segments)} "
            f"tuples={self.retained_count()} bytes={self.total_bytes}>"
        )
