"""Cross-shard obliviousness: the cluster adversary's view is public.

The cluster threat model gives the adversary strictly more than the
single-engine one: it watches *every* shard's storage front door and,
crucially, the **interleaving** — which shard is touched when. The
security argument has two halves, both executable here:

* **The schedule is fixed.** The router visits shards in round-robin
  order, one (dummy-padded) access per shard per round, regardless of
  where real traffic lands (:func:`verify_visit_schedule`,
  :func:`verify_shard_balance`).
* **Each turn's content is label-determined.** Within a turn, the
  bucket sequence is the fork-path reconstruction from that shard's
  public leaf labels — so the whole interleaved trace is a function of
  the public label sequences alone
  (:func:`verify_interleaved_cluster_trace`, the cross-shard analogue
  of :func:`repro.security.adversary.verify_trace_matches_labels`).

:class:`InterleavedTraceRecorder` is the measurement instrument: one
shared observer spanning all shard backends, recording ``(shard, op,
node)`` in true arrival order — per-shard recorders cannot capture the
interleaving, which is exactly what a colocated adversary sees.

The statistical half (is a skewed workload's view distinguishable from
a uniform one's?) reuses :mod:`repro.security.indistinguishability`
per shard via :func:`shard_profile`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.oram.memory import MemoryOp, TraceRecorder
from repro.oram.tree import TreeGeometry
from repro.security.adversary import (
    expected_slot_traces,
    first_divergence,
    flat_slots,
)
from repro.security.indistinguishability import TraceProfile

#: One adversary-visible cluster event: (shard_id, op, node_id).
ClusterTraceEvent = Tuple[int, MemoryOp, int]


class _ShardTap(TraceRecorder):
    """Per-shard recorder that also feeds the shared interleaved log."""

    def __init__(self, shard_id: int, shared: "InterleavedTraceRecorder") -> None:
        super().__init__()
        self.shard_id = shard_id
        self._shared = shared

    def record(self, op: MemoryOp, node_id: int, time_ns: float) -> None:
        if self.enabled:
            super().record(op, node_id, time_ns)
            self._shared.events.append((self.shard_id, op, node_id))


class InterleavedTraceRecorder:
    """A single storage-boundary observer spanning every shard.

    Hand :meth:`shard_view` recorders to the per-shard backends (the
    ``traces=`` argument of :class:`~repro.cluster.service.ClusterService`
    / :class:`~repro.cluster.router.ShardRouter`); :attr:`events` then
    holds the global ``(shard, op, node)`` sequence in true arrival
    order, and each view doubles as that shard's ordinary
    :class:`~repro.oram.memory.TraceRecorder`.
    """

    def __init__(self) -> None:
        self.events: List[ClusterTraceEvent] = []
        self.views: List[_ShardTap] = []

    def shard_view(self, shard_id: int) -> TraceRecorder:
        view = _ShardTap(shard_id, self)
        self.views.append(view)
        return view

    def shard_views(self, shards: int) -> List[TraceRecorder]:
        return [self.shard_view(shard) for shard in range(shards)]

    def clear(self) -> None:
        self.events.clear()
        for view in self.views:
            view.clear()

    def __len__(self) -> int:
        return len(self.events)


def verify_visit_schedule(visits: Sequence[int], shards: int) -> None:
    """Raise unless the shard-visit sequence is the fixed rotation.

    The dispatch invariant: consecutive visits always advance by one
    shard (mod K). This holds from any starting offset, so a bounded
    visit log whose head was evicted still verifies.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    for index in range(1, len(visits)):
        expected = (visits[index - 1] + 1) % shards
        if visits[index] != expected:
            raise ConfigError(
                f"visit {index} went to shard {visits[index]}, but the "
                f"fixed schedule dictates shard {expected} after "
                f"{visits[index - 1]}"
            )


def verify_shard_balance(access_counts: Sequence[int]) -> None:
    """Raise unless every shard executed the same number of accesses
    (allowing one in-progress round: counts may differ by at most one,
    never increasing along shard order)."""
    if not access_counts:
        raise ConfigError("no shards to balance-check")
    highest, lowest = max(access_counts), min(access_counts)
    if highest - lowest > 1:
        raise ConfigError(
            f"shard access counts {list(access_counts)} diverge by more "
            f"than one round — the dispatch schedule is not being kept"
        )
    if highest != lowest:
        # Mid-round snapshot: the shards already visited this round are
        # exactly a prefix, so counts must be non-increasing in shard
        # order.
        for earlier, later in zip(access_counts, access_counts[1:]):
            if later > earlier:
                raise ConfigError(
                    f"shard access counts {list(access_counts)} are not a "
                    f"round prefix — shards are being visited out of order"
                )


def expected_interleaved_trace(
    geometries: Sequence[TreeGeometry],
    shard_leaves: Sequence[Sequence[int]],
    merging: bool = True,
) -> List[ClusterTraceEvent]:
    """The full cluster trace implied by the public label sequences.

    Rounds are laid out on the fixed schedule: round ``r`` contains
    shard 0's access ``r``, then shard 1's, ... Each shard's *final*
    access is omitted — its write set depends on the next scheduled
    label, which the adversary has not yet seen (the same trim
    :func:`~repro.security.adversary.verify_trace_matches_labels`
    applies).
    """
    if len(geometries) != len(shard_leaves):
        raise ConfigError(
            f"{len(geometries)} geometries for {len(shard_leaves)} label "
            f"sequences"
        )
    per_shard = [
        expected_slot_traces(geometry, flat_slots(leaves), merging)
        for geometry, leaves in zip(geometries, shard_leaves)
    ]
    rounds = min(len(slots) for slots in per_shard)
    trace: List[ClusterTraceEvent] = []
    for round_no in range(rounds - 1):
        for shard, slots in enumerate(per_shard):
            trace.extend(
                (shard, op, node_id) for op, node_id in slots[round_no]
            )
    return trace


def verify_interleaved_cluster_trace(
    geometries: Sequence[TreeGeometry],
    observed: Sequence[ClusterTraceEvent],
    shard_leaves: Sequence[Sequence[int]],
    merging: bool = True,
) -> int:
    """Raise unless the observed interleaved trace is exactly the
    public-label reconstruction; returns the number of events checked.

    ``observed`` is the :class:`InterleavedTraceRecorder` event list of
    a sequential (``dispatch="rr"``) cluster run. Verification covers
    every completed round except the last (final-access trim, see
    :func:`expected_interleaved_trace`) — an adversary who can predict
    that much of the trace from labels alone learns nothing else from
    watching the shards.
    """
    expected = expected_interleaved_trace(geometries, shard_leaves, merging)
    if len(observed) < len(expected):
        raise ConfigError(
            f"observed trace has {len(observed)} events, reconstruction "
            f"expects at least {len(expected)}"
        )
    position = first_divergence(expected, map(tuple, observed))
    if position is not None:
        want, got = expected[position], observed[position]
        raise ConfigError(
            f"interleaved trace diverges from label reconstruction "
            f"at event {position}: expected shard {want[0]} "
            f"{want[1].value} {want[2]}, observed shard {got[0]} "
            f"{got[1].value} {got[2]}"
        )
    return len(expected)


def shard_profile(
    geometry: TreeGeometry, records: Sequence[tuple]
) -> TraceProfile:
    """Adversary-observable per-shard summary from engine records.

    ``records`` is :attr:`ObliviousEngine.records` — ``(leaf, was_dummy,
    read_nodes, written_nodes)`` per access. The result plugs into the
    statistical two-trace harness
    (:mod:`repro.security.indistinguishability`): under cross-shard
    obliviousness, a shard's profile under skewed traffic must be
    indistinguishable from its profile under uniform traffic.
    """
    return TraceProfile(
        leaves=[record[0] for record in records],
        shapes=[(record[2], record[3]) for record in records],
        num_leaves=geometry.num_leaves,
    )


__all__ = [
    "ClusterTraceEvent",
    "InterleavedTraceRecorder",
    "verify_visit_schedule",
    "verify_shard_balance",
    "expected_interleaved_trace",
    "verify_interleaved_cluster_trace",
    "shard_profile",
]
