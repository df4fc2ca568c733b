"""Reconstructing what the adversary sees — and proving it is public.

The paper's security argument (Section 3.6) is that every Fork Path
modification is a deterministic function of the *label sequence*, which
the adversary observes anyway. :func:`access_chunks` is that sentence
as code — the one place the rule is written:

    access ``i`` reads path-``l_i`` below the prefix it shares with
    ``l_{i-1}`` (root side first) and refills it, leaf first, down to
    the prefix it shares with ``l_{i+1}``.

Everything else the adversary can observe is derived from it. A
recursive position-map level (``posmap.mode=recursive``) is plain Path
ORAM on its own node-id range: the same function with ``merging=False``
and ``node_base=level.node_base``. An engine *slot* is its posmap
levels' chunks, deepest level first, followed by the data tree's chunk
(:func:`expected_slot_traces`; a flat run is depth 0). The bus trace is
the concatenation of the slots (:func:`expected_fork_trace`,
:func:`expected_chain_trace`); a WAL record's write set is the
``writes`` half of its chunk
(:func:`repro.security.replication.verify_replication_stream`); the
cluster trace lays each shard's slots on the round schedule
(:func:`repro.security.cluster.expected_interleaved_trace`).

The verifiers assert a recorded :class:`~repro.oram.memory.TraceRecorder`
equals the reconstruction — i.e. nothing beyond the labels leaks.
:func:`verify_engine_trace` is the engine-facing entry: it reads the
labels, the recursion layout and the merging flag off the engine, so
callers never choose between the flat and the chain form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.core.metrics import ControllerMetrics
from repro.errors import ConfigError
from repro.oram.memory import MemoryOp, TraceEvent
from repro.oram.tree import TreeGeometry

if TYPE_CHECKING:
    from repro.posmap.layout import PosmapLayout

#: One adversary-visible bus event.
BusEvent = Tuple[MemoryOp, int]

#: One slot of public labels: the per-level chain leaves (deepest
#: posmap level first; empty for a flat position map) and the
#: data-tree leaf.
ChainSlot = Tuple[Tuple[int, ...], int]


def executed_leaves(metrics: ControllerMetrics) -> List[int]:
    """The public label sequence: one leaf per executed path access."""
    return [record.leaf for record in metrics.records]


def access_chunks(
    geometry: TreeGeometry,
    leaves: Sequence[int],
    merging: bool = True,
    node_base: int = 0,
) -> List[Tuple[List[int], List[int]]]:
    """Per-access ``(reads, writes)`` node ids from the labels alone.

    With merging off (or at either end of the sequence) the fork level
    is 0: the whole path is read root first and written back leaf
    first. The last access's refill really stops at a fork with a
    successor the sequence does not contain; it is reconstructed as a
    full path and the verifiers tolerate the shorter observed tail.

    This matches a controller with no on-chip data cache; caching
    removes bus events but only as a function of the same public
    sequence plus the (public) cache geometry.
    """
    forks = [0] * (len(leaves) + 1)
    if merging:
        for index in range(1, len(leaves)):
            forks[index] = geometry.divergence_level(
                leaves[index - 1], leaves[index]
            )
    chunks = []
    for index, leaf in enumerate(leaves):
        path = [node_base + node for node in geometry.path_nodes(leaf)]
        chunks.append((path[forks[index]:], path[forks[index + 1]:][::-1]))
    return chunks


def expected_slot_traces(
    geometry: TreeGeometry,
    slots: Sequence[ChainSlot],
    merging: bool = True,
    layout: Optional["PosmapLayout"] = None,
) -> List[List[BusEvent]]:
    """The bus events of each slot: every posmap level's full-path
    access (deepest first, never merged: consecutive accesses on a
    level tree are independent uniform draws), then the data tree's
    fork-path access against the data-leaf subsequence."""
    levels = list(reversed(layout.levels)) if layout is not None else []
    for index, (chain, _leaf) in enumerate(slots):
        if len(chain) != len(levels):
            raise ConfigError(
                f"slot {index} has {len(chain)} chain leaves, layout "
                f"depth is {len(levels)}"
            )
    columns = [
        access_chunks(
            level.geometry,
            [chain[rank] for chain, _leaf in slots],
            merging=False,
            node_base=level.node_base,
        )
        for rank, level in enumerate(levels)
    ]
    columns.append(
        access_chunks(geometry, [leaf for _chain, leaf in slots], merging)
    )
    traces = []
    for row in zip(*columns):
        events: List[BusEvent] = []
        for reads, writes in row:
            events += [(MemoryOp.READ, node_id) for node_id in reads]
            events += [(MemoryOp.WRITE, node_id) for node_id in writes]
        traces.append(events)
    return traces


def flat_slots(leaves: Sequence[int]) -> List[ChainSlot]:
    """A flat run as depth-0 slots."""
    return [((), leaf) for leaf in leaves]


def expected_chain_trace(
    layout: Optional["PosmapLayout"],
    geometry: TreeGeometry,
    slots: Sequence[ChainSlot],
    merging: bool = True,
) -> List[BusEvent]:
    """Recompute the full bus trace from the per-slot label tuples."""
    slot_traces = expected_slot_traces(geometry, slots, merging, layout)
    return [event for events in slot_traces for event in events]


def expected_fork_trace(
    geometry: TreeGeometry,
    leaves: Sequence[int],
    merging: bool = True,
) -> List[BusEvent]:
    """Recompute the full bus trace from the label sequence alone."""
    return expected_chain_trace(None, geometry, flat_slots(leaves), merging)


def split_trace_into_accesses(
    geometry: TreeGeometry, events: Sequence[TraceEvent]
) -> List[List[TraceEvent]]:
    """Group bus events into per-access chunks.

    An access is a maximal run of reads followed by a run of writes;
    the next read after a write starts a new access. (Write-buffer
    drains can interleave writes among reads — callers using exact
    comparison should disable caching, as the security tests do.)
    """
    accesses: List[List[TraceEvent]] = []
    current: List[TraceEvent] = []
    in_write_phase = False
    for event in events:
        if event.op is MemoryOp.READ and in_write_phase:
            accesses.append(current)
            current = []
            in_write_phase = False
        if event.op is MemoryOp.WRITE:
            in_write_phase = True
        current.append(event)
    if current:
        accesses.append(current)
    return accesses


def first_divergence(expected: Iterable, observed: Iterable) -> Optional[int]:
    """The one comparison loop: the first position, within the common
    length, where two event sequences differ (None = none does)."""
    for position, (want, got) in enumerate(zip(expected, observed)):
        if want != got:
            return position
    return None


def verify_chain_trace(
    layout: Optional["PosmapLayout"],
    geometry: TreeGeometry,
    events: Sequence[TraceEvent],
    slots: Sequence[ChainSlot],
    merging: bool = True,
) -> None:
    """Raise unless the observed trace equals the slot reconstruction.

    The final slot's data refill depends on a successor label the
    verifier has not seen, so a divergence inside that last write tail
    is tolerated; everything before it must match event for event, and
    the observed trace may not run past the reconstruction.
    """
    unit, what = ("access", "label") if layout is None else ("slot", "chain")
    if not slots:
        raise ConfigError(f"need at least one executed {unit}")
    expected = expected_chain_trace(layout, geometry, slots, merging)
    observed = [(event.op, event.node_id) for event in events]
    position = first_divergence(expected, observed)
    if position is not None:
        exp_op, exp_node = expected[position]
        obs_op, obs_node = observed[position]
        # The reconstruction assumes the last refill wrote a full
        # path; the real controller stopped at a fork we cannot see.
        in_tail = (
            exp_op is MemoryOp.WRITE
            and obs_node in geometry.path_nodes(slots[-1][1])
            and position
            >= min(len(expected), len(observed)) - (geometry.levels + 1)
        )
        if not in_tail:
            raise ConfigError(
                f"trace diverges from {what} reconstruction at event "
                f"{position}: expected {exp_op.value} {exp_node}, "
                f"observed {obs_op.value} {obs_node}"
            )
    if len(observed) > len(expected):
        raise ConfigError(
            f"trace has {len(observed) - len(expected)} events beyond "
            f"the {what} reconstruction"
        )


def verify_trace_matches_labels(
    geometry: TreeGeometry,
    events: Sequence[TraceEvent],
    leaves: Sequence[int],
    merging: bool = True,
) -> None:
    """:func:`verify_chain_trace` for a flat label sequence."""
    verify_chain_trace(None, geometry, events, flat_slots(leaves), merging)


def engine_chain_slots(engine) -> List[ChainSlot]:
    """An engine's public per-slot labels, from its own records.

    Valid for clean runs (no failed accesses): each successful slot
    appends exactly one data record and, in recursive mode, exactly
    one chain tuple, in order.
    """
    data = [record[0] for record in engine.records]
    if not engine.posmap.requires_chain:
        return flat_slots(data)
    chains = list(engine.posmap.chain_records)
    if len(chains) != len(data):
        raise ConfigError(
            f"chain/data record mismatch ({len(chains)} chains, "
            f"{len(data)} data accesses) — the run saw failed accesses; "
            f"chain verification needs a clean trace"
        )
    return list(zip(chains, data))


def verify_engine_trace(engine, events: Sequence[TraceEvent]) -> int:
    """Raise unless ``events`` — the engine's backend trace since it
    was built — is the reconstruction from the engine's own public
    records; returns the number of accesses verified.

    Flat or recursive, merging on or off: all read off the engine.
    """
    retained = len(engine.records)
    if engine.accesses > retained:
        raise ConfigError(
            f"record window overflowed ({engine.accesses} accesses, "
            f"{retained} retained); verify earlier in the run"
        )
    slots = engine_chain_slots(engine)
    if not slots and not events:
        return 0
    posmap = engine.posmap
    verify_chain_trace(
        posmap.layout if posmap.requires_chain else None,
        engine.geometry,
        events,
        slots,
        engine.fork.enabled,
    )
    return len(slots)
