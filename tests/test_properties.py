"""Deeper property-based tests across subsystem boundaries.

These complement the per-module hypothesis tests: each property here
spans at least two subsystems (layout x geometry, controller x oracle,
scheduling x merging) and encodes an invariant DESIGN.md calls out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    DramConfig,
    OramConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.core.controller import ForkPathController
from repro.dram.layout import FlatLayout, SubtreeLayout
from repro.oram.recursion import RecursiveOram
from repro.config import RecursionConfig
from repro.oram.tree import TreeGeometry
from repro.workloads.trace import TraceSource, make_trace


@settings(max_examples=60, deadline=None)
@given(
    levels=st.integers(2, 14),
    layout_kind=st.sampled_from(["subtree", "flat"]),
    channels=st.sampled_from([1, 2, 4]),
    sample=st.integers(0, 10_000),
)
def test_layouts_are_injective(levels, layout_kind, channels, sample):
    """No two buckets may share a physical location."""
    geometry = TreeGeometry(levels)
    config = DramConfig(channels=channels, layout=layout_kind)
    layout_cls = SubtreeLayout if layout_kind == "subtree" else FlatLayout
    layout = layout_cls(geometry, config, 256)
    rng = random.Random(sample)
    nodes = [rng.randrange(geometry.num_nodes) for _ in range(200)]
    seen = {}
    for node in nodes:
        location = layout.locate(node)
        key = (location.channel, location.bank, location.row, location.col_byte)
        if key in seen:
            assert seen[key] == node
        seen[key] = node


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1_000_000),
    queue=st.sampled_from([1, 4, 8]),
    levels=st.integers(5, 9),
)
def test_controller_vs_oracle_any_config(seed, queue, levels):
    """The timed controller and the functional oracle agree on every
    returned value, for any tree size / queue size / seed."""
    from repro.oram.path_oram import PathOram

    rng = random.Random(seed)
    footprint = min(60, OramConfig(levels=levels, block_bytes=16).num_blocks)
    events = []
    t = 0.0
    for _ in range(120):
        t += 140.0
        events.append((t, rng.randrange(footprint), rng.random() < 0.5))

    oracle = PathOram(small_test_config(levels), rng=random.Random(1))
    expected = []
    for arrival, addr, is_write in events:
        if is_write:
            oracle.write(addr, f"w:{addr}:{arrival}")
        else:
            expected.append(oracle.read(addr))

    trace = make_trace(events, payload_for_writes=False)
    # Re-apply oracle-compatible payloads so values are comparable.
    ordinal = 0
    for request, (arrival, addr, is_write) in zip(trace, events):
        if is_write:
            request.payload = f"w:{addr}:{arrival}"
    config = SystemConfig(
        oram=small_test_config(levels),
        scheduler=SchedulerConfig(label_queue_size=queue),
        cache=CacheConfig(policy="none"),
        seed=seed,
    )
    source = TraceSource(trace)
    ForkPathController(config, source, rng=random.Random(seed)).run()
    got = [
        request.value
        for request in sorted(source.completed, key=lambda r: r.arrival_ns)
        if not request.is_write
    ]
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), labels_per_block=st.sampled_from([4, 8, 16]))
def test_recursive_oram_matches_dict(seed, labels_per_block):
    oram = RecursiveOram(
        small_test_config(8),
        RecursionConfig(
            enabled=True,
            labels_per_block=labels_per_block,
            onchip_posmap_bytes=128,
        ),
        rng=random.Random(seed),
    )
    rng = random.Random(seed + 1)
    shadow: dict[int, int] = {}
    for step in range(150):
        addr = rng.randrange(100)
        if rng.random() < 0.5:
            shadow[addr] = step
            oram.write(addr, step)
        else:
            assert oram.read(addr) == shadow.get(addr)


@settings(max_examples=40, deadline=None)
@given(
    levels=st.integers(1, 12),
    current=st.integers(0, 4095),
    sequence=st.lists(st.integers(0, 4095), min_size=1, max_size=20),
)
def test_fork_traffic_conservation(levels, current, sequence):
    """Across any access sequence: every bucket read was previously
    written (or never touched), level by level — merging never reads a
    bucket it still holds."""
    from repro.core.merging import ForkState

    tree = TreeGeometry(levels)
    fork = ForkState(tree)
    held: set[int] = set()
    sequence = [leaf % tree.num_leaves for leaf in sequence]
    for index, leaf in enumerate(sequence):
        read = fork.read_set(leaf)
        assert not (set(read) & held), "read a bucket still held on chip"
        held |= set(read)
        next_leaf = sequence[index + 1] if index + 1 < len(sequence) else leaf
        retain = fork.retain_depth(leaf, next_leaf)
        for level in fork.write_levels(leaf, retain):
            node = tree.path_node_at(leaf, level)
            assert node in held, "wrote a bucket not held on chip"
            held.discard(node)
        fork.commit_write(leaf, retain)
        assert set(fork.resident) == held


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dummy_padding_invariant_under_any_load(seed):
    """At every selection the queue length equals its configured size,
    whatever the arrival pattern."""
    from repro.core.scheduling import LabelQueue
    from repro.core.requests import LabelEntry, LlcRequest

    geometry = TreeGeometry(6)
    config = SchedulerConfig(label_queue_size=6)
    queue = LabelQueue(geometry, config, random.Random(seed))
    rng = random.Random(seed + 1)
    current = 0
    for _ in range(50):
        queue.top_up(0.0)
        if rng.random() < 0.5 and queue.has_room_for_real():
            request = LlcRequest(addr=rng.randrange(64), is_write=False)
            queue.insert_real(
                LabelEntry(
                    leaf=rng.randrange(64),
                    target_addr=request.addr,
                    new_leaf=0,
                    request=request,
                )
            )
        queue.top_up(0.0)
        assert len(queue) == 6
        chosen = queue.select_next(current, 0.0)
        current = chosen.leaf
