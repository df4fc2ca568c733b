"""Security obligations from DESIGN.md, tested end to end.

1. Label uniformity: every revealed label is uniform over leaves —
   for the baseline, for merging, and for the scheduled (reordered,
   dummy-padded) sequence.
2. Trace determinism: the adversary-visible bucket trace is a pure
   function of the public label sequence (the paper's §3.6 argument,
   executable).
3. Queue padding: the label queue presents a full window regardless of
   LLC intensity.
4. Stash pressure: merging does not increase effective stash occupancy
   (§3.6's overflow argument).
"""

from __future__ import annotations

import asyncio
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    PosmapConfig,
    ReplicaConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.core.controller import ForkPathController
from repro.errors import ConfigError, ReplicationError
from repro.oram.memory import MemoryOp, TraceEvent, TraceRecorder
from repro.oram.path_oram import PathOram
from repro.oram.tree import TreeGeometry
from repro.posmap.layout import PosmapLayout, PosmapLevel
from repro.replica.replicator import Replicator
from repro.replica.wal import WalRecord
from repro.security import (
    engine_chain_slots,
    expected_chain_trace,
    expected_interleaved_trace,
    verify_chain_trace,
    verify_engine_trace,
    verify_replication_stream,
)
from repro.security.adversary import (
    executed_leaves,
    expected_fork_trace,
    expected_slot_traces,
    split_trace_into_accesses,
    verify_trace_matches_labels,
)
from repro.serve.backends import InMemoryBackend
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.security.properties import (
    chi_square_uniformity,
    expected_pairwise_overlap,
    mean_pairwise_overlap,
)
from repro.workloads.synthetic import uniform_trace
from repro.workloads.trace import TraceSource


def run_controller(levels=8, queue=8, merging=True, scheduling=True, n=600,
                   gap=100.0, seed=2):
    config = SystemConfig(
        oram=small_test_config(levels),
        scheduler=SchedulerConfig(
            label_queue_size=queue,
            enable_merging=merging,
            enable_scheduling=scheduling,
            enable_dummy_replacing=merging,
        ),
        cache=CacheConfig(policy="none"),
    )
    trace = uniform_trace(n, 200, gap, random.Random(seed))
    controller = ForkPathController(
        config, TraceSource(trace), rng=random.Random(seed + 1)
    )
    metrics = controller.run()
    return controller, metrics


class TestLabelUniformity:
    def test_baseline_path_oram(self):
        oram = PathOram(small_test_config(7), rng=random.Random(1))
        rng = random.Random(2)
        for _ in range(1200):
            oram.write(rng.randrange(60), 0)
        p = chi_square_uniformity(oram.stats.leaf_sequence, oram.geometry.num_leaves)
        assert p > 0.001

    def test_fork_path_executed_labels(self):
        """The *executed* (scheduled + dummy-padded) label marginal must
        stay uniform: scheduling reorders but never biases values."""
        controller, metrics = run_controller(n=1500, gap=60.0)
        leaves = executed_leaves(metrics)
        p = chi_square_uniformity(leaves, controller.geometry.num_leaves)
        assert p > 0.001

    def test_scheduled_sequence_has_elevated_consecutive_overlap(self):
        """Sanity of the mechanism itself: scheduling *should* raise
        consecutive overlap above the iid baseline — that is the whole
        point, and it is public information."""
        controller, metrics = run_controller(n=1500, gap=60.0, queue=16)
        observed = mean_pairwise_overlap(
            executed_leaves(metrics), controller.geometry
        )
        iid = expected_pairwise_overlap(controller.geometry)
        assert observed > iid + 0.5

    def test_traditional_sequence_matches_iid_overlap(self):
        controller, metrics = run_controller(
            n=1500, gap=60.0, queue=1, merging=False, scheduling=False
        )
        observed = mean_pairwise_overlap(
            executed_leaves(metrics), controller.geometry
        )
        iid = expected_pairwise_overlap(controller.geometry)
        assert abs(observed - iid) < 0.35


class TestTraceDeterminism:
    def test_merged_trace_is_function_of_labels(self):
        controller, metrics = run_controller(n=400, gap=100.0)
        verify_trace_matches_labels(
            controller.geometry,
            controller.memory.trace.events,
            executed_leaves(metrics),
            merging=True,
        )

    def test_traditional_trace_is_function_of_labels(self):
        controller, metrics = run_controller(
            n=300, gap=100.0, queue=1, merging=False, scheduling=False
        )
        verify_trace_matches_labels(
            controller.geometry,
            controller.memory.trace.events,
            executed_leaves(metrics),
            merging=False,
        )

    def test_reconstruction_detects_tampering(self):
        controller, metrics = run_controller(n=200, gap=100.0)
        leaves = executed_leaves(metrics)
        # Corrupt one label: the reconstruction must not match.
        leaves[len(leaves) // 2] ^= 1
        with pytest.raises(ConfigError):
            verify_trace_matches_labels(
                controller.geometry,
                controller.memory.trace.events,
                leaves,
                merging=True,
            )

    def test_expected_trace_shape_for_fixed_labels(self):
        tree = TreeGeometry(3)
        trace = expected_fork_trace(tree, [1, 3], merging=True)
        # Access 0: full read of path-1; write below divergence(1,3)=2.
        reads0 = [node for op, node in trace[:4]]
        assert reads0 == tree.path_nodes(1)
        writes0 = [node for op, node in trace[4:6]]
        assert writes0 == [8, 3]  # leaf-first, stops above level 2
        # Access 1: read of path-3 minus shared prefix.
        assert trace[6] == (MemoryOp.READ, 4)
        assert trace[7] == (MemoryOp.READ, 10)

    def test_split_trace_into_accesses(self):
        controller, metrics = run_controller(n=150, gap=100.0)
        chunks = split_trace_into_accesses(
            controller.geometry, controller.memory.trace.events
        )
        # One chunk per access that touched DRAM in both phases.
        assert len(chunks) >= metrics.total_accesses * 0.9


class TestQueuePadding:
    def test_selection_window_is_constant(self):
        """At every scheduling decision the queue holds exactly its
        configured size — independent of pending real requests."""
        from repro.core.scheduling import LabelQueue

        sizes = []
        original = LabelQueue.select_next

        def spying(self, current_leaf, now_ns):
            self.top_up(now_ns)
            sizes.append(len(self.entries))
            return original(self, current_leaf, now_ns)

        LabelQueue.select_next = spying
        try:
            run_controller(n=120, gap=2000.0, queue=8)  # sparse
            run_controller(n=120, gap=20.0, queue=8)  # dense
        finally:
            LabelQueue.select_next = original
        assert sizes and all(size == 8 for size in sizes)


class TestStashPressure:
    def test_merging_effective_occupancy_close_to_baseline(self):
        """§3.6: merging parks retained-bucket blocks in the stash, but
        beyond that its stash pressure matches the baseline."""
        _, fork_metrics = run_controller(n=800, gap=60.0, queue=8)
        controller_fork, _ = run_controller(n=800, gap=60.0, queue=8)
        controller_trad, _ = run_controller(
            n=800, gap=60.0, queue=1, merging=False, scheduling=False
        )
        z = controller_fork.config.oram.bucket_slots
        path = controller_fork.geometry.levels + 1
        fork_max = controller_fork.stash.max_occupancy
        trad_max = controller_trad.stash.max_occupancy
        assert fork_max <= trad_max + z * path


# ------------------------------------------------------------------ goldens
#
# Known answers for the public-trace reconstruction on fixed seeded
# inputs. The inputs are synthetic (no engine run), so a golden moves
# only when the reconstruction rule or a verifier's verdict/error text
# moves — which a refactor of ``repro.security`` must not do.

GOLDEN_DATA = TreeGeometry(5)


def golden_layout(depth):
    """A hand-built recursion shape above the L=5 data tree."""
    trees = {1: [TreeGeometry(2)], 2: [TreeGeometry(3), TreeGeometry(1)]}[depth]
    levels, base = [], GOLDEN_DATA.num_nodes
    for index, tree in enumerate(trees, start=1):
        levels.append(
            PosmapLevel(index=index, entries=tree.num_leaves, geometry=tree,
                        node_base=base)
        )
        base += tree.num_nodes
    return PosmapLayout(
        num_blocks=64, labels_per_block=8, label_bytes=4,
        client_budget_bytes=16, levels=levels, root_entries=2,
    )


def golden_leaves(seed, count, geometry=GOLDEN_DATA):
    rng = random.Random(seed)
    return [rng.randrange(geometry.num_leaves) for _ in range(count)]


def golden_slots(layout, seed, count):
    """Per-slot ``(chain leaves deepest-first, data leaf)`` tuples."""
    rng = random.Random(seed)
    return [
        (
            tuple(
                rng.randrange(level.geometry.num_leaves)
                for level in reversed(layout.levels)
            ),
            rng.randrange(GOLDEN_DATA.num_leaves),
        )
        for _ in range(count)
    ]


def digest(trace):
    text = "\n".join(
        " ".join(str(getattr(part, "value", part)) for part in event)
        for event in trace
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observed_events(expected, unseen_fork_trim=2):
    """A bus trace as a recorder would hold it: the final refill stops
    at a fork with a successor the label list does not contain."""
    return [
        TraceEvent(op, node_id, float(index))
        for index, (op, node_id) in enumerate(expected[: len(expected) - unseen_fork_trim])
    ]


def refill(geometry, leaf, successor, base=0):
    """Reference write set, from first principles: path nodes leaf
    first, stopping above the prefix shared with the successor's path."""
    path = geometry.path_nodes(leaf)
    shared = 0
    if successor is not None:
        for own, other in zip(path, geometry.path_nodes(successor)):
            if own != other:
                break
            shared += 1
    return [base + node for node in reversed(path[shared:])]


def golden_wal(slots, layout=None, unseen_fork_trim=2):
    """WAL records of a clean run over ``slots``: one full-path refill
    per posmap level (deepest first), then the data refill down to the
    fork with the next data leaf."""
    records = []
    for index, (chain, leaf) in enumerate(slots):
        levels = reversed(layout.levels) if layout is not None else ()
        for level, level_leaf in zip(levels, chain):
            records.append(
                (level_leaf, refill(level.geometry, level_leaf, None, level.node_base))
            )
        last = index + 1 == len(slots)
        nodes = refill(GOLDEN_DATA, leaf, None if last else slots[index + 1][1])
        records.append((leaf, nodes[: len(nodes) - unseen_fork_trim] if last else nodes))
    return [
        WalRecord(
            seq=seq,
            leaf=leaf,
            writes=[(node, b"sealed-%d-%d" % (seq, node)) for node in nodes],
        )
        for seq, (leaf, nodes) in enumerate(records, start=1)
    ]


def wal_image(records):
    return {node: sealed for record in records for node, sealed in record.writes}


def verdict(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except (ConfigError, ReplicationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


class TestReconstructionGoldens:
    def test_expected_fork_trace(self):
        leaves = golden_leaves(7, 40)
        merged = expected_fork_trace(GOLDEN_DATA, leaves, merging=True)
        plain = expected_fork_trace(GOLDEN_DATA, leaves, merging=False)
        assert (len(merged), digest(merged)) == (338, "781cdb72a8c83121")
        assert (len(plain), digest(plain)) == (480, "0441b94e322bc707")

    @pytest.mark.parametrize(
        "depth, length, sha",
        [(1, 434, "84c26a01ccfb4613"), (2, 594, "8a29c8890a159521")],
    )
    def test_expected_chain_trace(self, depth, length, sha):
        layout = golden_layout(depth)
        trace = expected_chain_trace(
            layout, GOLDEN_DATA, golden_slots(layout, 11 + depth, 30)
        )
        assert (len(trace), digest(trace)) == (length, sha)

    def test_expected_interleaved_trace(self):
        geometries = [TreeGeometry(4), TreeGeometry(5), TreeGeometry(4)]
        shard_leaves = [
            golden_leaves(20 + shard, 12 + shard, geometry)
            for shard, geometry in enumerate(geometries)
        ]
        trace = expected_interleaved_trace(geometries, shard_leaves)
        assert (len(trace), digest(trace)) == (231, "2fe20ba7e1449bd2")

    def test_flat_trace_verdicts(self):
        leaves = golden_leaves(7, 40)
        events = observed_events(expected_fork_trace(GOLDEN_DATA, leaves))

        def check(events, leaves=leaves):
            return verdict(verify_trace_matches_labels, GOLDEN_DATA, events, leaves)

        assert check(events) == "accepted"
        swapped = list(events)
        swapped[100], swapped[101] = swapped[101], swapped[100]
        assert check(swapped) == (
            "ConfigError: trace diverges from label reconstruction at event 100: expected write 57, observed write 28"
        )
        assert check(events[:100] + events[101:]) == (
            "ConfigError: trace diverges from label reconstruction at event 100: expected write 57, observed write 28"
        )
        assert check(events, leaves[:20] + [leaves[20] ^ 1] + leaves[21:]) == (
            "ConfigError: trace diverges from label reconstruction at event 167: expected read 33, observed read 34"
        )
        assert check(events, []) == (
            "ConfigError: need at least one executed access"
        )
        # Added with the single comparison loop: the flat verifier now
        # rejects trailing events, as the chain verifier always did.
        full = observed_events(
            expected_fork_trace(GOLDEN_DATA, leaves), unseen_fork_trim=0
        )
        assert check(full + [TraceEvent(MemoryOp.READ, 0, 0.0)]) == (
            "ConfigError: trace has 1 events beyond the label reconstruction"
        )

    def test_chain_trace_verdicts(self):
        layout = golden_layout(2)
        slots = golden_slots(layout, 13, 30)
        events = observed_events(expected_chain_trace(layout, GOLDEN_DATA, slots))

        def check(events, slots=slots):
            return verdict(verify_chain_trace, layout, GOLDEN_DATA, events, slots)

        assert check(events) == "accepted"
        swapped = list(events)
        swapped[200], swapped[201] = swapped[201], swapped[200]
        assert check(swapped) == (
            "ConfigError: trace diverges from chain reconstruction at event 200: expected write 68, observed write 65"
        )
        assert check(events[:200] + events[201:]) == (
            "ConfigError: trace diverges from chain reconstruction at event 200: expected write 68, observed write 65"
        )
        full = observed_events(
            expected_chain_trace(layout, GOLDEN_DATA, slots), unseen_fork_trim=0
        )
        assert check(full + [TraceEvent(MemoryOp.READ, 0, 0.0)]) == (
            "ConfigError: trace has 1 events beyond the chain reconstruction"
        )
        assert check(events, [((slots[0][0][0],), slots[0][1])] + slots[1:]) == (
            "ConfigError: slot 0 has 1 chain leaves, layout depth is 2"
        )
        assert check(events, []) == (
            "ConfigError: need at least one executed slot"
        )

    def test_flat_replication_verdicts(self):
        slots = [((), leaf) for leaf in golden_leaves(7, 12)]
        records = golden_wal(slots)
        image = wal_image(records)

        def check(records, backend=image):
            return verdict(
                verify_replication_stream, GOLDEN_DATA, records, backend=backend
            )

        assert check(records) == "accepted"
        truncated = list(records)
        truncated[4] = WalRecord(seq=5, leaf=records[4].leaf,
                                 writes=records[4].writes[:-1])
        assert check(truncated, None) == (
            "ReplicationError: WAL record seq 5 (leaf 4) is not the public refill of its access: expected writes [35, 17], logged [35]"
        )
        node = records[3].writes[0][0]
        assert check(records, {**image, node: b"other"}) == (
            "ReplicationError: backend bucket 34 differs from the WAL's final write for that node (last-writer-wins replay mismatch)"
        )
        assert check(records, {k: v for k, v in image.items() if k != node}) == (
            "ReplicationError: backend bucket 34 differs from the WAL's final write for that node (last-writer-wins replay mismatch)"
        )
        assert check(records, {**image, 999_999: b"unlogged"}) == (
            "ReplicationError: backend holds buckets the WAL never wrote (unlogged, unrecoverable writes): nodes [999999]"
        )

    def test_chain_replication_verdicts(self):
        layout = golden_layout(2)
        records = golden_wal(golden_slots(layout, 13, 12), layout)
        image = wal_image(records)

        def check(records, backend=image):
            return verdict(
                verify_replication_stream, GOLDEN_DATA, records,
                backend=backend, layout=layout,
            )

        assert check(records) == "accepted"
        posmap_cut, data_cut = list(records), list(records)
        posmap_cut[3] = WalRecord(seq=4, leaf=records[3].leaf,
                                  writes=records[3].writes[:-1])
        assert check(posmap_cut, None) == (
            "ReplicationError: WAL record seq 4 (posmap level 2, leaf 0) is not a full-path refill: expected [79, 78], logged [79]"
        )
        data_cut[5] = WalRecord(seq=6, leaf=records[5].leaf,
                                writes=records[5].writes[:-1])
        assert check(data_cut, None) == (
            "ReplicationError: WAL record seq 6 (data leaf 14) is not the public refill of its access: expected writes [45, 22, 10, 4], logged [45, 22, 10]"
        )
        node = records[3].writes[0][0]
        assert check(records, {**image, node: b"other"}) == (
            "ReplicationError: backend bucket 79 differs from the WAL's final write for that node (last-writer-wins replay mismatch)"
        )
        assert check(records, {**image, 999_999: b"unlogged"}) == (
            "ReplicationError: backend holds buckets the WAL never wrote (unlogged, unrecoverable writes): nodes [999999]"
        )


# ------------------------------------------------------------ engine traces


def engine_run(mode, seed=5, queue=8, merging=True, puts=14, replica_dir=None):
    """A clean ``ObliviousEngine`` run over a recording backend:
    ``mode`` is ``flat`` or the recursion depth (1 or 2)."""
    posmap = {
        "flat": PosmapConfig(),
        1: PosmapConfig(mode="recursive", client_budget_bytes=128,
                        labels_per_block=8),
        2: PosmapConfig(mode="recursive", client_budget_bytes=32,
                        labels_per_block=8),
    }[mode]
    config = SystemConfig(
        oram=small_test_config(6, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=queue, enable_merging=merging),
        cache=CacheConfig(policy="none"),
        posmap=posmap,
        replica=ReplicaConfig(enabled=True, dir=str(replica_dir))
        if replica_dir is not None
        else ReplicaConfig(),
        seed=seed,
    )
    recorder = TraceRecorder()
    engine = ObliviousEngine(
        config,
        InMemoryBackend(trace=recorder),
        replicator=Replicator(config.replica) if replica_dir is not None else None,
    )
    assert (engine.posmap.depth if mode != "flat" else "flat") == mode
    rng = random.Random(seed)

    async def scenario():
        for index in range(puts):
            request = ServeRequest(
                op="put", addr=rng.randrange(100), value=f"v{index}"
            )
            assert engine.submit(request)
            while engine.has_pending_real():
                await engine.run_access()
        for _ in range(3):  # idle slots: dummy chains, dummy paths
            await engine.run_access()

    asyncio.run(scenario())
    return engine, recorder.events


def engine_layout(engine):
    return engine.posmap.layout if engine.posmap.requires_chain else None


MODES = ["flat", 1, 2]


@pytest.fixture(scope="module", params=MODES, ids=["flat", "depth1", "depth2"])
def clean_run(request, tmp_path_factory):
    engine, events = engine_run(
        request.param, replica_dir=tmp_path_factory.mktemp("replica")
    )
    events = list(events)  # reading the image below is itself traced
    records = list(engine.replicator.wal.read_from(1))
    image = {node: engine.store.backend.get(node) for node in engine.store.backend}
    yield engine, events, records, image
    engine.close()


def first_posmap_event(engine, events):
    """Index of the first write into a posmap level's node range."""
    data_nodes = engine.geometry.num_nodes
    return next(
        index for index, event in enumerate(events)
        if event.op is MemoryOp.WRITE and event.node_id >= data_nodes
    )


class TestTamperMatrix:
    """Every way of doctoring the public record is rejected by the one
    verifier — flat, depth 1 and depth 2 — with the event or seq named."""

    def check_trace(self, run, events):
        engine = run[0]
        return verdict(verify_engine_trace, engine, events)

    def check_wal(self, run, records, backend=None):
        engine = run[0]
        return verdict(
            verify_replication_stream, engine.geometry, records,
            merging=engine.fork.enabled, backend=backend,
            layout=engine_layout(engine),
        )

    def test_clean_run_is_accepted(self, clean_run):
        engine, events, records, image = clean_run
        assert verify_engine_trace(engine, events) == len(engine.records)
        assert self.check_wal(clean_run, records, image) == "accepted"

    def test_adjacent_swap(self, clean_run):
        events = list(clean_run[1])
        middle = len(events) // 2
        events[middle], events[middle + 1] = events[middle + 1], events[middle]
        assert f"at event {middle}:" in self.check_trace(clean_run, events)

    def test_dropped_event(self, clean_run):
        events = list(clean_run[1])
        middle = len(events) // 2
        del events[middle]
        assert f"at event {middle}:" in self.check_trace(clean_run, events)

    def test_appended_trailing_event(self, clean_run):
        engine, events = clean_run[0], list(clean_run[1])
        # Pad to the full reconstruction (the unseen-fork tail), then
        # one event more: nothing may follow the last slot.
        expected = expected_chain_trace(
            engine_layout(engine), engine.geometry,
            engine_chain_slots(engine), engine.fork.enabled,
        )
        events += [
            TraceEvent(op, node, 0.0) for op, node in expected[len(events):]
        ]
        assert self.check_trace(clean_run, events) == "accepted"
        events.append(TraceEvent(MemoryOp.READ, 0, 0.0))
        assert "1 events beyond" in self.check_trace(clean_run, events)

    def test_posmap_write_relocated_into_the_data_range(self, clean_run):
        engine, events, records, _image = clean_run
        if not engine.posmap.requires_chain:
            pytest.skip("a flat shard has no posmap writes")
        at = first_posmap_event(engine, events)
        moved = list(events)
        moved[at] = TraceEvent(MemoryOp.WRITE, 0, moved[at].time_ns)
        assert f"at event {at}:" in self.check_trace(clean_run, moved)
        # Same forgery in the WAL: the record now classifies as a data
        # record and is not the refill of any data access.
        index = next(
            i for i, record in enumerate(records)
            if record.writes
            and record.writes[0][0] >= engine.geometry.num_nodes
        )
        victim = records[index]
        forged = list(records)
        forged[index] = WalRecord(
            seq=victim.seq, leaf=victim.leaf,
            writes=[(0, victim.writes[0][1])] + victim.writes[1:],
        )
        assert f"WAL record seq {victim.seq} " in self.check_wal(clean_run, forged)

    def test_wal_write_set_truncated_mid_record(self, clean_run):
        records = clean_run[2]
        index = next(
            i for i, record in enumerate(records[:-1]) if len(record.writes) > 1
        )
        victim = records[index]
        cut = list(records)
        cut[index] = WalRecord(
            seq=victim.seq, leaf=victim.leaf, writes=victim.writes[:-1]
        )
        assert f"WAL record seq {victim.seq} " in self.check_wal(clean_run, cut)

    def test_backend_bucket_differs_from_or_misses_the_wal_image(self, clean_run):
        _engine, _events, records, image = clean_run
        node = next(r for r in records[len(records) // 2:] if r.writes).writes[0][0]
        differs = self.check_wal(clean_run, records, {**image, node: b"other"})
        assert f"backend bucket {node} differs" in differs
        missing = {k: v for k, v in image.items() if k != node}
        assert f"backend bucket {node} differs" in self.check_wal(
            clean_run, records, missing
        )
        unlogged = self.check_wal(clean_run, records, {**image, 999_999: b"x"})
        assert "nodes [999999]" in unlogged


def assert_trace_is_the_concatenated_chunks(observed, slot_traces):
    """Every slot but the last matches event for event; the last (its
    refill stops at a fork the labels do not show) is a prefix."""
    settled = [event for events in slot_traces[:-1] for event in events]
    observed = [(event.op, event.node_id) for event in observed]
    assert observed[: len(settled)] == settled
    tail = observed[len(settled):]
    assert tail == slot_traces[-1][: len(tail)]


class TestRecordedTraceProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        queue=st.integers(1, 12),
        merging=st.booleans(),
    )
    def test_controller_trace_is_the_concatenated_chunks(self, seed, queue, merging):
        controller, metrics = run_controller(
            levels=6, queue=queue, merging=merging, n=60, seed=seed
        )
        leaves = executed_leaves(metrics)
        events = controller.memory.trace.events
        verify_trace_matches_labels(controller.geometry, events, leaves, merging)
        assert_trace_is_the_concatenated_chunks(
            events,
            expected_slot_traces(
                controller.geometry, [((), leaf) for leaf in leaves], merging
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 10_000),
        queue=st.integers(1, 12),
        merging=st.booleans(),
    )
    def test_engine_trace_is_the_concatenated_chunks(self, mode, seed, queue, merging):
        engine, events = engine_run(mode, seed, queue, merging, puts=8)
        assert verify_engine_trace(engine, events) == len(engine.records)
        assert_trace_is_the_concatenated_chunks(
            events,
            expected_slot_traces(
                engine.geometry, engine_chain_slots(engine), merging,
                engine_layout(engine),
            ),
        )
        engine.close()
