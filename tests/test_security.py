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

import hashlib
import random

import pytest

from repro.config import (
    CacheConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.core.controller import ForkPathController
from repro.errors import ConfigError, ReplicationError
from repro.oram.memory import MemoryOp, TraceEvent
from repro.oram.path_oram import PathOram
from repro.oram.tree import TreeGeometry
from repro.posmap.layout import PosmapLayout, PosmapLevel
from repro.replica.wal import WalRecord
from repro.security import (
    expected_chain_trace,
    expected_interleaved_trace,
    verify_chain_replication_stream,
    verify_chain_trace,
    verify_replication_stream,
)
from repro.security.adversary import (
    executed_leaves,
    expected_fork_trace,
    split_trace_into_accesses,
    verify_trace_matches_labels,
)
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
                verify_chain_replication_stream, layout, GOLDEN_DATA, records,
                backend=backend,
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
