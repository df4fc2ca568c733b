"""Functional hierarchical (recursive) Path ORAM."""

from __future__ import annotations

import random

import pytest

from repro.config import RecursionConfig, small_test_config
from repro.errors import ProtocolError
from repro.oram.posmap import empty_labels, read_label
from repro.oram.recursion import RecursiveOram


def make_oram(levels: int = 8, labels_per_block: int = 4,
              onchip_bytes: int = 64) -> RecursiveOram:
    return RecursiveOram(
        small_test_config(levels),
        RecursionConfig(
            enabled=True,
            labels_per_block=labels_per_block,
            onchip_posmap_bytes=onchip_bytes,
        ),
        rng=random.Random(3),
    )


class TestFunctional:
    def test_read_your_writes(self):
        oram = make_oram()
        oram.write(7, "v")
        assert oram.read(7) == "v"

    def test_many_addresses(self):
        oram = make_oram()
        for addr in range(0, 200, 7):
            oram.write(addr, addr * 3)
        for addr in range(0, 200, 7):
            assert oram.read(addr) == addr * 3

    def test_unwritten_reads_none(self):
        assert make_oram().read(5) is None

    def test_random_workload_matches_dict(self):
        oram = make_oram()
        rng = random.Random(17)
        shadow: dict[int, int] = {}
        for step in range(500):
            addr = rng.randrange(250)
            if rng.random() < 0.5:
                shadow[addr] = step
                oram.write(addr, step)
            else:
                assert oram.read(addr) == shadow.get(addr)

    def test_address_bounds(self):
        oram = make_oram()
        with pytest.raises(ProtocolError):
            oram.read(oram.space.num_data_blocks)


class TestHierarchyMechanics:
    def test_recursion_depth_positive(self):
        oram = make_oram()
        assert oram.space.depth >= 2

    def test_each_request_walks_the_chain(self):
        oram = make_oram()
        oram.write(1, "v")
        # chain elements either hit the stash or cost one access each.
        expected = oram.space.accesses_per_request()
        assert oram.stats.oram_accesses + oram.stats.stash_hits == expected
        assert oram.stats.requests == 1

    def test_posmap_blocks_live_in_the_same_tree(self):
        """Unified address space: PosMap blocks are ordinary blocks of
        the one tree (Figure 2b)."""
        oram = make_oram()
        for addr in range(0, 40, 3):
            oram.write(addr, addr)
        posmap_blocks = [
            block
            for block in oram.stash.blocks()
            if oram.space.is_posmap_addr(block.addr)
        ]
        tree_posmap = 0
        for node in oram.memory.materialised_nodes():
            for block in oram.memory.peek_bucket(node):
                if oram.space.is_posmap_addr(block.addr):
                    tree_posmap += 1
        assert posmap_blocks or tree_posmap

    def test_posmap_payloads_hold_child_labels(self):
        oram = make_oram()
        oram.write(1, "v")
        found_label_map = False
        candidates = list(oram.stash.blocks())
        for node in oram.memory.materialised_nodes():
            candidates.extend(oram.memory.peek_bucket(node))
        for block in candidates:
            if oram.space.is_posmap_addr(block.addr) and block.payload:
                recursion = oram.recursion
                assert len(block.payload) == len(
                    empty_labels(recursion.labels_per_block, recursion.label_bytes)
                )
                labels = [
                    read_label(block.payload, slot, recursion.label_bytes)
                    for slot in range(recursion.labels_per_block)
                ]
                assigned = [label for label in labels if label is not None]
                assert assigned
                for label in assigned:
                    assert 0 <= label < oram.geometry.num_leaves
                found_label_map = True
        assert found_label_map

    def test_leaf_sequence_grows_with_accesses(self):
        oram = make_oram()
        for addr in range(10):
            oram.write(addr, addr)
        assert len(oram.stats.leaf_sequence) == oram.stats.oram_accesses

    def test_accesses_per_request_reported(self):
        oram = make_oram()
        for addr in range(30):
            oram.write(addr, addr)
        assert oram.stats.accesses_per_request == pytest.approx(
            oram.space.accesses_per_request()
        )

    def test_stash_resident_chain_element_skips_path_access(self):
        """Move the data block from its tree bucket into the stash (a
        state the protocol itself can reach); the next request's data
        element must then hit the stash instead of walking a path."""
        # Depth-0 layout isolates the data element: no PosMap chain
        # accesses can evict the staged block before it is looked up.
        oram = make_oram(onchip_bytes=1 << 20)
        assert oram.space.depth == 0
        oram.write(1, "v")
        if oram.stash.get(1) is None:
            for node in oram.memory.materialised_nodes():
                bucket = oram.memory.peek_bucket(node)
                block = bucket.find(1)
                if block is not None:
                    bucket.blocks.remove(block)
                    oram.memory.write_bucket(node, bucket)
                    oram.stash.add(block)
                    break
        assert oram.stash.get(1) is not None
        hits_before = oram.stats.stash_hits
        accesses_before = oram.stats.oram_accesses
        assert oram.read(1) == "v"
        assert oram.stats.stash_hits >= hits_before + 1
        # The data element cost no path access, only the PosMap chain.
        assert oram.stats.oram_accesses - accesses_before <= oram.space.depth
