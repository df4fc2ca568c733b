"""Position map and the unified recursive address space."""

from __future__ import annotations

import random

import pytest

from repro.config import PosmapConfig, small_test_config
from repro.errors import ConfigError
from repro.oram.posmap import (
    PositionMap,
    RecursiveAddressSpace,
    empty_labels,
    plan_recursion,
    read_label,
    write_label,
)
from repro.oram.tree import TreeGeometry
from repro.posmap.layout import plan_layout


class TestPositionMap:
    def setup_method(self):
        self.tree = TreeGeometry(6)
        self.posmap = PositionMap(self.tree, random.Random(3))

    def test_lazy_assignment_is_stable(self):
        leaf = self.posmap.lookup(10)
        assert self.posmap.lookup(10) == leaf
        assert 10 in self.posmap

    def test_remap_returns_old_and_installs_new(self):
        first = self.posmap.lookup(5)
        old, new = self.posmap.remap(5)
        assert old == first
        assert self.posmap.lookup(5) == new

    def test_remap_labels_are_roughly_uniform(self):
        draws = [self.posmap.remap(1)[1] for _ in range(2000)]
        assert all(0 <= leaf < 64 for leaf in draws)
        # Every quartile of the leaf space gets a fair share.
        quartiles = [0] * 4
        for leaf in draws:
            quartiles[leaf // 16] += 1
        for count in quartiles:
            assert 350 < count < 650

    def test_peek_requires_existing_entry(self):
        with pytest.raises(ConfigError):
            self.posmap.peek(99)

    def test_assign_validates_leaf(self):
        self.posmap.assign(1, 63)
        assert self.posmap.peek(1) == 63
        with pytest.raises(ConfigError):
            self.posmap.assign(1, 64)

    def test_len_and_items(self):
        self.posmap.lookup(1)
        self.posmap.lookup(2)
        assert len(self.posmap) == 2
        assert dict(self.posmap.items()).keys() == {1, 2}


class TestRecursiveAddressSpace:
    def test_no_recursion_when_map_fits(self):
        space = RecursiveAddressSpace(
            num_data_blocks=100, labels_per_block=16, onchip_bytes=1 << 20
        )
        assert space.depth == 0
        assert space.chain_for(5) == [5]
        assert space.total_blocks == 100

    def test_two_level_layout(self):
        # 4096 data blocks, 16 labels/block, on-chip holds 64 labels.
        space = RecursiveAddressSpace(
            num_data_blocks=4096,
            labels_per_block=16,
            label_bytes=4,
            onchip_bytes=64 * 4,
        )
        assert space.level_sizes == [256, 16]
        assert space.level_bases == [4096, 4096 + 256]
        assert space.depth == 2
        assert space.onchip_entries == 16
        assert space.total_blocks == 4096 + 256 + 16

    def test_chain_is_deepest_first_then_data(self):
        space = RecursiveAddressSpace(
            num_data_blocks=4096,
            labels_per_block=16,
            label_bytes=4,
            onchip_bytes=64 * 4,
        )
        chain = space.chain_for(1000)
        # ORAM2 block covering 1000, then ORAM1, then the data block.
        assert chain == [
            4096 + 256 + 1000 // 256,
            4096 + 1000 // 16,
            1000,
        ]
        assert space.accesses_per_request() == 3

    def test_posmap_addr_bounds(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        with pytest.raises(ConfigError):
            space.posmap_addr(0, 3)
        with pytest.raises(ConfigError):
            space.posmap_addr(4096, 1)

    def test_is_posmap_addr(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        assert not space.is_posmap_addr(4095)
        assert space.is_posmap_addr(4096)
        assert space.is_posmap_addr(space.total_blocks - 1)
        assert not space.is_posmap_addr(space.total_blocks)

    def test_neighbouring_addresses_share_posmap_blocks(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        assert space.posmap_addr(0, 1) == space.posmap_addr(15, 1)
        assert space.posmap_addr(0, 1) != space.posmap_addr(16, 1)

    def test_describe_mentions_every_level(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        text = space.describe()
        assert "ORAM1" in text and "ORAM2" in text

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            RecursiveAddressSpace(0, 16)
        with pytest.raises(ConfigError):
            RecursiveAddressSpace(10, 1)


class TestOneRecursionPlan:
    def test_levels_until_the_root_fits(self):
        assert plan_recursion(4096, 16, 64) == ([256, 16], 16)
        assert plan_recursion(100, 16, 100) == ([], 100)
        assert plan_recursion(101, 16, 100) == ([7], 7)

    def test_non_convergence_is_a_config_error(self):
        """One entry that still exceeds the budget can never shrink."""
        with pytest.raises(ConfigError, match="does not converge"):
            plan_recursion(1, 16, 0)
        with pytest.raises(ConfigError, match="does not converge"):
            RecursiveAddressSpace(8, 2, label_bytes=4, onchip_bytes=3)

    @pytest.mark.parametrize("budget", [64, 128, 256, 1024, 1 << 20])
    @pytest.mark.parametrize("labels_per_block", [2, 4, 16])
    def test_simulator_and_service_plan_the_same_levels(
        self, budget, labels_per_block
    ):
        oram = small_test_config(10, block_bytes=64)
        space = RecursiveAddressSpace(
            oram.num_blocks, labels_per_block, label_bytes=4, onchip_bytes=budget
        )
        layout = plan_layout(
            oram,
            PosmapConfig(
                mode="recursive",
                client_budget_bytes=budget,
                labels_per_block=labels_per_block,
            ),
            TreeGeometry(oram.levels),
        )
        assert [level.entries for level in layout.levels] == space.level_sizes
        assert layout.root_entries == space.onchip_entries
        for addr in (0, 1, 777, oram.num_blocks - 1):
            for level in range(1, space.depth + 1):
                assert space.slot_of(addr, level) == layout.slot_of(addr, level)


class TestPackedLabels:
    @pytest.mark.parametrize("label_bytes", [1, 2, 4, 8])
    def test_round_trip_and_sentinel(self, label_bytes):
        payload = empty_labels(5, label_bytes)
        assert payload == b"\xff" * (5 * label_bytes)
        assert all(read_label(payload, s, label_bytes) is None for s in range(5))
        top = (1 << (8 * label_bytes)) - 2  # largest non-sentinel label
        updated = write_label(payload, 3, label_bytes, top)
        updated = write_label(updated, 0, label_bytes, 0)
        assert type(updated) is bytes and len(updated) == len(payload)
        assert [read_label(updated, s, label_bytes) for s in range(5)] == [
            0, None, None, top, None
        ]
        assert read_label(payload, 3, label_bytes) is None  # input untouched


class TestUnifiedGeometry:
    def test_tree_covers_all_regions(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        tree = TreeGeometry.for_capacity(
            space.total_blocks, bucket_slots=4, utilization=0.5
        )
        assert tree.num_nodes * 4 * 0.5 >= space.total_blocks
        smaller = TreeGeometry(tree.levels - 1)
        assert smaller.num_nodes * 4 * 0.5 < space.total_blocks
