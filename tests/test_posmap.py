"""Position map and the unified recursive address space."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.oram.posmap import PositionMap, RecursiveAddressSpace
from repro.oram.tree import TreeGeometry


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


class TestUnifiedGeometry:
    def test_tree_covers_all_regions(self):
        space = RecursiveAddressSpace(4096, 16, 4, 64 * 4)
        tree = TreeGeometry.for_capacity(
            space.total_blocks, bucket_slots=4, utilization=0.5
        )
        assert tree.num_nodes * 4 * 0.5 >= space.total_blocks
        smaller = TreeGeometry(tree.levels - 1)
        assert smaller.num_nodes * 4 * 0.5 < space.total_blocks
