"""Hierarchical (recursive) Path ORAM with a unified address space.

Functional reference implementation of the paper's Figure 2: the data
ORAM's position map is too large for the chip, so it is split into
PosMap blocks that live *in the same ORAM tree* under addresses above
the data region (ORAM1, ORAM2, ... of the unified program address
space). Only the final, smallest map is kept on chip.

One logical request for data address ``a`` becomes a chain of ordinary
ORAM accesses — deepest PosMap level first, data block last. Each PosMap
access does real work: it reads the leaf label of the next block in the
chain out of the PosMap block's payload and *remaps it in place* before
the block is written back, exactly as the hardware would. From outside
the processor every chain element looks like any other ORAM access,
which is the point of the unified layout.

This class is the functional oracle; the timed Fork Path controller
replays the same chains through its queues (see
:mod:`repro.core.controller`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import OramConfig, RecursionConfig
from repro.errors import ProtocolError
from repro.oram.blocks import Block, Bucket
from repro.oram.memory import UntrustedMemory
from repro.oram.posmap import (
    RecursiveAddressSpace,
    empty_labels,
    read_label,
    write_label,
)
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry


@dataclass
class RecursiveOramStats:
    requests: int = 0
    oram_accesses: int = 0
    stash_hits: int = 0
    buckets_read: int = 0
    buckets_written: int = 0
    leaf_sequence: List[int] = field(default_factory=list)

    @property
    def accesses_per_request(self) -> float:
        if self.requests == 0:
            return 0.0
        return (self.oram_accesses + self.stash_hits) / self.requests


class RecursiveOram:
    """Unified-address-space hierarchical Path ORAM (functional).

    Parameters
    ----------
    config:
        Sizing for the *data* region: ``config.num_blocks`` data blocks.
        The tree is enlarged as needed to also hold the PosMap regions.
    recursion:
        Recursion layout knobs (labels per PosMap block, on-chip budget).
    rng:
        Source of all randomness.
    """

    def __init__(
        self,
        config: OramConfig,
        recursion: RecursionConfig,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self.recursion = recursion
        self.rng = rng if rng is not None else random.Random(0)
        self.space = RecursiveAddressSpace(
            num_data_blocks=config.num_blocks,
            labels_per_block=recursion.labels_per_block,
            label_bytes=recursion.label_bytes,
            onchip_bytes=recursion.onchip_posmap_bytes,
        )
        self.geometry = TreeGeometry.for_capacity(
            self.space.total_blocks, config.bucket_slots, config.utilization
        )
        self.memory = UntrustedMemory(self.geometry, config.bucket_slots)
        self.stash = Stash(self.geometry, config.stash_capacity)
        #: labels of the deepest recursion level (or of the data blocks
        #: themselves when everything fits on chip).
        self._onchip: Dict[int, int] = {}
        self.stats = RecursiveOramStats()

    # ------------------------------------------------------------- requests

    def read(self, addr: int) -> object:
        return self._request(addr, is_write=False, payload=None)

    def write(self, addr: int, payload: object) -> None:
        self._request(addr, is_write=True, payload=payload)

    # ------------------------------------------------------------ internals

    def _request(self, addr: int, is_write: bool, payload: object) -> object:
        if not 0 <= addr < self.space.num_data_blocks:
            raise ProtocolError(
                f"address {addr} out of range [0, {self.space.num_data_blocks})"
            )
        self.stats.requests += 1
        chain = self.space.chain_for(addr)

        # The first chain element's label lives on chip; each later
        # element's (old, new) label pair is produced by its predecessor.
        # All mutation (label adoption, payload remap, data update)
        # happens between the read and write phases of the element's own
        # path access, exactly as in hardware — mutating after the
        # write-back would lose updates for blocks evicted to the tree.
        old_leaf, new_leaf = self._onchip_remap(chain[0])
        for position, block_addr in enumerate(chain):
            is_last = position == len(chain) - 1
            access_leaf = old_leaf

            block = self.stash.get(block_addr)
            stash_hit = block is not None
            if stash_hit:
                self.stats.stash_hits += 1
            else:
                self.stats.oram_accesses += 1
                self.stats.leaf_sequence.append(access_leaf)
                self._read_path(access_leaf)
                block = self.stash.get(block_addr)
                if block is None:
                    block = Block(block_addr, access_leaf, None)
                    self.stash.add(block)

            self.stash.relabel(block_addr, new_leaf)
            if is_last:
                if is_write:
                    block.payload = payload
                result = block.payload
            else:
                old_leaf, new_leaf = self._payload_remap(
                    block, self.space.slot_of(addr, len(chain) - 1 - position)
                )

            if not stash_hit:
                self._write_path(access_leaf)
        return result

    def _onchip_remap(self, block_addr: int) -> tuple[int, int]:
        old = self._onchip.get(block_addr)
        if old is None:
            old = self.geometry.random_leaf(self.rng)
        new = self.geometry.random_leaf(self.rng)
        self._onchip[block_addr] = new
        return old, new

    def _payload_remap(self, posmap_block: Block, slot: int) -> tuple[int, int]:
        """Read and refresh the child label in ``slot`` of a PosMap
        block's packed payload (the codec the service's posmap uses)."""
        label_bytes = self.recursion.label_bytes
        labels = posmap_block.payload
        if not isinstance(labels, bytes):  # first touch: no labels yet
            labels = empty_labels(self.recursion.labels_per_block, label_bytes)
        old = read_label(labels, slot, label_bytes)
        if old is None:
            old = self.geometry.random_leaf(self.rng)
        new = self.geometry.random_leaf(self.rng)
        posmap_block.payload = write_label(labels, slot, label_bytes, new)
        return old, new

    def _read_path(self, leaf: int) -> None:
        for node_id in self.geometry.path_nodes(leaf):
            bucket = self.memory.read_bucket(node_id)
            self.stats.buckets_read += 1
            self.stash.add_all(bucket.take_all())

    def _write_path(self, leaf: int) -> None:
        z = self.config.bucket_slots
        for level in range(self.geometry.levels, -1, -1):
            node_id = self.geometry.path_node_at(leaf, level)
            bucket = Bucket(z)
            for block in self.stash.collect_for_node(leaf, level, z):
                bucket.add(block)
            self.memory.write_bucket(node_id, bucket)
            self.stats.buckets_written += 1
        self.stash.sample_occupancy()
        self.stash.check_persistent_occupancy()
