"""Hierarchical position map: labels stored in small ORAM trees.

:class:`HierarchicalPositionMap` keeps only a root map, one stash per
recursion level, and a (normally empty) failure-repair table resident;
every other label lives in packed PosMap blocks inside per-level ORAM
trees stored through the engine's :class:`AsyncBucketStore` — the same
backend, cipher, retry policy, read and write-back steps and WAL as the
data tree, at node ids above the data tree's range.

A logical request becomes a *deepest-first chain*: the root map yields
the leaf of the deepest PosMap block, each level's access reads that
block, remaps it, and yields (old, new) labels for the next level down,
until level 1 yields the data block's labels. Chains are driven by the
engine at a fixed rate — exactly one chain (real or dummy) per tree
access slot — so the public trace keeps a fixed, reconstructible shape
(see :func:`repro.security.expected_chain_trace`).

Failure semantics mirror the flat engine:

* a write-back failure re-inserts every collected block into that
  level's stash (the store's write-back step does it — the stash copy
  supersedes the stale tree copy, as in the data tree);
* a chain that aborts mid-way leaves a parent pointing at a label its
  child never adopted; the repair table (``_overrides``) pins the
  child's true label until the next chain through that block rewrites
  the pointer. :meth:`assign` — the engine's failed-request label
  restore — is a pure override insert, so it can never itself fail.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import BackendError, ConfigError
from repro.oram.blocks import Block
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.posmap.layout import PosmapLayout, PosmapLevel

#: Most recent per-chain leaf tuples kept for trace verification.
CHAIN_RECORD_CAPACITY = 1 << 16


class _LevelState:
    """Resident state of one recursion level: its stash."""

    __slots__ = ("level", "stash")

    def __init__(self, level: PosmapLevel, stash_capacity: int) -> None:
        self.level = level
        self.stash = Stash(level.geometry, stash_capacity)


class HierarchicalPositionMap:
    """Recursive position map over the engine's storage backend.

    Implements the engine-facing surface of
    :class:`repro.oram.posmap.PositionMap` that does not require I/O
    (``assign``, ``state_dict``/``load_state``, ``__len__``) plus the
    chain entry points the engine drives once per access slot
    (:meth:`run_real_chain` / :meth:`run_dummy_chain`). ``lookup`` and
    ``remap`` raise: resolving a label requires a chain of ORAM
    accesses, which only the engine may schedule.
    """

    #: The engine folds posmap chains into its access schedule.
    requires_chain = True

    def __init__(
        self,
        layout: PosmapLayout,
        geometry: TreeGeometry,
        rng: random.Random,
        stash_capacity: int,
    ) -> None:
        if layout.depth < 1:
            raise ConfigError(
                "HierarchicalPositionMap needs depth >= 1; use the flat "
                "PositionMap when the whole map fits the budget"
            )
        self.layout = layout
        self.geometry = geometry
        self.rng = rng
        #: Leaf labels of the deepest level's blocks (lazily assigned,
        #: like the flat map's lazy uniform initialisation).
        self._root: Dict[int, int] = {}
        self._levels: List[_LevelState] = [
            _LevelState(level, stash_capacity) for level in layout.levels
        ]
        #: ``(level, block_index) -> leaf``: the child's *true* current
        #: label where an aborted chain left its parent pointing at a
        #: label the child never adopted. Level 0 indexes are data
        #: addresses. Consulted (and consumed) whenever a chain reads
        #: that pointer; bounded by the number of failed accesses.
        self._overrides: Dict[Tuple[int, int], int] = {}
        #: Per-chain accessed-leaf tuples (deepest level first), real
        #: and dummy alike — the posmap half of the public trace.
        self.chain_records: Deque[Tuple[int, ...]] = deque(
            maxlen=CHAIN_RECORD_CAPACITY
        )
        self.real_chains = 0
        self.dummy_chains = 0
        self.failed_chains = 0

    # ------------------------------------------------------------- interface

    @property
    def depth(self) -> int:
        return self.layout.depth

    def __len__(self) -> int:
        return (
            len(self._root)
            + sum(len(state.stash) for state in self._levels)
            + len(self._overrides)
        )

    def __contains__(self, addr: int) -> bool:
        return (0, addr) in self._overrides

    def lookup(self, addr: int) -> int:
        raise ConfigError(
            "HierarchicalPositionMap cannot resolve labels synchronously; "
            "labels are produced by run_real_chain() under the engine's "
            "access schedule"
        )

    def remap(self, addr: int) -> Tuple[int, int]:
        raise ConfigError(
            "HierarchicalPositionMap cannot remap synchronously; "
            "labels are produced by run_real_chain() under the engine's "
            "access schedule"
        )

    def assign(self, addr: int, leaf: int) -> None:
        """Pin the data block's true label (failed-request restore).

        The engine calls this when a tree access fails after the chain
        already remapped the block: the block still lives on its old
        path, so the level-1 pointer (which says ``new_leaf``) is
        stale. Recording the truth here is resident-only and
        infallible; the pointer is rewritten by the next chain through
        that block.
        """
        if not 0 <= leaf < self.geometry.num_leaves:
            raise ConfigError(f"leaf {leaf} out of range")
        self._overrides[(0, addr)] = leaf

    # ----------------------------------------------------------- chain access

    async def run_real_chain(self, addr: int, store, replicator) -> Tuple[int, int]:
        """Resolve + remap ``addr`` with one access per recursion level.

        Deepest level first: the root map names the deepest block's
        leaf; each level's access reads the block at its old leaf,
        relabels it, swaps the child's packed label for a fresh one,
        and evicts the full path back. Returns the data block's
        ``(old_leaf, new_leaf)`` for the engine's label queue.
        """
        layout = self.layout
        depth = layout.depth
        indexes = [addr]
        for _ in range(depth):
            indexes.append(indexes[-1] // layout.labels_per_block)
        deepest_geometry = self._levels[depth - 1].level.geometry
        old = self._overrides.pop((depth, indexes[depth]), None)
        if old is None:
            old = self._root.get(indexes[depth])
            if old is None:
                old = deepest_geometry.random_leaf(self.rng)
        new = deepest_geometry.random_leaf(self.rng)
        self._root[indexes[depth]] = new
        chain_leaves = []
        for level in range(depth, 0, -1):
            state = self._levels[level - 1]
            child_geometry = (
                self._levels[level - 2].level.geometry
                if level >= 2
                else self.geometry
            )
            try:
                old_child, new_child = await self._access_level(
                    state,
                    leaf=old,
                    new_leaf=new,
                    block_index=indexes[level],
                    child_index=indexes[level - 1],
                    child_geometry=child_geometry,
                    store=store,
                    replicator=replicator,
                )
            except BackendError:
                self.failed_chains += 1
                raise
            chain_leaves.append(old)
            old, new = old_child, new_child
        self.real_chains += 1
        self.chain_records.append(tuple(chain_leaves))
        return old, new

    async def run_dummy_chain(self, store, replicator) -> None:
        """One uniform random full-path access per level — the padding
        twin of :meth:`run_real_chain`, indistinguishable on the bus."""
        chain_leaves = []
        try:
            for state in reversed(self._levels):
                leaf = state.level.geometry.random_leaf(self.rng)
                path = state.level.path_nodes(leaf)
                stash = state.stash
                await store.read_many_blocks(path, stash)
                await store.write_many_blocks(stash, leaf, path, 0, replicator)
                stash.check_persistent_occupancy()
                chain_leaves.append(leaf)
        except BackendError:
            # No pointer was remapped, so no repair entry is needed;
            # collected blocks were re-inserted by the store.
            self.failed_chains += 1
            raise
        self.dummy_chains += 1
        self.chain_records.append(tuple(chain_leaves))

    async def _access_level(
        self,
        state: _LevelState,
        leaf: int,
        new_leaf: int,
        block_index: int,
        child_index: int,
        child_geometry: TreeGeometry,
        store,
        replicator,
    ) -> Tuple[int, int]:
        """One Path ORAM access on a level tree — read the full path,
        swap the child's label, greedy full-path eviction (leaf first)
        — returns the child's ``(old, new)`` labels."""
        layout = self.layout
        level_index = state.level.index
        child_key = (level_index - 1, child_index)
        child_override = self._overrides.pop(child_key, None)
        stash = state.stash
        path = state.level.path_nodes(leaf)
        try:
            await store.read_many_blocks(path, stash)
        except BackendError:
            # The parent (or root) already points at ``new_leaf``; the
            # block still lives on the old path. Pin the truth.
            self._overrides[(level_index, block_index)] = leaf
            if child_override is not None:
                self._overrides[child_key] = child_override
            raise
        block = stash.get(block_index)
        if block is None:
            block = Block(block_index, new_leaf, layout.empty_payload())
            stash.add(block)
        else:
            stash.relabel(block_index, new_leaf)
        slot = child_index % layout.labels_per_block
        if child_override is not None:
            old_child = child_override
        else:
            stored = layout.read_slot(block.payload, slot)
            old_child = (
                child_geometry.random_leaf(self.rng)
                if stored is None
                else stored
            )
        new_child = child_geometry.random_leaf(self.rng)
        block.payload = layout.write_slot(block.payload, slot, new_child)
        try:
            await store.write_many_blocks(stash, leaf, path, 0, replicator)
        except BackendError:
            # The mutated block is stash-resident (authoritative), but
            # the chain aborts before the child adopts its fresh label.
            self._overrides[child_key] = old_child
            raise
        stash.check_persistent_occupancy()
        return old_child, new_child

    # ------------------------------------------------------ checkpoint state

    def state_dict(self) -> Dict[str, object]:
        """Resident state only — O(root map + stashes), never O(N)."""
        return {
            "kind": "recursive",
            "root": sorted(self._root.items()),
            "levels": [
                [
                    (block.addr, block.leaf, block.payload)
                    for block in state.stash.blocks()
                ]
                for state in self._levels
            ],
            "overrides": sorted(self._overrides.items()),
            "counters": (
                self.real_chains,
                self.dummy_chains,
                self.failed_chains,
            ),
        }

    def load_state(self, state: object) -> None:
        """Restore from :meth:`state_dict` (fresh instance only)."""
        if not (isinstance(state, dict) and state.get("kind") == "recursive"):
            raise ConfigError(
                "checkpoint posmap state is flat but the engine is in "
                "recursive mode; recover with posmap.mode=flat"
            )
        if len(self):
            raise ConfigError("load_state requires a fresh position map")
        levels = state["levels"]
        if len(levels) != self.layout.depth:
            raise ConfigError(
                f"checkpoint has {len(levels)} posmap levels, layout "
                f"has {self.layout.depth}; the address space or budget "
                f"changed since the checkpoint"
            )
        self._root.update(
            (int(index), int(leaf)) for index, leaf in state["root"]
        )
        for level_state, blocks in zip(self._levels, levels):
            level_state.stash.add_all(
                Block(addr, leaf, payload) for addr, leaf, payload in blocks
            )
        self._overrides.update(
            (tuple(key), int(leaf)) for key, leaf in state["overrides"]
        )
        (
            self.real_chains,
            self.dummy_chains,
            self.failed_chains,
        ) = state["counters"]


__all__ = ["HierarchicalPositionMap", "CHAIN_RECORD_CAPACITY"]
