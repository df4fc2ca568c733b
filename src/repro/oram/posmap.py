"""Position map: the address → leaf-label mapping.

:class:`PositionMap` is the flat, trusted on-chip map of basic Path
ORAM. :class:`RecursiveAddressSpace` implements the *unified program
address space* layout of hierarchical Path ORAM (paper Figure 2b): the
position map of the data ORAM is packed into blocks that live in the
same tree under addresses ``N ..``, recursively, until the final map
fits on chip. One LLC request then expands into a chain of ORAM
requests — deepest PosMap level first, data block last — that are
indistinguishable from ordinary requests from outside the processor.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.oram.tree import TreeGeometry


def plan_recursion(
    entries: int, labels_per_block: int, budget_entries: int
) -> Tuple[List[int], int]:
    """``(level_sizes, root_entries)`` of every recursive position map
    here: add a level of ``ceil(entries / labels_per_block)`` PosMap
    blocks (``level_sizes[0]`` maps the data blocks) until what is left
    fits ``budget_entries`` resident labels."""
    level_sizes: List[int] = []
    while entries > budget_entries:
        blocks = -(-entries // labels_per_block)
        if blocks >= entries:
            raise ConfigError(
                f"posmap recursion does not converge: level "
                f"{len(level_sizes) + 1} needs {blocks} blocks for {entries} "
                f"entries (labels_per_block={labels_per_block})"
            )
        level_sizes.append(blocks)
        entries = blocks
    return level_sizes, entries


# A PosMap block's payload, simulator and service alike: little-endian
# labels of ``label_bytes`` each, all-ones meaning "never assigned".


def empty_labels(labels_per_block: int, label_bytes: int) -> bytes:
    """A freshly created PosMap block: every slot is the sentinel."""
    return b"\xff" * (labels_per_block * label_bytes)


def read_label(payload: bytes, slot: int, label_bytes: int) -> Optional[int]:
    """Decode one packed label; None when the slot is the sentinel."""
    offset = slot * label_bytes
    raw = payload[offset : offset + label_bytes]
    return None if raw == b"\xff" * label_bytes else int.from_bytes(raw, "little")


def write_label(payload: bytes, slot: int, label_bytes: int, leaf: int) -> bytes:
    """Return ``payload`` with one packed label replaced."""
    offset = slot * label_bytes
    label = leaf.to_bytes(label_bytes, "little")
    return payload[:offset] + label + payload[offset + label_bytes :]


class PositionMap:
    """Flat map from program address to current leaf label.

    Addresses are lazily assigned a uniform random leaf on first touch,
    which matches initialising the ORAM with every block randomly
    mapped. :meth:`remap` draws the fresh label required by Step 2 of
    the access flow and returns the pair ``(old_leaf, new_leaf)``.
    """

    def __init__(self, geometry: TreeGeometry, rng: random.Random) -> None:
        self.geometry = geometry
        self._rng = rng
        self._map: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, addr: int) -> bool:
        return addr in self._map

    def lookup(self, addr: int) -> int:
        """Current leaf label of ``addr`` (assigning one if new)."""
        leaf = self._map.get(addr)
        if leaf is None:
            leaf = self.geometry.random_leaf(self._rng)
            self._map[addr] = leaf
        return leaf

    def peek(self, addr: int) -> int:
        """Like :meth:`lookup` but raises if the address is unmapped."""
        if addr not in self._map:
            raise ConfigError(f"address {addr} has no position-map entry")
        return self._map[addr]

    def remap(self, addr: int) -> tuple[int, int]:
        """Assign a fresh uniform label; returns ``(old, new)``."""
        old = self.lookup(addr)
        new = self.geometry.random_leaf(self._rng)
        self._map[addr] = new
        return old, new

    def assign(self, addr: int, leaf: int) -> None:
        """Pin an explicit label (used by tests and recursion plumbing)."""
        if not 0 <= leaf < self.geometry.num_leaves:
            raise ConfigError(f"leaf {leaf} out of range")
        self._map[addr] = leaf

    def items(self):
        return self._map.items()

    #: Flat maps resolve labels synchronously; the engine only folds
    #: posmap chains into its schedule when this is True.
    requires_chain = False

    def state_dict(self) -> Dict[int, int]:
        """Checkpoint form: the plain address → leaf dict (kept as the
        historical sealed-checkpoint layout, so old checkpoints load)."""
        return dict(self._map)

    def load_state(self, state: object) -> None:
        """Restore from :meth:`state_dict` (fresh map only)."""
        if isinstance(state, dict) and state.get("kind") == "recursive":
            raise ConfigError(
                "checkpoint posmap state is recursive but the engine is "
                "in flat mode; recover with posmap.mode=recursive"
            )
        if self._map:
            raise ConfigError("load_state requires a fresh position map")
        for addr, leaf in state.items():  # type: ignore[union-attr]
            self.assign(addr, leaf)


class RecursiveAddressSpace:
    """Unified-address-space layout for hierarchical Path ORAM.

    Parameters
    ----------
    num_data_blocks:
        ``N`` — program data blocks, addresses ``0 .. N-1``.
    labels_per_block:
        Leaf labels packed per PosMap block.
    label_bytes:
        Size of one stored label, for sizing the on-chip map.
    onchip_bytes:
        Recursion stops once a level's map fits in this budget.

    The PosMap of the data ORAM needs ``r1 = ceil(N / labels_per_block)``
    blocks at addresses ``N .. N + r1 - 1`` (the paper's ORAM1); ORAM2
    holds ``r2 = ceil(r1 / labels_per_block)`` blocks after those, and
    so on. :meth:`chain_for` yields the access chain for a data address.
    """

    def __init__(
        self,
        num_data_blocks: int,
        labels_per_block: int,
        label_bytes: int = 4,
        onchip_bytes: int = 256 * 1024,
    ) -> None:
        if num_data_blocks < 1:
            raise ConfigError("num_data_blocks must be >= 1")
        if labels_per_block < 2:
            raise ConfigError("labels_per_block must be >= 2")
        self.num_data_blocks = num_data_blocks
        self.labels_per_block = labels_per_block
        self.label_bytes = label_bytes
        self.onchip_bytes = onchip_bytes

        #: blocks per recursion level (level_sizes[0] is ORAM1), and the
        #: labels left for the on-chip map (the last level's, or the data's).
        self.level_sizes, self.onchip_entries = plan_recursion(
            num_data_blocks, labels_per_block, onchip_bytes // label_bytes
        )
        #: base address of each level in the unified space.
        self.level_bases: List[int] = []
        base = num_data_blocks
        for blocks in self.level_sizes:
            self.level_bases.append(base)
            base += blocks
        self.total_blocks = base

    @property
    def depth(self) -> int:
        """Number of PosMap ORAM levels (0 = everything fits on chip)."""
        return len(self.level_sizes)

    def posmap_addr(self, data_addr: int, level: int) -> int:
        """Unified address of the level-``level`` PosMap block covering
        ``data_addr`` (level 1 = ORAM1, the map of the data ORAM)."""
        if not 1 <= level <= self.depth:
            raise ConfigError(f"level {level} out of range [1, {self.depth}]")
        if not 0 <= data_addr < self.num_data_blocks:
            raise ConfigError(f"data_addr {data_addr} out of range")
        index = data_addr
        for _ in range(level):
            index //= self.labels_per_block
        return self.level_bases[level - 1] + index

    def slot_of(self, data_addr: int, level: int) -> int:
        """Payload slot, in ``data_addr``'s level-``level`` PosMap block,
        of its chain child (the level below, or the data block)."""
        per_block = self.labels_per_block
        return data_addr // per_block ** (level - 1) % per_block

    def chain_for(self, data_addr: int) -> List[int]:
        """Unified addresses to access for one LLC request.

        Deepest PosMap level first (its label comes from the on-chip
        map), data block last — the order the hardware must follow,
        since each access yields the label for the next.
        """
        chain = [
            self.posmap_addr(data_addr, level)
            for level in range(self.depth, 0, -1)
        ]
        chain.append(data_addr)
        return chain

    def accesses_per_request(self) -> int:
        return self.depth + 1

    def is_posmap_addr(self, addr: int) -> bool:
        return self.num_data_blocks <= addr < self.total_blocks

    def describe(self) -> str:
        parts = [f"data: {self.num_data_blocks} blocks"]
        for index, (base, size) in enumerate(
            zip(self.level_bases, self.level_sizes), start=1
        ):
            parts.append(f"ORAM{index}: {size} blocks @ {base}")
        parts.append(f"on-chip entries: {self.onchip_entries}")
        return ", ".join(parts)
