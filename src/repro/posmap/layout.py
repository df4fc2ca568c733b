"""Memory-budget planning for the hierarchical position map.

The flat position map holds one leaf label per data address — O(N)
resident client state. The recursive construction (Path ORAM, Section
"Recursion"; depth and packing tuned per deployment following
"Optimizing Path ORAM for Cloud Storage Applications") packs labels
into PosMap blocks stored in progressively smaller ORAM trees until
the root map fits a client-side budget.

:func:`plan_layout` turns ``(OramConfig, PosmapConfig)`` into a
:class:`PosmapLayout`: one :class:`PosmapLevel` per recursion level,
each with its own tree geometry and a *node-id base* that places the
level's buckets in the same ``StorageBackend`` namespace as the data
tree (data tree owns ``0 .. num_nodes-1``, level 1 the next range, and
so on). Sharing the namespace means the WAL, recovery replay, trace
recording and the path-segment data plane all work on
posmap buckets without modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import OramConfig, PosmapConfig
from repro.errors import ConfigError
from repro.oram.posmap import empty_labels, plan_recursion, read_label, write_label
from repro.oram.tree import TreeGeometry


@dataclass(frozen=True)
class PosmapLevel:
    """One recursion level: a small ORAM tree of packed PosMap blocks.

    ``index`` is 1-based: level 1 maps the data tree (its blocks hold
    data-block labels), level ``depth`` is the deepest level whose
    block labels live in the resident root map.
    """

    index: int
    #: PosMap blocks stored at this level.
    entries: int
    geometry: TreeGeometry
    #: First backend node id of this level's tree. The level owns
    #: ``node_base .. node_base + geometry.num_nodes - 1``.
    node_base: int

    @property
    def node_end(self) -> int:
        return self.node_base + self.geometry.num_nodes

    def path_nodes(self, leaf: int) -> List[int]:
        """Backend node ids of this level's path to ``leaf``, root first."""
        base = self.node_base
        return [base + node for node in self.geometry.path_tuple(leaf)]


class PosmapLayout:
    """The planned recursion shape for one engine.

    Level ``l`` block ``i`` covers child indexes
    ``i * labels_per_block .. (i+1) * labels_per_block - 1`` of level
    ``l - 1`` (level 0 = the data addresses). Its payload is the packed
    little-endian labels of those children, ``label_bytes`` each, with
    all-ones as the "never assigned" sentinel.
    """

    def __init__(
        self,
        num_blocks: int,
        labels_per_block: int,
        label_bytes: int,
        client_budget_bytes: int,
        levels: List[PosmapLevel],
        root_entries: int,
    ) -> None:
        self.num_blocks = num_blocks
        self.labels_per_block = labels_per_block
        self.label_bytes = label_bytes
        self.client_budget_bytes = client_budget_bytes
        self.levels = levels
        #: Entries the resident root map holds: labels of the deepest
        #: level's blocks (or of the data blocks when depth == 0).
        self.root_entries = root_entries
        self.posmap_node_base = levels[0].node_base if levels else 0
        self.total_nodes = levels[-1].node_end if levels else 0

    @property
    def depth(self) -> int:
        """Number of PosMap ORAM levels (0 = flat fits the budget)."""
        return len(self.levels)

    def block_index(self, addr: int, level: int) -> int:
        """Index of the level-``level`` block covering data ``addr``."""
        return addr // (self.labels_per_block ** level)

    def slot_of(self, addr: int, level: int) -> int:
        """Payload slot of ``addr``'s child entry inside that block."""
        return self.block_index(addr, level - 1) % self.labels_per_block

    def level_of_node(self, node_id: int) -> Optional[PosmapLevel]:
        """The level owning a backend node id (None = data tree)."""
        for level in self.levels:
            if level.node_base <= node_id < level.node_end:
                return level
        return None

    def empty_payload(self) -> bytes:
        """A fresh PosMap block (:func:`repro.oram.posmap.empty_labels`)."""
        return empty_labels(self.labels_per_block, self.label_bytes)

    def read_slot(self, payload: bytes, slot: int) -> Optional[int]:
        """One packed label, None when never assigned (``read_label``)."""
        return read_label(payload, slot, self.label_bytes)

    def write_slot(self, payload: bytes, slot: int, leaf: int) -> bytes:
        """``payload`` with one packed label replaced (``write_label``)."""
        return write_label(payload, slot, self.label_bytes, leaf)

    def describe(self) -> str:
        parts = [f"data: {self.num_blocks} blocks"]
        for level in self.levels:
            parts.append(
                f"L{level.index}: {level.entries} blocks, "
                f"tree levels={level.geometry.levels} @ {level.node_base}"
            )
        parts.append(
            f"root: {self.root_entries} entries "
            f"({self.root_entries * self.label_bytes} B "
            f"of {self.client_budget_bytes} B budget)"
        )
        return ", ".join(parts)


def plan_layout(
    oram: OramConfig, posmap: PosmapConfig, geometry: TreeGeometry
) -> PosmapLayout:
    """Choose recursion depth and packing for the configured budget.

    Packing defaults to ``oram.block_bytes // label_bytes`` (PosMap
    payloads then match the data plane's block size); recursion adds
    levels until the root map fits ``client_budget_bytes`` in model
    bytes (entries × ``label_bytes``).
    """
    labels_per_block = posmap.labels_per_block
    if labels_per_block == 0:
        labels_per_block = max(2, oram.block_bytes // posmap.label_bytes)
    level_sizes, root_entries = plan_recursion(
        oram.num_blocks,
        labels_per_block,
        posmap.client_budget_bytes // posmap.label_bytes,
    )
    levels: List[PosmapLevel] = []
    node_base = geometry.num_nodes
    for blocks in level_sizes:
        tree = TreeGeometry.for_capacity(
            blocks, oram.bucket_slots, oram.utilization
        )
        levels.append(
            PosmapLevel(
                index=len(levels) + 1,
                entries=blocks,
                geometry=tree,
                node_base=node_base,
            )
        )
        node_base += tree.num_nodes
    layout = PosmapLayout(
        num_blocks=oram.num_blocks,
        labels_per_block=labels_per_block,
        label_bytes=posmap.label_bytes,
        client_budget_bytes=posmap.client_budget_bytes,
        levels=levels,
        root_entries=root_entries,
    )
    sentinel = (1 << (8 * posmap.label_bytes)) - 1  # all-ones: "never assigned"
    for child in [geometry] + [level.geometry for level in levels]:
        if child.num_leaves > sentinel:
            raise ConfigError(
                f"posmap.label_bytes={posmap.label_bytes} cannot hold "
                f"leaf labels of a {child.levels}-level tree "
                f"({child.num_leaves} leaves >= sentinel {sentinel})"
            )
    return layout


__all__ = ["PosmapLevel", "PosmapLayout", "plan_layout"]
