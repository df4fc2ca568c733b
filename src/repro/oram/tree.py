"""Binary-tree geometry for Path ORAM.

Buckets are numbered in heap order: the root is node ``0``; the node at
``level`` with in-level index ``i`` (counting from the left) is
``2**level - 1 + i``. A *path* is the list of ``L + 1`` nodes from the
root down to one leaf; ``path-l`` denotes the path ending at the leaf
with label ``l`` (labels run ``0 .. 2**L - 1`` left to right).

The fork-path machinery builds on two geometric primitives implemented
here:

* :meth:`TreeGeometry.divergence_level` — the first level at which the
  paths to two leaves differ. Paths to ``l1`` and ``l2`` share exactly
  the nodes at levels ``0 .. divergence_level - 1``; the paper calls
  this count the *overlap degree* of two ORAM requests.
* :meth:`TreeGeometry.path_nodes` — the concrete node ids of a path,
  root first, which the controller slices into read/write/retain sets.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.errors import ConfigError


#: Per-geometry bound on memoised paths. Sized to hold every leaf of
#: the evaluation geometries (up to 2**16 leaves) so a uniform access
#: stream never thrashes the cache; larger trees fall back to
#: clear-on-full, keeping the cache a few tens of MB at worst.
_PATH_CACHE_MAX = 65536


class TreeGeometry:
    """Immutable geometry of a Path ORAM tree with ``levels + 1`` levels."""

    __slots__ = ("levels", "num_leaves", "num_nodes", "_path_cache")

    def __init__(self, levels: int) -> None:
        if levels < 0:
            raise ConfigError(f"levels must be >= 0, got {levels}")
        self.levels = levels
        self.num_leaves = 1 << levels
        self.num_nodes = (1 << (levels + 1)) - 1
        #: leaf -> tuple of path node ids, bounded (cleared when full).
        self._path_cache: dict = {}

    @classmethod
    def for_capacity(
        cls, blocks: int, bucket_slots: int, utilization: float
    ) -> "TreeGeometry":
        """Smallest tree whose utilised capacity holds ``blocks`` blocks
        (exact ``2**(L+1) - 1`` bucket count)."""
        levels = 0
        while ((1 << (levels + 1)) - 1) * bucket_slots * utilization < blocks:
            levels += 1
        return cls(levels)

    def __repr__(self) -> str:
        return f"TreeGeometry(levels={self.levels})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeGeometry) and other.levels == self.levels

    def __hash__(self) -> int:
        return hash(("TreeGeometry", self.levels))

    # ---------------------------------------------------------------- nodes

    def node(self, level: int, index: int) -> int:
        """Heap id of the ``index``-th node (from the left) at ``level``."""
        self._check_level(level)
        if not 0 <= index < (1 << level):
            raise ConfigError(
                f"index {index} out of range for level {level} "
                f"(has {1 << level} nodes)"
            )
        return (1 << level) - 1 + index

    def level_of(self, node_id: int) -> int:
        """Level of a node id (root is level 0)."""
        self._check_node(node_id)
        return (node_id + 1).bit_length() - 1

    def index_in_level(self, node_id: int) -> int:
        """Left-to-right position of ``node_id`` within its level."""
        level = self.level_of(node_id)
        return node_id - ((1 << level) - 1)

    def parent(self, node_id: int) -> int:
        """Heap id of the parent; the root has no parent."""
        self._check_node(node_id)
        if node_id == 0:
            raise ConfigError("the root node has no parent")
        return (node_id - 1) // 2

    def children(self, node_id: int) -> tuple[int, int]:
        """Heap ids of the two children; leaves have none."""
        self._check_node(node_id)
        if self.level_of(node_id) == self.levels:
            raise ConfigError(f"node {node_id} is a leaf and has no children")
        return (2 * node_id + 1, 2 * node_id + 2)

    def is_leaf(self, node_id: int) -> bool:
        self._check_node(node_id)
        return node_id >= (1 << self.levels) - 1

    def leaf_node(self, leaf: int) -> int:
        """Heap id of the leaf node carrying label ``leaf``."""
        self._check_leaf(leaf)
        return (1 << self.levels) - 1 + leaf

    # ---------------------------------------------------------------- paths

    def path_node_at(self, leaf: int, level: int) -> int:
        """Node id at ``level`` on the path to ``leaf``.

        The in-level index of that node is the top ``level`` bits of the
        leaf label, i.e. ``leaf >> (L - level)``.
        """
        if 0 <= level <= self.levels:
            cached = self._path_cache.get(leaf)
            if cached is not None:
                return cached[level]
            if 0 <= leaf < self.num_leaves:
                return (1 << level) - 1 + (leaf >> (self.levels - level))
        self._check_leaf(leaf)
        self._check_level(level)
        raise AssertionError("unreachable")  # pragma: no cover

    def path_nodes(self, leaf: int) -> List[int]:
        """Node ids of path-``leaf``, root first (``L + 1`` entries)."""
        return list(self.path_tuple(leaf))

    def path_tuple(self, leaf: int) -> tuple:
        """Node ids of path-``leaf`` as a shared, memoised tuple.

        Same contents as :meth:`path_nodes` without the defensive list
        copy — for hot paths that only index or iterate.
        """
        cached = self._path_cache.get(leaf)
        if cached is None:
            self._check_leaf(leaf)
            levels = self.levels
            cached = tuple(
                (1 << level) - 1 + (leaf >> (levels - level))
                for level in range(levels + 1)
            )
            if len(self._path_cache) >= _PATH_CACHE_MAX:
                self._path_cache.clear()
            self._path_cache[leaf] = cached
        return cached

    def iter_path(self, leaf: int, *, leaf_first: bool = False) -> Iterator[int]:
        """Iterate a path's node ids root-first (or leaf-first)."""
        nodes = self.path_nodes(leaf)
        return iter(reversed(nodes)) if leaf_first else iter(nodes)

    def divergence_level(self, leaf_a: int, leaf_b: int) -> int:
        """First level at which path-``leaf_a`` and path-``leaf_b`` differ.

        Equals the number of shared buckets (the paths share levels
        ``0 .. divergence_level - 1``). Two distinct leaves always share
        at least the root, so the result is ``>= 1``; identical leaves
        return ``levels + 1`` (full overlap).
        """
        # Both labels are valid iff their OR is (non-negative and) below
        # num_leaves — one branch instead of two checked calls.
        if not 0 <= (leaf_a | leaf_b) < self.num_leaves:
            self._check_leaf(leaf_a)
            self._check_leaf(leaf_b)
        x = leaf_a ^ leaf_b
        if x == 0:
            return self.levels + 1
        return self.levels - x.bit_length() + 1

    def overlap_degree(self, leaf_a: int, leaf_b: int) -> int:
        """Buckets shared by two paths — the paper's scheduling metric."""
        return self.divergence_level(leaf_a, leaf_b)

    def shared_nodes(self, leaf_a: int, leaf_b: int) -> List[int]:
        """Node ids common to both paths (a prefix of either path)."""
        depth = self.divergence_level(leaf_a, leaf_b)
        return self.path_nodes(leaf_a)[:depth]

    def fork_nodes(self, leaf_a: int, leaf_b: int) -> List[int]:
        """Nodes of path-``leaf_b`` *not* shared with path-``leaf_a``.

        This is exactly the read set of a merged (fork path) access that
        follows an access to ``leaf_a``, leaf-most nodes last.
        """
        depth = self.divergence_level(leaf_a, leaf_b)
        return self.path_nodes(leaf_b)[depth:]

    def node_on_path(self, node_id: int, leaf: int) -> bool:
        """Whether a node lies on path-``leaf``."""
        level = self.level_of(node_id)
        return self.path_node_at(leaf, level) == node_id

    def leaves_under(self, node_id: int) -> range:
        """Range of leaf labels whose paths pass through ``node_id``."""
        level = self.level_of(node_id)
        index = self.index_in_level(node_id)
        width = 1 << (self.levels - level)
        return range(index * width, (index + 1) * width)

    def random_leaf(self, rng) -> int:
        """Uniform leaf label drawn from ``rng`` (a ``random.Random``)."""
        return rng.randrange(self.num_leaves)

    # ------------------------------------------------------------ validation

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.levels:
            raise ConfigError(
                f"level {level} out of range [0, {self.levels}]"
            )

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.num_leaves:
            raise ConfigError(
                f"leaf {leaf} out of range [0, {self.num_leaves})"
            )

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ConfigError(
                f"node {node_id} out of range [0, {self.num_nodes})"
            )


def max_overlap_choice(
    geometry: TreeGeometry, current: int, candidates: Sequence[int]
) -> int:
    """Index into ``candidates`` of the leaf with maximal path overlap.

    Ties break toward the earliest candidate, which (with real requests
    stored ahead of dummies) implements the paper's rule that a real
    request wins over a dummy of equal overlap degree.
    """
    if not candidates:
        raise ConfigError("candidates must be non-empty")
    best_index = 0
    best_overlap = -1
    for position, leaf in enumerate(candidates):
        overlap = geometry.divergence_level(current, leaf)
        if overlap > best_overlap:
            best_overlap = overlap
            best_index = position
    return best_index
