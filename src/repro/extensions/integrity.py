"""Merkle-tree integrity verification over the ORAM tree.

The paper treats active attacks as orthogonal, noting that integrity
checking (a Merkle tree) "can be combined with ORAM" (§2.2, citing Ren
et al. / Fletcher et al.). The combination is unusually cheap for Path
ORAM: hash-tree nodes and ORAM buckets share the same tree, so the
hashes needed to verify a path are exactly the siblings of that path —
one extra hash per level, fetched alongside the buckets the access
reads anyway.

:class:`MerkleMemory` wraps :class:`~repro.oram.memory.UntrustedMemory`
with that scheme: every bucket write updates the hash spine above it;
every bucket read re-verifies the path up to the root hash, which is
the only value the trusted side must store. Any bit flipped, replayed
or relocated by the adversary surfaces as
:class:`~repro.errors.IntegrityError` on the next read of an affected
path.

The hash over a node covers ``(node id, bucket image, child hashes)``:
binding the node id defeats relocation, binding child hashes defeats
replay of stale subtrees.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.errors import ReproError
from repro.oram.blocks import Block, Bucket
from repro.oram.memory import UntrustedMemory
from repro.oram.tree import TreeGeometry


class IntegrityError(ReproError):
    """A bucket failed Merkle verification (active tampering)."""


_EMPTY = b"\x00" * 32


def _bucket_image(bucket: Bucket) -> bytes:
    """Canonical byte image of a bucket's logical content."""
    parts = []
    for block in sorted(bucket.blocks, key=lambda b: b.addr):
        payload = repr(block.payload).encode()
        parts.append(
            block.addr.to_bytes(8, "little", signed=True)
            + block.leaf.to_bytes(8, "little")
            + len(payload).to_bytes(4, "little")
            + payload
        )
    return b"".join(parts)


class MerkleMemory:
    """Integrity-verifying façade over an untrusted bucket store.

    Parameters
    ----------
    memory:
        The untrusted store (holds buckets *and*, conceptually, the
        hash tree; we keep hashes in a dict standing in for the extra
        DRAM region).
    verify_on_read:
        When False, reads skip verification (for measuring the
        hashing overhead alone).
    """

    def __init__(self, memory: UntrustedMemory, verify_on_read: bool = True) -> None:
        self.memory = memory
        self.geometry: TreeGeometry = memory.geometry
        self.verify_on_read = verify_on_read
        #: Untrusted hash storage: node id -> digest. Missing = empty
        #: subtree (all-dummy buckets all the way down).
        self._hashes: Dict[int, bytes] = {}
        #: The single trusted value.
        self.root_hash: bytes = _EMPTY
        self.verified_reads = 0
        self.hash_updates = 0
        self._root_written = False

    # ----------------------------------------------------------- hashing

    def _child_hashes(self, node_id: int) -> tuple[bytes, bytes]:
        if self.geometry.is_leaf(node_id):
            return _EMPTY, _EMPTY
        left, right = self.geometry.children(node_id)
        return (
            self._hashes.get(left, _EMPTY),
            self._hashes.get(right, _EMPTY),
        )

    def _node_digest(self, node_id: int, bucket: Bucket) -> bytes:
        left, right = self._child_hashes(node_id)
        return hashlib.sha256(
            node_id.to_bytes(8, "little") + _bucket_image(bucket) + left + right
        ).digest()

    # ---------------------------------------------------------- transfers

    def write_bucket(self, node_id: int, bucket: Bucket, time_ns: float = 0.0) -> None:
        """Store a bucket and refresh the hash spine up to the root."""
        self.memory.write_bucket(node_id, bucket, time_ns)
        self._hashes[node_id] = self._node_digest(node_id, bucket)
        self.hash_updates += 1
        current = node_id
        while current != 0:
            current = self.geometry.parent(current)
            parent_bucket = self.memory.peek_bucket(current)
            self._hashes[current] = self._node_digest(current, parent_bucket)
            self.hash_updates += 1
        self.root_hash = self._hashes[0]
        self._root_written = True

    def read_bucket(self, node_id: int, time_ns: float = 0.0) -> Bucket:
        """Fetch a bucket, verifying its hash chain to the trusted root."""
        bucket = self.memory.read_bucket(node_id, time_ns)
        if self.verify_on_read:
            self._verify(node_id, bucket)
            self.verified_reads += 1
        return bucket

    def _verify(self, node_id: int, bucket: Bucket) -> None:
        stored = self._hashes.get(node_id)
        if stored is None:
            # Never-written node: must still be the implicit all-dummy
            # bucket. Its ancestors committed to the empty digest, so a
            # forged non-empty bucket here is caught either way.
            if bucket.blocks:
                raise IntegrityError(
                    f"bucket {node_id} holds data but was never written "
                    f"through the verified path (forged content)"
                )
            return
        if self._node_digest(node_id, bucket) != stored:
            raise IntegrityError(
                f"bucket {node_id} failed its node hash (tampered content "
                f"or relocated bucket)"
            )
        # Walk the spine: each parent's stored hash must commit to the
        # child hash we just checked, up to the trusted root. Honest
        # writes always hash the full spine, so every ancestor of a
        # written node has a stored hash.
        current = node_id
        while current != 0:
            parent = self.geometry.parent(current)
            stored_parent = self._hashes.get(parent)
            if stored_parent is None:
                raise IntegrityError(
                    f"node {node_id} is hashed but its ancestor {parent} "
                    f"is not — hash tree truncated by the adversary"
                )
            parent_bucket = self.memory.peek_bucket(parent)
            if self._node_digest(parent, parent_bucket) != stored_parent:
                raise IntegrityError(
                    f"hash spine broken at node {parent} while verifying "
                    f"bucket {node_id}"
                )
            current = parent
        if self._root_written and self._hashes.get(0, _EMPTY) != self.root_hash:
            raise IntegrityError("root hash mismatch: wholesale replay detected")

    # ----------------------------------------------------------- tampering

    def tamper_with_bucket(self, node_id: int, block: Optional[Block] = None) -> None:
        """Adversary helper for tests: modify a bucket *without* fixing
        hashes, as an active attacker would."""
        bucket = self.memory.peek_bucket(node_id)
        if block is not None and not bucket.is_full():
            bucket.add(block)
        elif bucket.blocks:
            bucket.blocks[0].payload = f"tampered:{bucket.blocks[0].payload!r}"
        else:
            bucket.add(Block(999_999, 0, "forged"))
        # Bypass the verified writer: poke the raw store.
        self.memory._store[node_id] = self.memory.cipher.seal(
            bucket, self.memory.bucket_slots
        )

    def rollback_bucket(self, node_id: int, old_sealed: object) -> None:
        """Adversary helper: replay an old ciphertext for a node."""
        self.memory._store[node_id] = old_sealed
