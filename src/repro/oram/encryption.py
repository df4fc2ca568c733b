"""Probabilistic (counter-mode) encryption for ORAM buckets.

Path ORAM requires that any two bucket ciphertexts be indistinguishable
— even re-encryptions of identical plaintext, and even dummy blocks
versus real blocks. Counter-mode encryption with a fresh counter per
write provides this (paper Section 2.3, citing the counter-mode secure
processors of Shi et al. / Ren et al.).

Hardware uses AES; offline the pad comes from a hash, which has the
same structural properties that matter here: a deterministic
pseudo-random pad, fresh per write, XORed over a fixed-size serialised
bucket. Two keystreams live in this module, and they are
domain-separated — the same key and the same 16 counter/nonce bytes
give unrelated pads:

* **buckets** — SHAKE-256 over ``len(key) || key || _BUCKET_DOMAIN ||
  counter``, squeezed once per bucket. One extendable-output call
  replaces a chunk-per-32-bytes loop: the hash calls, not the XOR or
  the serialisation, were the cost of a seal.
* **checkpoints** (:func:`seal_state`) — chunked SHA-256 over ``key ||
  nonce || chunk_index``. Sealed checkpoints are persisted by running
  services, so this version-1 envelope keeps its exact bytes.

Two implementations share the :class:`BucketCipher` interface and one
bucket image, :mod:`repro.oram.records` — what a payload may be and how
a bucket is laid out is decided there, not here:

* :class:`CounterModeCipher` — real byte-level encryption of that image,
  used by the security tests and the encrypted examples.
* :class:`NullCipher` — the image as is, still tracking counter
  freshness, used by the timing experiments where byte-level crypto
  would only burn CPU without changing any measured quantity.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import List

from repro.errors import ConfigError, DecryptionError
from repro.oram import records
from repro.oram.blocks import Block, Bucket

#: Domain tag of the bucket keystream, absorbed after the
#: length-prefixed key: no (key, tag) pair is a prefix of another.
_BUCKET_DOMAIN = b"repro.oram.bucket-keystream"


class BucketCipher:
    """Interface: seal/open a bucket to/from an opaque ciphertext."""

    def seal(self, bucket: Bucket, capacity: int) -> object:
        raise NotImplementedError

    def open(self, sealed: object, capacity: int) -> Bucket:
        raise NotImplementedError

    # Counter state capture, for sealed client-state checkpoints
    # (repro.replica): restoring an engine must also restore its
    # cipher's write counter — a replayed counter would break the
    # fresh-ciphertext guarantee (CounterModeCipher) and the
    # recovered-trace equivalence tests (NullCipher).

    def state(self) -> object:
        return self._counter  # type: ignore[attr-defined]

    def restore(self, state: object) -> None:
        if not isinstance(state, int) or state < 0:
            raise ConfigError(f"invalid cipher counter state {state!r}")
        self._counter = state  # type: ignore[attr-defined]

    def open_blocks(self, sealed: object, capacity: int) -> List[Block]:
        """Decrypt straight to the real blocks, skipping the bucket
        wrapper — the controller hot path, where the bucket would be
        emptied into the stash immediately anyway."""
        return self.open(sealed, capacity).blocks

    def seal_blocks(self, blocks: List[Block], capacity: int) -> object:
        """Seal a bucket given as its real-block list (``len <= Z``
        guaranteed by the caller) — mirror of :meth:`open_blocks`."""
        return self.seal(Bucket.of(capacity, blocks), capacity)


class NullCipher(BucketCipher):
    """Identity (plaintext) cipher with a write counter, for fast
    simulations.

    The sealed form is the flat data plane's packed-record byte string
    (see :mod:`repro.oram.records`): ``counter (16B LE) || nblocks ||
    records``. Packing by value preserves the old tuple form's mutation
    isolation — later mutation of a sealed bucket's blocks cannot reach
    the store — and the counter keeps every write-back fresh (no two
    sealed values compare equal), which the adversary-trace tests rely
    on. The 16-byte counter prefix matches
    :class:`CounterModeCipher`'s layout, so counter harvesting (WAL
    recovery, promotion) is format-agnostic.
    """

    def __init__(self) -> None:
        self._counter = 0

    def seal(self, bucket: Bucket, capacity: int) -> bytes:
        self._counter += 1
        return records.pack(self._counter, bucket.blocks)

    def open(self, sealed: object, capacity: int) -> Bucket:
        return Bucket.of(capacity, self.open_blocks(sealed, capacity))

    def open_blocks(self, sealed: object, capacity: int) -> List[Block]:
        return records.unpack_from(sealed, capacity=capacity)

    def seal_blocks(self, blocks: List[Block], capacity: int) -> bytes:
        self._counter += 1
        return records.pack(self._counter, blocks)

    # Counter hand-out for callers that pack records themselves (the
    # flat store's in-slab seal path): same freshness discipline, the
    # serialisation just happens at the caller's buffer.

    def next_counter(self) -> int:
        self._counter += 1
        return self._counter

    def reserve_counters(self, count: int) -> int:
        """Consume ``count`` counters; returns the first. The caller
        must use them in ascending order, mirroring sequential seals."""
        first = self._counter + 1
        self._counter += count
        return first


class CounterModeCipher(BucketCipher):
    """Counter-mode encryption of the packed-record bucket image.

    The plaintext is :func:`repro.oram.records.pack`'s image — the one
    :class:`NullCipher` stores as is — zero-padded to the size of ``Z``
    records of ``block_bytes`` payload (8 at least: a machine int), so
    every ciphertext of one store has one length whatever the bucket
    holds. The body after the 16 clear counter bytes is XORed with a
    keystream derived from ``(key, counter)``; the counter increments on
    every seal, so sealing the same bucket twice yields unrelated
    ciphertexts, and under the pad a zero tail is as random as a record.

    The keystream is one SHAKE-256 squeeze per bucket. The constructor
    absorbs ``len(key) || key || _BUCKET_DOMAIN`` once; a seal or an
    open copies that midstate, absorbs the 16 counter bytes and squeezes.
    """

    def __init__(self, key: bytes, block_bytes: int) -> None:
        if not key:
            raise ConfigError("encryption key must be non-empty")
        if block_bytes < 1:
            raise ConfigError(f"block_bytes must be >= 1, got {block_bytes}")
        self._max_payload = max(block_bytes, 8)
        self._counter = 0
        key = bytes(key)
        self._midstate = hashlib.shake_256(
            len(key).to_bytes(8, "little") + key + _BUCKET_DOMAIN
        )

    def _keystream(self, counter_prefix: bytes, length: int) -> bytes:
        stream = self._midstate.copy()
        stream.update(counter_prefix)
        return stream.digest(length)

    def _sealed_bytes(self, capacity: int) -> int:
        return records.HEADER_BYTES + capacity * (
            records.REC_BYTES + self._max_payload
        )

    def _xor_body(self, image: bytes, length: int) -> bytes:
        """``image`` with everything past its 16 counter bytes XORed
        with that counter's pad, zero-extended to ``length`` bytes —
        one big-int op (C speed), not a per-byte loop."""
        pad = self._keystream(image[:16], length - 16)
        return (
            int.from_bytes(image, "little")
            ^ (int.from_bytes(pad, "little") << 128)
        ).to_bytes(length, "little")

    def seal(self, bucket: Bucket, capacity: int) -> bytes:
        """Encrypt a bucket into ``17 + capacity * (19 + max(block_bytes,
        8))`` ciphertext bytes.

        Layout: ``counter (16B, clear) || E(nblocks || records || 0…)``.
        The counter must be stored in the clear (hardware does the same)
        so the controller can regenerate the keystream; it reveals only
        write ordering, which the adversary observes anyway.
        """
        blocks = bucket.blocks
        if len(blocks) > capacity:
            raise ConfigError(
                f"bucket holds {len(blocks)} blocks, capacity {capacity}"
            )
        self._counter += 1
        image = records.pack(self._counter, blocks, self._max_payload)
        return self._xor_body(image, self._sealed_bytes(capacity))

    def open(self, sealed: object, capacity: int) -> Bucket:
        if not isinstance(sealed, (bytes, bytearray)):
            raise DecryptionError("ciphertext must be bytes")
        expected = self._sealed_bytes(capacity)
        if len(sealed) != expected:
            raise DecryptionError(
                f"ciphertext length {len(sealed)} != expected {expected}"
            )
        image = self._xor_body(sealed, expected)
        return Bucket.of(capacity, records.unpack_from(image, capacity=capacity))


#: Sealed-state framing: magic, format version, nonce length.
_STATE_MAGIC = b"RPSL"
_STATE_HEADER = struct.Struct("<4sBB")
_STATE_NONCE_BYTES = 16


#: ``chunk_index`` suffixes of the checkpoint keystream, grown on demand.
_CHUNK_SUFFIXES: List[bytes] = []


def _state_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream over ``key || nonce || index``
    (the version-1 checkpoint format): one midstate over the common
    prefix, copied per 32-byte chunk."""
    chunks = -(-length // 32)
    for index in range(len(_CHUNK_SUFFIXES), chunks):
        _CHUNK_SUFFIXES.append(index.to_bytes(8, "little"))
    copy = hashlib.sha256(key + nonce).copy
    out = []
    for suffix in _CHUNK_SUFFIXES[:chunks]:
        chunk = copy()
        chunk.update(suffix)
        out.append(chunk.digest())
    return b"".join(out)[:length]


def seal_state(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Seal an opaque client-state blob (checkpoints, ``repro.replica``).

    Counter-mode like :class:`CounterModeCipher`, on its own keystream
    (:func:`_state_keystream`), over arbitrary bytes with an explicit
    caller-supplied ``nonce`` (which must never repeat under one key —
    checkpoint writers use the monotone access sequence number). A
    SHA-256 digest of the plaintext rides inside the sealed envelope, so
    :func:`open_state` detects truncation, corruption and wrong-key
    opens.

    Layout: ``magic(4) version(1) nonce_len(1) nonce ||
    E(digest(32) || plaintext)``.
    """
    if not key:
        raise ConfigError("state key must be non-empty")
    if len(nonce) != _STATE_NONCE_BYTES:
        raise ConfigError(
            f"nonce must be {_STATE_NONCE_BYTES} bytes, got {len(nonce)}"
        )
    body = hashlib.sha256(plaintext).digest() + plaintext
    pad = _state_keystream(key, nonce, len(body))
    sealed_body = (
        int.from_bytes(body, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(len(body), "little")
    header = _STATE_HEADER.pack(_STATE_MAGIC, 1, len(nonce))
    return header + nonce + sealed_body


def open_state(key: bytes, sealed: bytes) -> bytes:
    """Open a blob sealed by :func:`seal_state`; raises
    :class:`DecryptionError` on any corruption or key mismatch."""
    if len(sealed) < _STATE_HEADER.size:
        raise DecryptionError("sealed state too short for header")
    magic, version, nonce_len = _STATE_HEADER.unpack_from(sealed)
    if magic != _STATE_MAGIC or version != 1:
        raise DecryptionError("not a sealed state blob (bad magic/version)")
    if nonce_len != _STATE_NONCE_BYTES:
        raise DecryptionError(f"unexpected nonce length {nonce_len}")
    offset = _STATE_HEADER.size
    nonce = sealed[offset : offset + nonce_len]
    body = sealed[offset + nonce_len :]
    if len(body) < 32:
        raise DecryptionError("sealed state truncated")
    pad = _state_keystream(key, nonce, len(body))
    image = (
        int.from_bytes(body, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(len(body), "little")
    digest, plaintext = image[:32], image[32:]
    if hashlib.sha256(plaintext).digest() != digest:
        raise DecryptionError("sealed state digest mismatch (corrupt or wrong key)")
    return plaintext


def promotion_counter(floor: int) -> int:
    """Cipher counter for a promoted (recovered) engine.

    A recovered engine must never re-seal under a ``(key, counter)``
    pair that ever produced observable ciphertext — reusing a
    counter-mode keystream is a two-time pad leaking the XOR of the two
    bucket plaintexts. ``floor`` is the largest counter the promoting
    node can *see* was consumed (checkpoint state plus a scan of the
    local WAL, torn tail included); the returned value is strictly
    greater, so every locally observed counter is deterministically
    retired. The high 64 bits additionally take a fresh random epoch,
    covering counters the crashed primary consumed past the locally
    visible horizon (sealed buckets it wrote or shipped that never
    reached this replica): a promoted engine lands in a counter range
    disjoint from every earlier run except with negligible probability.
    """
    if not isinstance(floor, int) or isinstance(floor, bool) or floor < 0:
        raise ConfigError(f"invalid cipher counter floor {floor!r}")
    epoch = int.from_bytes(os.urandom(8), "little") << 64
    return max(floor + 1, epoch)


def state_nonce(seq: int, salt: bytes = b"") -> bytes:
    """Derive the checkpoint nonce for access sequence number ``seq``.

    Sequence numbers are monotone per replica directory, so the nonce
    never repeats under one key; ``salt`` separates independent streams
    (e.g. cluster shards) sharing a key.
    """
    return hashlib.sha256(
        b"ckpt-nonce" + salt + seq.to_bytes(16, "little")
    ).digest()[:_STATE_NONCE_BYTES]
