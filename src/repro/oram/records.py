"""Packed block records — the flat data plane's storage format.

One sealed bucket is a contiguous byte string:

``counter (16B LE) || nblocks (1B) || record_0 || ... || record_n-1``

and each record is::

    addr (int64 LE) | leaf (int64 LE) | tag (u8) | length (u16 LE) | payload

The 16-byte little-endian counter prefix matches
:class:`~repro.oram.encryption.CounterModeCipher`'s ciphertext layout,
so everything that harvests write counters from sealed bytes (the WAL's
``max_sealed_counter`` scan, promotion counter retirement) works on
both cipher families without a format switch.

A payload is ``None``, an ``int``, ``bytes`` or a ``str`` — tagged by
type, so each comes back as the type and length it went in with: the
simulator payloads (``None`` and machine ints) and the service payloads
(``str``/``bytes``) encode with one or two ``struct`` calls. Anything
else is a ``TypeError`` at pack time; type checks are exact (``type(p)
is int``), so ``bool`` — an ``int`` subclass — is refused rather than
silently collapsed to ``int``. Nothing read back is ever evaluated: a
sealed image decodes to those four types or not at all.

This module owns *format*, not *policy*: it packs into caller-provided
buffers (the flat store's preallocated slabs) or fresh bytes (backends,
WAL shipping, the cipher's plaintext), and rejects truncated or corrupt
input with :class:`~repro.errors.DecryptionError`.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from repro.errors import ConfigError, DecryptionError
from repro.oram.blocks import Block

#: Sealed-bucket header: 16-byte LE counter + 1-byte block count.
HEADER_BYTES = 17

#: Per-record fixed part: addr (q) | leaf (q) | tag (B) | length (H).
_REC = struct.Struct("<qqBH")
REC_BYTES = _REC.size  # 19

#: One-shot record packers for the hot payload shapes.
_REC_I64 = struct.Struct("<qqBHq")  # int payload that fits a machine word
_CTR = struct.Struct("<QQ")  # 128-bit counter as two u64 halves

TAG_NONE = 0
TAG_INT = 1
TAG_BYTES = 2
TAG_STR = 3

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_MAX_PAYLOAD = 0xFFFF


def slot_capacity(bucket_slots: int, payload_hint: int = 64) -> int:
    """Flat-store slot size covering ``Z`` records of ``payload_hint``
    payload bytes (larger sealed buckets spill to a side map)."""
    return HEADER_BYTES + bucket_slots * (REC_BYTES + max(payload_hint, 16))


def encode_payload(payload: object) -> tuple:
    """``(tag, raw_bytes)`` for one payload object."""
    kind = type(payload)
    if payload is None:
        return TAG_NONE, b""
    if kind is int:
        raw = payload.to_bytes(
            1 + (payload.bit_length() >> 3), "little", signed=True
        )
        return TAG_INT, raw
    if kind is bytes:
        return TAG_BYTES, payload
    if kind is str:
        # surrogatepass: lone surrogates (the JSON wire can deliver them) encode.
        return TAG_STR, payload.encode("utf-8", "surrogatepass")
    raise TypeError(
        f"block payloads must be None, int, bytes or str; got {kind.__name__}"
    )


def decode_payload(tag: int, raw) -> object:
    """Inverse of :func:`encode_payload` (``raw`` may be a memoryview)."""
    if tag == TAG_NONE:
        return None
    if tag == TAG_INT:
        return int.from_bytes(raw, "little", signed=True)
    if tag == TAG_BYTES:
        return bytes(raw)
    if tag == TAG_STR:
        try:
            return str(raw, "utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise DecryptionError(f"corrupt text payload: {exc}") from None
    raise DecryptionError(f"unknown payload tag {tag}")


def pack_into(buf, base: int, cap: int, counter: int, blocks) -> int:
    """Pack a sealed bucket into ``buf`` at ``base``; the image must end
    by ``cap`` (an absolute offset into ``buf``).

    Returns the end offset, or ``-1`` if the records would overrun
    ``cap`` (the caller then falls back to :func:`pack` + spill). On
    ``-1`` the slot contents are undefined — the caller must not mark
    the slot live.
    """
    _CTR.pack_into(
        buf, base, counter & 0xFFFFFFFFFFFFFFFF, (counter >> 64) & 0xFFFFFFFFFFFFFFFF
    )
    buf[base + 16] = len(blocks)
    off = base + HEADER_BYTES
    for block in blocks:
        payload = block.payload
        kind = type(payload)
        if kind is int and _I64_MIN <= payload <= _I64_MAX:
            if off + REC_BYTES + 8 > cap:
                return -1
            _REC_I64.pack_into(buf, off, block.addr, block.leaf, TAG_INT, 8, payload)
            off += REC_BYTES + 8
            continue
        if payload is None:
            if off + REC_BYTES > cap:
                return -1
            _REC.pack_into(buf, off, block.addr, block.leaf, TAG_NONE, 0)
            off += REC_BYTES
            continue
        tag, raw = encode_payload(payload)
        length = len(raw)
        end = off + REC_BYTES + length
        if length > _MAX_PAYLOAD or end > cap:
            return -1
        _REC.pack_into(buf, off, block.addr, block.leaf, tag, length)
        buf[off + REC_BYTES : end] = raw
        off = end
    return off


def pack(counter: int, blocks, max_payload: int = _MAX_PAYLOAD) -> bytes:
    """Pack a sealed bucket into fresh bytes (backend/WAL form). A
    payload encoding longer than ``max_payload`` (machine ints: always
    8 bytes, unchecked) is a :class:`~repro.errors.ConfigError`."""
    out = bytearray(HEADER_BYTES)
    _CTR.pack_into(
        out, 0, counter & 0xFFFFFFFFFFFFFFFF, (counter >> 64) & 0xFFFFFFFFFFFFFFFF
    )
    out[16] = len(blocks)
    for block in blocks:
        payload = block.payload
        kind = type(payload)
        if kind is int and _I64_MIN <= payload <= _I64_MAX:
            out += _REC_I64.pack(block.addr, block.leaf, TAG_INT, 8, payload)
            continue
        tag, raw = encode_payload(payload)
        if len(raw) > max_payload:
            raise ConfigError(
                f"payload of {len(raw)} bytes exceeds the {max_payload}-byte limit"
            )
        out += _REC.pack(block.addr, block.leaf, tag, len(raw))
        out += raw
    return bytes(out)


def unpack_counter(sealed) -> int:
    """The 16-byte LE write counter of a sealed bucket."""
    if len(sealed) < HEADER_BYTES:
        raise DecryptionError("sealed bucket too short for its header")
    lo, hi = _CTR.unpack_from(sealed, 0)
    return (hi << 64) | lo


def unpack_from(
    buf, base: int = 0, end: Optional[int] = None, capacity: int = 0xFF
) -> List[Block]:
    """Decode the real blocks of a sealed bucket at ``buf[base:]``.

    ``end`` bounds the image (defaults to ``len(buf)``); a record that
    runs past it, or a block count above ``capacity`` (the bucket's
    ``Z``), raises :class:`~repro.errors.DecryptionError` — the
    truncation/corruption guard the property tests exercise.
    """
    if end is None:
        end = len(buf)
    if base + HEADER_BYTES > end:
        raise DecryptionError("sealed bucket too short for its header")
    nblocks = buf[base + 16]
    if nblocks > capacity:
        raise DecryptionError(
            f"sealed bucket claims {nblocks} blocks, capacity {capacity}"
        )
    off = base + HEADER_BYTES
    blocks: List[Block] = []
    unpack = _REC.unpack_from
    rec = REC_BYTES
    for _ in range(nblocks):
        if off + rec > end:
            raise DecryptionError("sealed bucket truncated mid-record")
        addr, leaf, tag, length = unpack(buf, off)
        off += rec
        stop = off + length
        if stop > end:
            raise DecryptionError("sealed bucket payload truncated")
        if tag == TAG_INT and length == 8:
            payload: object = int.from_bytes(buf[off:stop], "little", signed=True)
        else:
            payload = decode_payload(tag, buf[off:stop])
        blocks.append(Block(addr, leaf, payload))
        off = stop
    return blocks


def pack_many(counters: Sequence[int], block_lists) -> List[bytes]:
    """Pack several buckets (mirrors ``write_many``; one list in, one
    list of sealed images out, index-aligned)."""
    return [pack(counter, blocks) for counter, blocks in zip(counters, block_lists)]
