"""Write-ahead log of public access records (``repro.replica``).

One :class:`WalRecord` per tree access, appended by the engine *before*
the bucket writes reach the storage backend, so after any crash the log
is a superset of the backend: replaying the WAL into an empty store
reconstructs the backend at any access boundary (point-in-time
recovery), and shipping the log to a standby replicates the backend
without a second code path.

The log is public by construction. A record holds exactly what the
untrusted storage server observes for that access anyway — the
scheduled leaf label and the sealed (encrypted) bucket writes — so the
replication stream opens no leakage channel beyond the already-public
trace; :mod:`repro.security.replication` verifies the equivalence.

Framing mirrors :class:`~repro.serve.backends.FileBackend`: each record
is a fixed header plus CRC-checked body, recovery replays until the
first short or corrupt record and truncates the torn tail. Sealed
bucket values are ``bytes`` and stored raw (write tag 0). Tag 1 — a
serialised-object form older releases wrote — is never written or
decoded; a CRC-valid record carrying it is an error, not a torn tail
(truncating it would destroy an old log).
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, ReplicationError

#: Record header: seq, leaf, write count, body CRC32.
_RECORD = struct.Struct("<QqII")
#: Per-write sub-header: node id, payload tag, payload length.
_WRITE = struct.Struct("<qBI")
_TAG_BYTES = 0
#: Retired serialised-object payloads: framing still understood (so the
#: error can name the record), contents never decoded.
_TAG_RETIRED = 1

#: Default WAL file name inside a replica directory.
WAL_FILENAME = "wal.log"


@dataclass(slots=True)
class WalRecord:
    """One access's public footprint: ``(seq, leaf, bucket writes)``.

    ``writes`` preserves the engine's write order (leaf level first,
    stopping at the fork point) — order matters both for replaying into
    last-wins stores and for the trace-equivalence verification.
    """

    seq: int
    leaf: int
    writes: List[Tuple[int, bytes]]

    def encode(self) -> bytes:
        """Serialise to the framed wire/disk form."""
        body = bytearray()
        for node_id, sealed in self.writes:
            body += _WRITE.pack(node_id, _TAG_BYTES, len(sealed))
            body += sealed
        header = _RECORD.pack(
            self.seq, self.leaf, len(self.writes), zlib.crc32(body)
        )
        return header + body  # bytes + bytearray is bytes: the one copy

    @classmethod
    def decode(cls, raw: bytes) -> "WalRecord":
        """Parse one full encoded record (raises on any corruption)."""
        record, consumed = cls.decode_from(raw, 0)
        if record is None or consumed != len(raw):
            raise ReplicationError("malformed WAL record")
        return record

    @classmethod
    def decode_from(
        cls, raw: bytes, offset: int
    ) -> Tuple[Optional["WalRecord"], int]:
        """Decode the record starting at ``offset``.

        Returns ``(record, end_offset)``, or ``(None, offset)`` when the
        bytes from ``offset`` are short or corrupt — the torn-tail
        signal recovery stops on. An intact (CRC-valid) record holding
        a retired tag-1 payload raises :class:`ReplicationError`: it is
        an old log, not a torn one, and no payload byte is interpreted.
        """
        if offset + _RECORD.size > len(raw):
            return None, offset
        seq, leaf, num_writes, crc = _RECORD.unpack_from(raw, offset)
        cursor = offset + _RECORD.size
        body_start = cursor
        writes: List[Tuple[int, bytes]] = []
        retired = False
        for _ in range(num_writes):
            if cursor + _WRITE.size > len(raw):
                return None, offset
            node_id, tag, length = _WRITE.unpack_from(raw, cursor)
            cursor += _WRITE.size
            if cursor + length > len(raw) or tag not in (_TAG_BYTES, _TAG_RETIRED):
                return None, offset
            retired = retired or tag == _TAG_RETIRED
            writes.append((node_id, raw[cursor : cursor + length]))
            cursor += length
        if zlib.crc32(raw[body_start:cursor]) != crc:
            return None, offset
        if retired:
            raise ReplicationError(
                f"WAL record seq {seq} at offset {offset} holds a tag-1 "
                "(serialised-object) sealed value; that format is retired "
                "and never decoded — an older release wrote this log"
            )
        return cls(seq=seq, leaf=leaf, writes=writes), cursor


def max_sealed_counter(path: str) -> int:
    """Greatest cipher counter visible anywhere in the WAL file at
    ``path`` — *including* a torn or corrupt tail (0 if none found).

    Recovery must never let a promoted engine reuse a ``(key, counter)``
    pair that ever produced observable ciphertext: every counter in the
    log — even inside a record that will be truncated as torn, whose
    partially written sealed buckets still sit on disk — is burned. The
    walk is deliberately lenient: it keeps parsing past CRC failures
    using the length fields alone, harvests the clear 16-byte
    little-endian counter prefix (both ciphers' sealed layout) from any
    payload whose prefix made it to disk, and stops only when the
    framing itself gives out. Overshooting (reading garbage as a huge
    counter) merely skips keystreams, which is always safe.
    """
    best = 0
    if not os.path.exists(path):
        return best
    with open(path, "rb") as handle:
        raw = handle.read()
    offset = 0
    while offset + _RECORD.size <= len(raw):
        _seq, _leaf, num_writes, _crc = _RECORD.unpack_from(raw, offset)
        cursor = offset + _RECORD.size
        parseable = True
        for _ in range(num_writes):
            if cursor + _WRITE.size > len(raw):
                parseable = False
                break
            _node_id, tag, length = _WRITE.unpack_from(raw, cursor)
            if tag not in (_TAG_BYTES, _TAG_RETIRED):
                parseable = False
                break
            cursor += _WRITE.size
            payload = raw[cursor : cursor + length]
            if tag == _TAG_BYTES and len(payload) >= 16:
                best = max(best, int.from_bytes(payload[:16], "little"))
            if len(payload) < length:
                parseable = False
                break
            cursor += length
        if not parseable:
            break
        offset = cursor
    return best


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` so a rename/create in it
    survives power loss (POSIX requires syncing the parent directory,
    not just the file)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only, CRC-framed, torn-tail-recovering access log.

    Opening replays the file, indexes every record's byte offset by
    sequence number (so tailing and truncation are O(1) seeks), and
    truncates a torn tail exactly as :class:`FileBackend` does. Appends
    are flushed to the OS per record (process-crash durability);
    power-loss durability is bounded by the last :meth:`sync` — the
    checkpoint writer syncs the WAL before sealing, so a sealed
    checkpoint never references a non-durable WAL prefix.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ConfigError("WriteAheadLog requires a path")
        self.path = str(path)
        #: seq -> byte offset of that record (insertion-ordered).
        self._offsets: Dict[int, int] = {}
        self.first_seq = 0
        self.last_seq = 0
        self.torn_tail = False
        self._valid_bytes = 0
        self._replay()
        if self.torn_tail:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_bytes)
        self._file = open(self.path, "ab")

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        while offset < len(raw):
            try:
                record, end = WalRecord.decode_from(raw, offset)
            except ReplicationError as exc:
                raise ReplicationError(f"{self.path}: {exc}") from None
            if record is None:
                self.torn_tail = True
                break
            if self._offsets and record.seq != self.last_seq + 1:
                # A non-contiguous record cannot be replayed or shipped
                # coherently; treat it like a corrupt tail.
                self.torn_tail = True
                break
            if not self._offsets:
                self.first_seq = record.seq
            self._offsets[record.seq] = offset
            self.last_seq = record.seq
            offset = end
        self._valid_bytes = offset

    # ---------------------------------------------------------------- append

    def __len__(self) -> int:
        return len(self._offsets)

    def append(self, record: WalRecord) -> bytes:
        """Append one record; returns its encoded bytes (for shipping).

        Sequence numbers must be contiguous — the replication protocol
        and point-in-time recovery both rely on it.
        """
        if self._offsets and record.seq != self.last_seq + 1:
            raise ReplicationError(
                f"WAL append out of order: seq {record.seq} after "
                f"{self.last_seq}"
            )
        encoded = record.encode()
        self._offsets[record.seq] = self._valid_bytes
        if len(self._offsets) == 1:
            self.first_seq = record.seq
        self.last_seq = record.seq
        self._file.write(encoded)
        # Flush each append to the OS so a *process* crash loses at most
        # the record being written (same stance as FileBackend).
        self._file.flush()
        self._valid_bytes += len(encoded)
        return encoded

    def sync(self) -> None:
        """fsync the log (power-loss durability up to this point)."""
        self._file.flush()
        os.fsync(self._file.fileno())

    # ----------------------------------------------------------------- reads

    def read_from(self, seq: int) -> Iterator[WalRecord]:
        """Yield records with sequence number >= ``seq``, in order.

        Reads through a dedicated handle, so tailing is safe while the
        owning engine keeps appending (appends only ever extend the
        file past ``_valid_bytes``).
        """
        start = max(seq, self.first_seq)
        if not self._offsets or start > self.last_seq:
            return
        offset = self._offsets[start]
        limit = self._valid_bytes
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read(limit - offset)
        cursor = 0
        while cursor < len(raw):
            record, end = WalRecord.decode_from(raw, cursor)
            if record is None:
                raise ReplicationError(
                    f"WAL {self.path} corrupt at offset {offset + cursor}"
                )
            yield record
            cursor = end

    def record_bytes(self, seq: int) -> Optional[bytes]:
        """Encoded bytes of the record at ``seq`` (None if not held).

        Lets a standby byte-compare a re-shipped "duplicate" frame
        against what it already applied — a same-seq frame with
        different bytes is timeline divergence, not a duplicate.
        """
        offset = self._offsets.get(seq)
        if offset is None:
            return None
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read(self._valid_bytes - offset)
        record, end = WalRecord.decode_from(raw, 0)
        if record is None or record.seq != seq:
            raise ReplicationError(
                f"WAL {self.path} corrupt at offset {offset} (seq {seq})"
            )
        return raw[:end]

    def replay_buckets(self, upto_seq: Optional[int] = None) -> Dict[int, bytes]:
        """Last-wins bucket image of the log at ``upto_seq`` (None = all).

        This *is* the storage backend's contents at that access
        boundary — the recovery path materialises it into a fresh
        store.
        """
        buckets: Dict[int, bytes] = {}
        for record in self.read_from(self.first_seq or 1):
            if upto_seq is not None and record.seq > upto_seq:
                break
            for node_id, sealed in record.writes:
                buckets[node_id] = sealed
        return buckets

    # ------------------------------------------------------------ truncation

    def truncate_after(self, seq: int) -> int:
        """Drop records with sequence number > ``seq``; returns the
        number dropped.

        Used at promotion: accesses past the recovered checkpoint were
        never acknowledged (``ack_mode="checkpoint"``), and the new
        primary's own accesses must continue the sequence without
        collision.
        """
        doomed = [s for s in self._offsets if s > seq]
        if not doomed:
            return 0
        cut = min(self._offsets[s] for s in doomed)
        self._file.flush()
        self._file.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(cut)
            handle.flush()
            os.fsync(handle.fileno())
        for s in doomed:
            del self._offsets[s]
        self._valid_bytes = cut
        self.last_seq = max(self._offsets) if self._offsets else 0
        if not self._offsets:
            self.first_seq = 0
        self._file = open(self.path, "ab")
        return len(doomed)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()


class EpochDigester:
    """Running per-epoch digest over encoded WAL record bytes.

    Epoch ``e`` (1-based) covers sequence numbers
    ``(e-1)*epoch_accesses + 1 .. e*epoch_accesses``. Both ends of a
    replication pair feed the same record bytes through the same
    digester, so a digest mismatch at an epoch boundary pins divergence
    (bit rot, a missed record, a software bug) to one epoch window.
    Digests cover only public bytes — comparing them leaks nothing.
    """

    def __init__(self, epoch_accesses: int) -> None:
        if epoch_accesses < 1:
            raise ConfigError(
                f"epoch_accesses must be >= 1, got {epoch_accesses}"
            )
        self.epoch_accesses = epoch_accesses
        self._hash = hashlib.sha256()
        self._count = 0
        self.epoch = 1
        #: Completed epochs: (epoch, upto_seq, hexdigest).
        self.completed: List[Tuple[int, int, str]] = []

    def feed(self, seq: int, encoded: bytes) -> Optional[Tuple[int, int, str]]:
        """Absorb one record; returns ``(epoch, upto_seq, digest)`` when
        this record closes an epoch, else None."""
        self._hash.update(encoded)
        self._count += 1
        if self._count < self.epoch_accesses:
            return None
        result = (self.epoch, seq, self._hash.hexdigest())
        self.completed.append(result)
        self.epoch += 1
        self._count = 0
        self._hash = hashlib.sha256()
        return result

    def prune_completed(self, upto_seq: int, keep_newest: int = 16) -> int:
        """Drop completed digests covering only records ``<= upto_seq``;
        returns the number dropped.

        Callers prune below the oldest *retained* checkpoint watermark:
        no standby can need to verify records older than the oldest
        state anyone can still promote from, so keeping those digests
        forever would grow memory (and reconnect re-ship cost) without
        bound on a long-lived primary. The ``keep_newest`` entries are
        always retained regardless of the watermark — under
        ``ack_mode="checkpoint"`` checkpoints seal far more often than
        epochs complete, and pruning strictly below the checkpoint
        horizon would then leave nothing for standbys to verify.
        """
        if keep_newest < 0:
            raise ConfigError(f"keep_newest must be >= 0, got {keep_newest}")
        droppable = (
            self.completed[:-keep_newest] if keep_newest else self.completed
        )
        doomed = {e for e in droppable if e[1] <= upto_seq}
        if not doomed:
            return 0
        self.completed = [e for e in self.completed if e not in doomed]
        return len(doomed)


__all__ = [
    "WAL_FILENAME",
    "WalRecord",
    "WriteAheadLog",
    "EpochDigester",
    "fsync_directory",
    "max_sealed_counter",
]
