"""Pluggable sealed-bucket storage backends for the oblivious service.

A backend is the *untrusted storage server* of the service deployment
model: it holds one opaque sealed bucket per tree node and observes
every access — each backend therefore carries an optional
:class:`~repro.oram.memory.TraceRecorder`, the measurement point the
security tests read.

The contract has two layers:

* a **synchronous mapping protocol** (``get`` / ``__setitem__`` /
  ``__contains__`` / ``__iter__`` / ``__len__``) plus its batch forms
  ``get_many`` / ``put_many``, duck-type compatible with the dict
  inside :class:`~repro.oram.memory.UntrustedMemory`, so any backend
  can also sit under the batch simulator via
  ``UntrustedMemory(..., backend=...)``;
* **batch-only async ops** (``aget_many`` / ``aput_many``) — one call
  per path segment, the only operations the service engine issues.
  This is where fault injection can express *time* (latency jitter,
  stalls that trip the operation timeout) as well as errors, and the
  one place a fault injector or an instrumented backend overrides to
  see every bucket the service moves.

A batch records exactly the per-node trace events the equivalent
per-node sequence would; :class:`FileBackend` additionally coalesces a
write batch into one framed append. Sealed values must be ``bytes`` —
anything else is a ``TypeError`` at the storage boundary.

Three implementations:

* :class:`InMemoryBackend` — a plain dict.
* :class:`FileBackend` — crash-safe append-log persistence: every put
  appends a CRC-framed record, recovery replays the log and stops at
  the first torn/corrupt tail record, and :meth:`FileBackend.compact`
  rewrites the live set atomically (write temp + fsync + rename).
* :class:`FaultyBackend` — wraps any backend with a deterministic,
  seeded :class:`FaultPlan` injecting transient errors, stalls and
  latency jitter. Faults fire *after* the access is recorded in the
  trace (the storage server saw the request even when it failed it) and
  are independent of the key, so retries leak nothing.
"""

from __future__ import annotations

import asyncio
import os
import random
import struct
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.config import ServiceConfig
from repro.errors import BackendError, ConfigError, TransientBackendError
from repro.oram.memory import MemoryOp, TraceRecorder
from repro.replica.wal import fsync_directory


def available_backends() -> Tuple[str, ...]:
    """Backend names accepted by ``ServiceConfig.backend``.

    Reads :data:`BACKEND_FACTORIES`, so registering a backend there (or
    via :func:`register_backend`) makes it visible to config validation,
    ``make_backend`` and the CLI all at once.
    """
    return tuple(BACKEND_FACTORIES)


def _not_bytes(sealed: object) -> TypeError:
    """The storage boundary's contract is exactly ``bytes``; every write
    path checks ``type(sealed) is not bytes`` inline and raises this."""
    return TypeError(
        "sealed buckets must be bytes at the storage boundary, "
        f"got {type(sealed).__name__}"
    )


class StorageBackend:
    """Sealed-bucket store keyed by tree node id (mapping protocol).

    Subclasses implement :meth:`_load` and :meth:`_save`; this base
    provides the mapping protocol, the trace recording, and default
    async batch ops that simply delegate to the sync batch ops.
    """

    name = "backend"

    def __init__(self, trace: Optional[TraceRecorder] = None) -> None:
        #: Adversary-visible access trace (None = not recorded).
        self.trace = trace
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------- subclass storage ops

    def _load(self, node_id: int) -> Optional[object]:
        raise NotImplementedError

    def _save(self, node_id: int, sealed: object) -> None:
        raise NotImplementedError

    def _keys(self) -> Iterator[int]:
        raise NotImplementedError

    def _len(self) -> int:
        raise NotImplementedError

    # ------------------------------------------------------ mapping protocol

    def _record(self, op: MemoryOp, node_id: int) -> None:
        if self.trace is not None and self.trace.enabled:
            self.trace.record(op, node_id, 0.0)

    def get(self, node_id: int, default: Optional[object] = None) -> Optional[object]:
        self.reads += 1
        self._record(MemoryOp.READ, node_id)
        sealed = self._load(node_id)
        return default if sealed is None else sealed

    def __getitem__(self, node_id: int) -> object:
        sealed = self.get(node_id)
        if sealed is None:
            raise KeyError(node_id)
        return sealed

    def __setitem__(self, node_id: int, sealed: object) -> None:
        if type(sealed) is not bytes:
            raise _not_bytes(sealed)
        self.writes += 1
        self._record(MemoryOp.WRITE, node_id)
        self._save(node_id, sealed)

    # -------------------------------------------------------------- batch API

    def get_many(self, node_ids: List[int]) -> List[Optional[bytes]]:
        """Read a batch of sealed buckets — the primary hot-path read.

        One result per requested node, in request order; ``None`` where
        the bucket has never been written. Semantically identical to
        ``[self.get(n) for n in node_ids]`` — per-node READ trace
        records in request order, per-node read counters — but a single
        backend call, so implementations can coalesce the I/O. The base
        implementation loops :meth:`_load`.
        """
        load = self._load
        record = self._record
        self.reads += len(node_ids)
        out: List[Optional[bytes]] = []
        for node_id in node_ids:
            record(MemoryOp.READ, node_id)
            out.append(load(node_id))
        return out

    def put_many(self, pairs: List[Tuple[int, bytes]]) -> None:
        """Write a batch of sealed buckets — the primary hot-path write.

        Semantically identical to ``for n, s in pairs: self[n] = s``
        (per-node WRITE trace records in order, bytes-only contract)
        with the I/O coalesced by implementations. The base
        implementation loops :meth:`_save`.
        """
        record = self._record
        save = self._save
        self.writes += len(pairs)
        for node_id, sealed in pairs:
            if type(sealed) is not bytes:
                raise _not_bytes(sealed)
            record(MemoryOp.WRITE, node_id)
            save(node_id, sealed)

    def __delitem__(self, node_id: int) -> None:
        raise BackendError("sealed buckets are only ever overwritten")

    def __contains__(self, node_id: int) -> bool:
        return self._load(node_id) is not None

    def __iter__(self) -> Iterator[int]:
        return self._keys()

    def __len__(self) -> int:
        return self._len()

    # -------------------------------------------------------- async batch ops

    async def aget_many(self, node_ids: List[int]) -> List[Optional[bytes]]:
        """Async path-segment read — the service engine's only read."""
        return self.get_many(node_ids)

    async def aput_many(self, pairs: List[Tuple[int, bytes]]) -> None:
        """Async path-segment write — the service engine's only write."""
        self.put_many(pairs)

    # ------------------------------------------------------------- lifecycle

    def sync(self) -> None:
        """Flush durable state (no-op for volatile backends)."""

    def close(self) -> None:
        self.sync()


class InMemoryBackend(StorageBackend):
    """The current in-process store: a plain dict of sealed buckets."""

    name = "memory"

    def __init__(self, trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(trace)
        self.data: Dict[int, object] = {}

    def _load(self, node_id: int) -> Optional[object]:
        return self.data.get(node_id)

    def _save(self, node_id: int, sealed: object) -> None:
        self.data[node_id] = sealed

    def _keys(self) -> Iterator[int]:
        return iter(self.data)

    def _len(self) -> int:
        return len(self.data)


#: FileBackend record header: node_id, payload length, payload CRC32, tag.
_RECORD = struct.Struct("<qIIB")
_TAG_BYTES = 0  # payload is the sealed bucket's raw bytes
_TAG_RETIRED = 1  # serialised sealed object: never written, rejected on replay


class FileBackend(StorageBackend):
    """Crash-safe bucket persistence: an append-only CRC-framed log.

    Every put appends one record and flushes it to the OS; the last
    record per node wins. On open, the log is replayed into an
    in-memory index and replay stops at the first short or CRC-corrupt
    record. A *process* crash mid-append (torn write) therefore loses
    at most the bucket being written, never the store; surviving an OS
    crash or power loss is only guaranteed up to the last fsync —
    :meth:`sync`, :meth:`compact` or :meth:`close`. :meth:`compact`
    rewrites the live set to a temp file, fsyncs, and atomically
    renames over the log.

    Sealed values are ``bytes`` and stored raw (record tag 0). An
    intact record with the retired tag 1 (a serialised-object form only
    older releases wrote) fails the open with :class:`BackendError`
    naming the file and offset; the file is not modified.
    """

    name = "file"

    def __init__(
        self, path: str, trace: Optional[TraceRecorder] = None
    ) -> None:
        super().__init__(trace)
        if not path:
            raise ConfigError("FileBackend requires a store path")
        self.path = str(path)
        self._index: Dict[int, bytes] = {}
        #: Records appended since the last compaction (live + stale).
        self.records_appended = 0
        self.recovered_records = 0
        self.torn_tail = False
        self._valid_bytes = 0
        self._replay()
        if self.torn_tail:
            # Drop the torn bytes, else later appends would sit behind
            # them and be unreachable to the next recovery replay.
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_bytes)
        self._file = open(self.path, "ab")

    # -------------------------------------------------------------- framing

    @staticmethod
    def _encode(node_id: int, sealed: bytes) -> bytes:
        header = _RECORD.pack(node_id, len(sealed), zlib.crc32(sealed), _TAG_BYTES)
        return header + sealed

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        while offset + _RECORD.size <= len(raw):
            node_id, length, crc, tag = _RECORD.unpack_from(raw, offset)
            start = offset + _RECORD.size
            end = start + length
            if end > len(raw):
                self.torn_tail = True  # crash mid-append: drop the tail
                break
            payload = raw[start:end]
            if zlib.crc32(payload) != crc or tag not in (_TAG_BYTES, _TAG_RETIRED):
                self.torn_tail = True
                break
            if tag == _TAG_RETIRED:
                # An intact retired-format record is an old store, not
                # a torn tail: refuse before __init__ can truncate it.
                raise BackendError(
                    f"{self.path}: record for node {node_id} at offset "
                    f"{offset} has tag 1, a serialised-object format that "
                    "is retired and never decoded — an older release "
                    "wrote this store"
                )
            self._index[node_id] = payload
            self.recovered_records += 1
            offset = end
        self._valid_bytes = offset
        if offset < len(raw) and not self.torn_tail:
            self.torn_tail = True

    # ------------------------------------------------------------ storage ops

    def _load(self, node_id: int) -> Optional[object]:
        return self._index.get(node_id)

    def _save(self, node_id: int, sealed: bytes) -> None:
        self._append([(node_id, sealed)])

    def _append(self, pairs: List[Tuple[int, bytes]]) -> None:
        """One framed ``write`` for the whole batch, flushed to the OS so
        a *process* crash loses at most the record being written
        (power-loss durability is bounded by the last fsync —
        sync()/compact()/close()). Recovery replay cannot tell a batch
        from the equivalent sequence of single appends, and a torn tail
        still loses only the record it tore."""
        encode = self._encode
        self._file.write(b"".join([encode(n, sealed) for n, sealed in pairs]))
        self._file.flush()
        self._index.update(pairs)
        self.records_appended += len(pairs)

    def _keys(self) -> Iterator[int]:
        return iter(self._index)

    def _len(self) -> int:
        return len(self._index)

    def put_many(self, pairs: List[Tuple[int, bytes]]) -> None:
        record = self._record
        for node_id, sealed in pairs:
            if type(sealed) is not bytes:
                raise _not_bytes(sealed)
            record(MemoryOp.WRITE, node_id)
        self.writes += len(pairs)
        self._append(pairs)

    # ------------------------------------------------------------- lifecycle

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def compact(self) -> None:
        """Atomically rewrite the log down to the live record set."""
        self.sync()
        tmp = self.path + ".compact"
        with open(tmp, "wb") as handle:
            for node_id in sorted(self._index):
                handle.write(self._encode(node_id, self._index[node_id]))
            handle.flush()
            os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        # The rename itself is not durable until the parent directory
        # entry is — without this, power loss after compact() could
        # resurface the old (already-deleted) log or neither file.
        fsync_directory(self.path)
        self._file = open(self.path, "ab")
        self.records_appended = len(self._index)

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()


class FaultPlan:
    """Deterministic, seeded fault stream for :class:`FaultyBackend`.

    Each operation draws independently: a transient error with
    probability ``error_rate``, else a stall of ``stall_ns`` with
    probability ``stall_rate``, plus uniform latency in
    ``[0, jitter_ns]``. Draws depend only on the seed and the op
    index — never on the key — so faults carry no information about
    the access pattern.
    """

    def __init__(
        self,
        error_rate: float = 0.0,
        stall_rate: float = 0.0,
        jitter_ns: float = 0.0,
        stall_ns: float = 0.0,
        seed: int = 1,
    ) -> None:
        for name, rate in (("error_rate", error_rate), ("stall_rate", stall_rate)):
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        self.error_rate = error_rate
        self.stall_rate = stall_rate
        self.jitter_ns = jitter_ns
        self.stall_ns = stall_ns
        self._rng = random.Random(seed)

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "FaultPlan":
        return cls(
            error_rate=config.fault_error_rate,
            stall_rate=config.fault_stall_rate,
            jitter_ns=config.fault_jitter_ns,
            stall_ns=config.fault_stall_ns,
            seed=config.fault_seed,
        )

    def draw(self) -> Tuple[bool, bool, float]:
        """One op's fate: ``(inject_error, inject_stall, delay_ns)``."""
        rng = self._rng
        error = rng.random() < self.error_rate
        stall = (not error) and rng.random() < self.stall_rate
        delay = rng.random() * self.jitter_ns if self.jitter_ns > 0 else 0.0
        return error, stall, delay


class FaultyBackend(StorageBackend):
    """Fault-injection wrapper around any other backend.

    The wrapper owns the adversary trace by default (it *is* the
    storage server's front door): every attempted operation is recorded
    before its fault draw, so retried operations appear once per
    attempt, exactly as a real storage server would log them.

    Synchronous use (e.g. under ``UntrustedMemory``) injects errors
    only; the async batch ops additionally express jitter and stalls as
    real ``asyncio.sleep`` time, which is what trips the service's
    per-operation timeout.
    """

    name = "faulty"

    def __init__(
        self,
        base: StorageBackend,
        plan: Optional[FaultPlan] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(trace if trace is not None else TraceRecorder())
        self.base = base
        self.plan = plan if plan is not None else FaultPlan()
        self.errors_injected = 0
        self.stalls_injected = 0

    # ------------------------------------------------------------ sync side

    # The fault draw sits in the storage hooks, so every mapping and
    # batch op of the base class records the node in the trace, then
    # draws that node's fault, then touches the wrapped store — per
    # node, in request order, as the async side below does with time.
    # The first injected error aborts a batch (nodes before it were
    # served; nodes after it were never attempted — or recorded).

    def _fault_sync(self, op: str) -> None:
        error, _stall, _delay = self.plan.draw()
        if error:
            self.errors_injected += 1
            raise TransientBackendError(f"injected transient {op} error")

    def _load(self, node_id: int) -> Optional[object]:
        self._fault_sync("read")
        return self.base._load(node_id)

    def _save(self, node_id: int, sealed: object) -> None:
        self._fault_sync("write")
        self.base._save(node_id, sealed)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.base

    def _keys(self) -> Iterator[int]:
        return iter(self.base)

    def _len(self) -> int:
        return len(self.base)

    # ----------------------------------------------------------- async side

    async def _fault_async(self, op: str) -> None:
        error, stall, delay = self.plan.draw()
        if delay > 0:
            await asyncio.sleep(delay / 1e9)
        if error:
            self.errors_injected += 1
            raise TransientBackendError(f"injected transient {op} error")
        if stall and self.plan.stall_ns > 0:
            self.stalls_injected += 1
            await asyncio.sleep(self.plan.stall_ns / 1e9)

    async def aget_many(self, node_ids: List[int]) -> List[Optional[bytes]]:
        out: List[Optional[bytes]] = []
        for node_id in node_ids:
            self.reads += 1
            self._record(MemoryOp.READ, node_id)
            await self._fault_async("read")
            out.append(self.base._load(node_id))
        return out

    async def aput_many(self, pairs: List[Tuple[int, bytes]]) -> None:
        for node_id, sealed in pairs:
            if type(sealed) is not bytes:
                raise _not_bytes(sealed)
            self.writes += 1
            self._record(MemoryOp.WRITE, node_id)
            await self._fault_async("write")
            self.base._save(node_id, sealed)

    # ------------------------------------------------------------- lifecycle

    def sync(self) -> None:
        self.base.sync()

    def close(self) -> None:
        self.base.close()


#: A factory builds a backend from a (possibly shard-specialised)
#: service config and an optional adversary trace.
BackendFactory = Callable[[ServiceConfig, Optional[TraceRecorder]], StorageBackend]

#: The single authoritative backend registry. ``ServiceConfig.backend``
#: validation, :func:`available_backends` and :func:`make_backend` all
#: read this dict, so a backend exists everywhere or nowhere.
#: Insertion order is the public listing order.
BACKEND_FACTORIES: Dict[str, BackendFactory] = {
    "memory": lambda config, trace: InMemoryBackend(trace),
    "file": lambda config, trace: FileBackend(config.backend_path, trace),
    "faulty": lambda config, trace: FaultyBackend(
        InMemoryBackend(), FaultPlan.from_config(config), trace
    ),
}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Add a backend to the registry (e.g. from tests or extensions)."""
    if name in BACKEND_FACTORIES:
        raise ConfigError(f"backend {name!r} is already registered")
    BACKEND_FACTORIES[name] = factory


def make_backend(
    config: ServiceConfig, trace: Optional[TraceRecorder] = None
) -> StorageBackend:
    """Build the backend named by ``config.backend``.

    ``"faulty"`` wraps the in-memory store with
    :class:`FaultPlan.from_config`; to fault-inject over a file store,
    compose ``FaultyBackend(FileBackend(path), plan)`` directly. A
    cluster shard passes its own service config
    (:func:`repro.cluster.partition.shard_identity`: own log path, own
    fault stream).
    """
    try:
        factory = BACKEND_FACTORIES[config.backend]
    except KeyError:
        raise ConfigError(
            f"unknown service backend {config.backend!r}; "
            f"available: {', '.join(BACKEND_FACTORIES)}"
        ) from None
    return factory(config, trace)


__all__: List[str] = [
    "available_backends",
    "BACKEND_FACTORIES",
    "register_backend",
    "StorageBackend",
    "InMemoryBackend",
    "FileBackend",
    "FaultPlan",
    "FaultyBackend",
    "make_backend",
]
