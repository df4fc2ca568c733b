"""Point-in-time recovery and failover promotion (``repro.replica``).

Recovery semantics — why point-in-time, not roll-forward
--------------------------------------------------------

The WAL is public: it can rebuild the *backend* at any access boundary,
but never the *client* state (stash / position map / schedule) past the
last sealed checkpoint — that state is exactly what the ORAM hides.
Pairing checkpoint-state-at-``C`` with a backend rolled forward to
``N > C`` is provably inconsistent (a block moved by a post-``C``
access becomes unreachable through the ``C`` position map), so recovery
is strictly point-in-time at the checkpoint watermark:

1. load the newest sealed checkpoint (watermark ``C``);
2. materialise the backend as the last-wins replay of WAL records with
   sequence number ``<= C`` into a *fresh* store — never reuse an
   existing store: buckets first written after ``C`` could resurrect
   rolled-back values through the read path;
3. truncate WAL records ``> C`` (their accesses are rolled back, and
   the promoted primary's own accesses must continue the sequence);
4. restore the engine from the checkpoint, retire every cipher counter
   the dropped records ever exposed (plus a fresh random counter epoch
   for writes the crashed primary made past this replica's horizon — a
   reused counter-mode keystream would leak plaintext XORs), and resume
   serving.

Accesses past ``C`` are lost — which is why *zero acknowledged-write
loss* is a statement about acknowledgments, not accesses: under
``replica.ack_mode="checkpoint"`` a mutating response is only sent once
a sealed checkpoint covers it, so everything a client ever saw
acknowledged is inside the state this module restores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.errors import ConfigError, ReplicationError
from repro.obs.events import FailoverPromoted
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.encryption import BucketCipher
from repro.oram.memory import TraceRecorder
from repro.oram.encryption import promotion_counter
from repro.replica.checkpoint import CheckpointStore
from repro.replica.replicator import Replicator
from repro.replica.wal import WAL_FILENAME, WriteAheadLog, max_sealed_counter
from repro.serve.backends import StorageBackend, make_backend
from repro.serve.engine import ObliviousEngine


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did (also emitted as ``failover_promoted``)."""

    checkpoint_seq: int
    wal_last_seq: int
    replayed_buckets: int
    truncated_records: int

    def describe(self) -> str:
        return (
            f"recovered at checkpoint seq {self.checkpoint_seq} "
            f"(wal tail was {self.wal_last_seq}; "
            f"{self.replayed_buckets} buckets replayed, "
            f"{self.truncated_records} unacknowledged records dropped)"
        )


def recover_engine(
    config: SystemConfig,
    *,
    directory: Optional[str] = None,
    backend: Optional[StorageBackend] = None,
    cipher: Optional[BucketCipher] = None,
    trace: Optional[TraceRecorder] = None,
    tracer: Optional[Tracer] = None,
    clock: Optional[Callable[[], float]] = None,
    shard_id: Optional[int] = None,
    salt: bytes = b"",
) -> "tuple[ObliviousEngine, RecoveryReport]":
    """Rebuild a serving engine from a replica directory.

    ``backend``, if supplied, must be empty (recovery materialises the
    authoritative bucket image into it); by default one is built from
    ``config.service`` — a file backend's existing log is deleted
    first, because the WAL, not the old store, is the authority.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    replica = config.replica
    directory = directory if directory is not None else replica.dir
    if not directory:
        raise ConfigError("recovery requires a replica directory")

    checkpoints = CheckpointStore(
        directory, replica.key_bytes, salt=salt, keep=replica.keep_checkpoints
    )
    latest = checkpoints.latest()
    checkpoint_seq = latest[0] if latest is not None else 0
    state = latest[1] if latest is not None else None

    # Truncate before the Replicator opens the log, so its epoch-digest
    # resume never absorbs the rolled-back suffix.
    wal_path = os.path.join(directory, WAL_FILENAME)
    # Harvest burned cipher counters from the *raw* file first: opening
    # the log truncates the torn tail, and truncating records > C drops
    # the rolled-back suffix — but both held ciphertexts the storage
    # server (and any standby) already observed, so their counters must
    # never be reissued for different plaintexts (two-time pad).
    counter_floor = max_sealed_counter(wal_path)
    pruning_wal = WriteAheadLog(wal_path)
    wal_last_seq = pruning_wal.last_seq
    # The checkpoint state is only meaningful over the backend image of
    # records 1..C, so the local WAL must cover that prefix completely.
    # A standby that received a checkpoint blob but is still catching up
    # on records (or lost its log) must keep replicating, not promote
    # into a store with holes.
    if checkpoint_seq > 0 and (
        wal_last_seq < checkpoint_seq or pruning_wal.first_seq > 1
    ):
        have = (
            f"records {pruning_wal.first_seq}..{wal_last_seq}"
            if wal_last_seq
            else "no records"
        )
        pruning_wal.close()
        raise ReplicationError(
            f"replica WAL does not cover checkpoint seq {checkpoint_seq} "
            f"(have {have}); resume replication before promoting"
        )
    truncated = pruning_wal.truncate_after(checkpoint_seq)
    pruning_wal.close()

    if backend is None:
        service = config.service
        if service.backend == "file" and service.backend_path:
            # The promoted store is rebuilt from scratch; a stale log
            # would resurrect buckets the replay does not overwrite.
            try:
                os.unlink(service.backend_path)
            except FileNotFoundError:
                pass
        backend = make_backend(service, trace)
    if len(backend) != 0:
        raise ConfigError(
            "recovery requires an empty backend (the WAL replay is the "
            f"authoritative image); got {len(backend)} pre-existing buckets"
        )

    replicator = Replicator(
        replica,
        directory=directory,
        salt=salt,
        tracer=tracer,
        clock=clock,
        shard_id=shard_id,
    )
    buckets = replicator.wal.replay_buckets()
    for node_id, sealed in buckets.items():
        backend[node_id] = sealed
    backend.sync()

    engine = ObliviousEngine(
        config,
        backend,
        cipher=cipher,
        tracer=tracer,
        clock=clock,
        shard_id=shard_id,
        replicator=replicator,
    )
    if state is not None:
        engine.restore_state(state)
    # Retire every cipher counter this promotion can see was consumed
    # (checkpoint state, plus everything scanned from the raw WAL above)
    # and jump to a fresh random epoch for the ones it cannot — the
    # crashed primary may have sealed buckets past this replica's
    # horizon. See :func:`promotion_counter` for the security argument.
    restored = engine.store.cipher.state()
    if isinstance(restored, int) and not isinstance(restored, bool):
        engine.store.cipher.restore(
            promotion_counter(max(counter_floor, restored))
        )

    report = RecoveryReport(
        checkpoint_seq=checkpoint_seq,
        wal_last_seq=wal_last_seq,
        replayed_buckets=len(buckets),
        truncated_records=truncated,
    )
    if tracer.enabled:
        tracer.emit(
            FailoverPromoted(
                ts_ns=engine.clock(),
                checkpoint_seq=report.checkpoint_seq,
                wal_last_seq=report.wal_last_seq,
                replayed_buckets=report.replayed_buckets,
                truncated_records=report.truncated_records,
                shard_id=shard_id,
            )
        )
        tracer.counters.inc("replica.promotions")
    return engine, report


def promote_service(
    config: SystemConfig,
    *,
    directory: Optional[str] = None,
    backend: Optional[StorageBackend] = None,
    cipher: Optional[BucketCipher] = None,
    trace: Optional[TraceRecorder] = None,
    tracer: Optional[Tracer] = None,
    shard_id: Optional[int] = None,
    salt: bytes = b"",
) -> "tuple[object, RecoveryReport]":
    """Recover and wrap the engine in a serving :class:`OramService`.

    Returns ``(service, report)``; the caller starts the service.
    ``salt`` and ``shard_id`` must match what the sealing primary used
    (:class:`CheckpointStore` nonce streams are salt-separated, and a
    promoted cluster shard must keep tagging its events). The import is
    local to keep ``repro.replica`` free of a hard dependency on the
    asyncio front end for library users who only need recovery.
    """
    from repro.serve.service import OramService

    engine, report = recover_engine(
        config,
        directory=directory,
        backend=backend,
        cipher=cipher,
        trace=trace,
        tracer=tracer,
        shard_id=shard_id,
        salt=salt,
    )
    service = OramService(config, tracer=tracer, engine=engine)
    return service, report


__all__ = [
    "RecoveryReport",
    "recover_engine",
    "promote_service",
]
