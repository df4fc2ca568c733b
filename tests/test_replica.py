"""Tests for ``repro.replica`` — durability, replication, failover.

Covers the subsystem's acceptance criteria:

* WAL framing: append/replay round-trip, torn-tail truncation,
  contiguity enforcement, last-wins bucket replay, point-in-time
  truncation;
* sealed checkpoints: encrypt/load round-trip, retention pruning,
  corrupt-newest fallback, nonce uniqueness across re-seals;
* the WAL-before-backend invariant: crash the engine between the WAL
  append and the bucket write, recover, and get exactly the state of an
  uninterrupted run stopped at the checkpoint — same stash, position
  map, RNG/cipher streams, and public trace prefix;
* checkpoint-gated acknowledgments: a put's response waits for a
  sealed checkpoint, the ``durability_ns`` phase appears in the trace,
  and the emitted events still validate against the schema;
* warm-standby tailing over the real TCP protocol with per-epoch digest
  verification, followed by promotion from the *standby's* directory
  with zero acknowledged-write loss;
* per-shard replication in the cluster service;
* the security argument: the WAL is byte-equivalent to the public
  access trace, and tampering is detected.

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.config import (
    CacheConfig,
    ReplicaConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.errors import ConfigError, ReplicationError
from repro.obs.schema import validate_lines
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.replica.checkpoint import CheckpointStore, checkpoint_filename
from repro.replica.recovery import recover_engine
from repro.replica.replicator import Replicator
from repro.replica.standby import ReplicaService
from repro.replica.wal import (
    WAL_FILENAME,
    EpochDigester,
    WalRecord,
    WriteAheadLog,
    max_sealed_counter,
)
from repro.security.replication import (
    verify_replication_stream,
    wal_public_trace,
)
from repro.serve.backends import InMemoryBackend, make_backend
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.serve.service import OramService
from repro.serve import protocol


def replica_system(
    tmp_path, levels: int = 6, **replica_kwargs: object
) -> SystemConfig:
    """A small replicated service config: L-level tree, queue of 8."""
    replica_kwargs.setdefault("enabled", True)
    replica_kwargs.setdefault("dir", str(tmp_path / "replica"))
    replica_kwargs.setdefault("checkpoint_every_accesses", 16)
    return SystemConfig(
        oram=small_test_config(levels, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        replica=ReplicaConfig(**replica_kwargs),  # type: ignore[arg-type]
    )


async def drive(engine: ObliviousEngine, request: ServeRequest) -> ServeRequest:
    assert engine.submit(request)
    while engine.has_pending_real():
        await engine.run_access()
    return request


def run(coro):
    return asyncio.run(coro)


# -------------------------------------------------------------------- WAL


def _record(seq: int, leaf: int = 3) -> WalRecord:
    return WalRecord(
        seq=seq, leaf=leaf, writes=[(seq * 2, b"x" * seq), (seq * 2 + 1, b"y")]
    )


def test_wal_append_replay_round_trip(tmp_path):
    path = str(tmp_path / WAL_FILENAME)
    wal = WriteAheadLog(path)
    for seq in range(1, 6):
        wal.append(_record(seq))
    wal.close()
    reopened = WriteAheadLog(path)
    records = list(reopened.read_from(1))
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]
    assert records[2].writes == [(6, b"xxx"), (7, b"y")]
    assert reopened.first_seq == 1 and reopened.last_seq == 5
    assert not reopened.torn_tail
    assert [r.seq for r in reopened.read_from(4)] == [4, 5]
    reopened.close()


def test_wal_append_enforces_contiguity(tmp_path):
    wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
    wal.append(_record(1))
    with pytest.raises(ReplicationError):
        wal.append(_record(3))
    wal.close()


def test_wal_torn_tail_truncated_on_open(tmp_path):
    path = str(tmp_path / WAL_FILENAME)
    wal = WriteAheadLog(path)
    for seq in (1, 2, 3):
        wal.append(_record(seq))
    wal.close()
    intact = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(_record(4).encode()[:-3])  # torn mid-record
    recovered = WriteAheadLog(path)
    assert recovered.torn_tail
    assert recovered.last_seq == 3
    assert os.path.getsize(path) == intact  # tail physically dropped
    recovered.append(_record(4))  # appends continue cleanly after
    assert [r.seq for r in recovered.read_from(1)] == [1, 2, 3, 4]
    recovered.close()


def test_wal_replay_buckets_last_wins_and_truncate(tmp_path):
    wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
    wal.append(WalRecord(seq=1, leaf=0, writes=[(10, b"old"), (11, b"a")]))
    wal.append(WalRecord(seq=2, leaf=1, writes=[(10, b"new")]))
    wal.append(WalRecord(seq=3, leaf=2, writes=[(12, b"late")]))
    assert wal.replay_buckets() == {10: b"new", 11: b"a", 12: b"late"}
    assert wal.replay_buckets(upto_seq=1) == {10: b"old", 11: b"a"}
    assert wal.truncate_after(1) == 2
    assert wal.last_seq == 1
    assert wal.replay_buckets() == {10: b"old", 11: b"a"}
    wal.append(WalRecord(seq=2, leaf=9, writes=[(13, b"resumed")]))
    assert wal.last_seq == 2
    wal.close()


def test_max_sealed_counter_scans_suffix_and_torn_tail(tmp_path):
    """Recovery's counter floor must see every counter the log ever
    exposed: complete records (both ciphers seal to bytes with a clear
    16-byte counter prefix) *and* a torn tail whose partially written
    ciphertext still carries that prefix."""
    path = str(tmp_path / WAL_FILENAME)
    wal = WriteAheadLog(path)
    wal.append(
        WalRecord(
            seq=1, leaf=0, writes=[(5, (7).to_bytes(16, "little") + b"records")]
        )
    )
    wal.append(
        WalRecord(
            seq=2, leaf=1,
            writes=[(6, (1 << 16).to_bytes(16, "little") + b"ciphertext")],
        )
    )
    wal.close()
    assert max_sealed_counter(path) == 1 << 16
    torn = WalRecord(
        seq=3, leaf=2,
        writes=[(7, (99_999).to_bytes(16, "little") + b"torn-ciphertext")],
    ).encode()
    with open(path, "ab") as handle:
        handle.write(torn[:-5])  # payload cut short, counter prefix intact
    assert max_sealed_counter(path) == 99_999
    # The torn tail is still truncated on open, exactly as before.
    reopened = WriteAheadLog(path)
    assert reopened.torn_tail and reopened.last_seq == 2
    reopened.close()


def _retired_tag_frame(seq: int, payload: bytes) -> bytes:
    """A CRC-valid WAL record whose one write carries tag 1 and a
    pickle payload — what only pre-bytes-contract releases wrote."""
    import struct
    import zlib

    body = struct.Struct("<qBI").pack(9, 1, len(payload)) + payload
    return struct.Struct("<QqII").pack(seq, 4, 1, zlib.crc32(body)) + body


def test_wal_rejects_retired_pickled_frames_without_unpickling(
    tmp_path, hostile_pickle
):
    """Tag-1 payloads reach no unpickler — not from a replication frame
    off the network, not from a log on disk, not from the counter scan —
    and an old log is refused, not truncated as a torn tail."""
    payload, flag = hostile_pickle
    frame = _retired_tag_frame(2, payload)
    with pytest.raises(ReplicationError, match="tag-1"):
        WalRecord.decode(frame)  # the standby's network path

    path = tmp_path / WAL_FILENAME
    wal = WriteAheadLog(str(path))
    good = wal.append(_record(1))
    wal.close()
    path.write_bytes(good + frame)
    before = path.read_bytes()
    with pytest.raises(ReplicationError) as excinfo:
        WriteAheadLog(str(path))
    assert str(path) in str(excinfo.value)
    assert f"offset {len(good)}" in str(excinfo.value)
    assert max_sealed_counter(str(path)) == 0
    assert not flag.exists()
    assert path.read_bytes() == before
    # The same bytes with a broken CRC are an ordinary torn tail.
    path.write_bytes(good + frame[:-1] + bytes([frame[-1] ^ 0xFF]))
    reopened = WriteAheadLog(str(path))
    assert reopened.torn_tail and reopened.last_seq == 1
    reopened.close()
    assert not flag.exists()


def test_epoch_digester_boundaries_and_resume_equivalence():
    digester = EpochDigester(2)
    raw = [_record(seq).encode() for seq in range(1, 6)]
    boundaries = [digester.feed(seq, raw[seq - 1]) for seq in range(1, 6)]
    assert boundaries[0] is None and boundaries[1] is not None
    assert [b[0] for b in boundaries if b] == [1, 2]
    assert [b[1] for b in boundaries if b] == [2, 4]
    # A second digester fed the same bytes (e.g. a standby replaying its
    # local WAL on restart) produces identical digests.
    resumed = EpochDigester(2)
    for seq in range(1, 6):
        resumed.feed(seq, raw[seq - 1])
    assert resumed.completed == digester.completed


def test_epoch_digester_prune_completed_bounds_memory():
    digester = EpochDigester(2)
    for seq in range(1, 21):
        digester.feed(seq, _record(seq).encode())
    assert len(digester.completed) == 10
    # Prune below a watermark past everything: the newest entries stay
    # (digest coverage must survive checkpoint-heavy gating modes).
    assert digester.prune_completed(20, keep_newest=4) == 6
    assert [entry[0] for entry in digester.completed] == [7, 8, 9, 10]
    # Watermark below everything remaining: no-op.
    assert digester.prune_completed(0, keep_newest=4) == 0
    assert len(digester.completed) == 4


# ------------------------------------------------------------ checkpoints


def test_checkpoint_seal_load_round_trip_and_prune(tmp_path):
    store = CheckpointStore(str(tmp_path), b"k" * 32, keep=2)
    for seq in (10, 20, 30):
        store.seal(seq, {"format": 1, "seq": seq, "payload": list(range(seq))})
    assert store.sequence_numbers() == [20, 30]  # keep=2 pruned seq 10
    assert store.latest_seq() == 30
    seq, state = store.latest()
    assert seq == 30 and state["payload"] == list(range(30))
    assert store.load(20)["seq"] == 20


def test_checkpoint_latest_skips_corrupt_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), b"k" * 32, keep=3)
    store.seal(1, {"format": 1, "seq": 1})
    store.seal(2, {"format": 1, "seq": 2})
    with open(os.path.join(str(tmp_path), checkpoint_filename(3)), "wb") as fh:
        fh.write(b"garbage that is not a sealed blob")
    seq, state = store.latest()
    assert seq == 2 and state["seq"] == 2


def test_checkpoint_reseal_same_seq_uses_fresh_nonce(tmp_path):
    store = CheckpointStore(str(tmp_path), b"k" * 32, keep=2)
    state = {"format": 1, "seq": 5, "secret": "same plaintext"}
    store.seal(5, dict(state))
    first = store.read_blob(5)
    store.seal(5, dict(state))
    second = store.read_blob(5)
    # Same watermark, same plaintext — the ciphertexts must still differ
    # (a repeated counter-mode nonce would leak the XOR of two states).
    assert first != second
    assert store.load(5)["secret"] == "same plaintext"


# ----------------------------------------------- crash-recovery equivalence


def test_crash_between_wal_append_and_backend_write_recovers_exactly(tmp_path):
    config = replica_system(tmp_path)

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        for index in range(12):
            await drive(
                engine, ServeRequest(op="put", addr=index % 6, value=f"v{index}")
            )
        replicator = engine.replicator
        # Seal a checkpoint at watermark S, snapshot the engine's state
        # at exactly that moment — the uninterrupted reference.
        sealed_seq = replicator.maybe_checkpoint(engine.capture_state, force=True)
        assert sealed_seq == replicator.wal.last_seq
        reference = engine.capture_state()

        # Keep serving, then die between the WAL append and the bucket
        # write: the WAL gains records the backend never saw.
        async def crash(pairs):
            raise RuntimeError("simulated power loss")

        engine.store.write_many_sealed = crash  # type: ignore[method-assign]
        with pytest.raises(RuntimeError):
            await drive(engine, ServeRequest(op="put", addr=0, value="lost"))
        records_before = list(replicator.wal.read_from(1))
        assert records_before[-1].seq > sealed_seq  # logged, never stored
        # Abandoned, not closed — a crash takes no shutdown path.

        recovered, report = recover_engine(config, backend=InMemoryBackend())
        assert report.checkpoint_seq == sealed_seq
        assert report.truncated_records == len(records_before) - sealed_seq
        # Same client state: stash, posmap, queue and RNG streams — the
        # recovered engine is the uninterrupted engine. The cipher
        # counter is the one deliberate exception: it must NOT rewind
        # to the checkpoint value, because the rolled-back suffix
        # already exposed ciphertexts under the counters past it.
        recovered_state = recovered.capture_state()
        droppable = ("cipher_state",)
        assert {
            k: v for k, v in recovered_state.items() if k not in droppable
        } == {k: v for k, v in reference.items() if k not in droppable}
        # Every counter the logged-but-rolled-back suffix exposed is
        # burned: the promoted cipher continues strictly past all of
        # them (reuse would be a two-time pad under CounterModeCipher).
        burned = max(
            sealed[0]
            for record in records_before
            for _node, sealed in record.writes
        )
        assert recovered_state["cipher_state"] > burned
        assert recovered_state["cipher_state"] > reference["cipher_state"]
        # Same public trace: the recovered WAL is exactly the
        # uninterrupted prefix, and its backend is the WAL's image.
        records_after = list(recovered.replicator.wal.read_from(1))
        assert [r.seq for r in records_after] == list(range(1, sealed_seq + 1))
        assert wal_public_trace(records_after) == wal_public_trace(
            records_before[:sealed_seq]
        )
        verify_replication_stream(
            recovered.geometry,
            records_after,
            merging=config.scheduler.enable_merging,
            backend=recovered.store.backend,
        )
        # And it still serves: every pre-checkpoint put is readable.
        for addr in range(6):
            result = await drive(recovered, ServeRequest(op="get", addr=addr))
            assert result.found and result.result is not None
        recovered.close()

    run(scenario())


def test_recovery_requires_empty_backend(tmp_path):
    config = replica_system(tmp_path)

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        await drive(engine, ServeRequest(op="put", addr=1, value="v"))
        engine.replicator.maybe_checkpoint(engine.capture_state, force=True)
        engine.close()
        dirty = InMemoryBackend()
        dirty[0] = b"stale bucket from after the checkpoint"
        with pytest.raises(ConfigError):
            recover_engine(config, backend=dirty)

    run(scenario())


def test_recovery_refuses_wal_behind_checkpoint(tmp_path):
    """A standby that holds a checkpoint blob but not the WAL prefix it
    covers must be refused — promoting it would serve an empty tree."""
    config = replica_system(tmp_path)

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        for addr in range(4):
            await drive(engine, ServeRequest(op="put", addr=addr, value="v"))
        engine.replicator.maybe_checkpoint(engine.capture_state, force=True)
        checkpoint_seq = engine.replicator.last_checkpoint_seq
        assert checkpoint_seq > 1
        engine.close()
        # Simulate the lagging standby: its log stops before the
        # checkpoint watermark.
        wal = WriteAheadLog(str(tmp_path / "replica" / WAL_FILENAME))
        wal.truncate_after(1)
        wal.close()
        with pytest.raises(ReplicationError, match="resume replication"):
            recover_engine(config, backend=InMemoryBackend())

    run(scenario())


def test_recovery_without_checkpoint_starts_empty(tmp_path):
    config = replica_system(tmp_path)

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        await drive(engine, ServeRequest(op="put", addr=2, value="unsealed"))
        engine.close()  # never checkpointed: nothing was acknowledged durable
        recovered, report = recover_engine(config, backend=InMemoryBackend())
        assert report.checkpoint_seq == 0
        assert report.replayed_buckets == 0
        assert recovered.replicator.wal.last_seq == 0  # WAL fully rolled back
        result = await drive(recovered, ServeRequest(op="get", addr=2))
        assert not result.found
        recovered.close()

    run(scenario())


# --------------------------------------------------- checkpoint-gated acks


def test_checkpoint_gated_ack_waits_for_seal_and_traces_durability(tmp_path):
    sink = RingBufferSink(capacity=4096)
    tracer = Tracer(sinks=[sink])
    config = replica_system(tmp_path, ack_mode="checkpoint")

    async def scenario():
        engine = ObliviousEngine(
            config,
            make_backend(config.service),
            tracer=tracer,
            replicator=Replicator(config.replica, tracer=tracer),
        )
        request = ServeRequest(
            op="put", addr=3, value="gated",
            future=asyncio.get_running_loop().create_future(),
        )
        await drive(engine, request)
        replicator = engine.replicator
        # Applied but unacknowledged: the future must wait for a seal.
        assert request.status == "oram"
        assert not request.future.done()
        assert replicator.pending_acks == 1
        engine.flush_durability()
        assert request.future.done()
        assert replicator.pending_acks == 0
        assert request.durability_ns is not None
        phases = request.phases()
        assert "durability_ns" in phases
        assert sum(phases.values()) == pytest.approx(request.latency_ns)
        # A get is never gated, even in checkpoint mode.
        read = ServeRequest(
            op="get", addr=3,
            future=asyncio.get_running_loop().create_future(),
        )
        await drive(engine, read)
        assert read.future.done()
        assert "durability_ns" not in read.phases()
        engine.close()

    run(scenario())
    lines = [json.dumps(event.to_dict()) for event in sink.events]
    assert not validate_lines(lines, source="gated-trace")
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "checkpoint_sealed" in kinds


# ------------------------------------------- standby tailing and failover


def test_standby_tails_primary_and_promotes_with_all_acked_writes(tmp_path):
    config = replica_system(
        tmp_path,
        ack_mode="checkpoint",
        checkpoint_every_accesses=32,
        epoch_accesses=16,
    )
    standby_dir = str(tmp_path / "standby")

    async def scenario():
        service = OramService(config)
        host, port = await service.start()
        acknowledged = {}
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for index in range(10):
                    addr = index % 5
                    value = f"durable-{index}"
                    await protocol.write_message(
                        writer,
                        {"id": index, "op": "put", "addr": addr, "value": value},
                    )
                    response = await protocol.read_message(reader)
                    assert response is not None and response["ok"]
                    # The response arrived, so a sealed checkpoint
                    # covers this write — it may never be lost again.
                    acknowledged[addr] = value
            finally:
                writer.close()
                await writer.wait_closed()

            primary = service.engine.replicator
            standby = ReplicaService(config.replica, directory=standby_dir)
            await standby.tail(
                host,
                port,
                until_seq=primary.wal.last_seq,
                until_checkpoint_seq=primary.last_checkpoint_seq,
            )
            assert standby.divergence is None
            assert standby.records_applied == primary.wal.last_seq
            assert standby.digests_verified > 0
            assert standby.checkpoint_seq == primary.last_checkpoint_seq
            standby.close()
        finally:
            await service.stop()  # the primary dies; the standby is on its own

        promoted, report = recover_engine(
            config, directory=standby_dir, backend=InMemoryBackend()
        )
        assert report.checkpoint_seq > 0
        for addr, value in acknowledged.items():
            result = await drive(promoted, ServeRequest(op="get", addr=addr))
            assert result.found and result.result == value, (
                f"acknowledged write to addr {addr} lost across failover"
            )
        # The promoted WAL is still byte-equivalent to the public trace.
        verify_replication_stream(
            promoted.geometry,
            list(promoted.replicator.wal.read_from(1)),
            merging=config.scheduler.enable_merging,
            backend=promoted.store.backend,
        )
        promoted.close()

    run(scenario())


def test_standby_detects_divergence(tmp_path):
    config = replica_system(tmp_path, epoch_accesses=4)
    standby = ReplicaService(
        config.replica, directory=str(tmp_path / "diverged")
    )
    for seq in range(1, 5):
        standby._apply_wal(seq, _record(seq).encode())
    epoch, upto_seq, digest = standby.digester.completed[0]
    assert epoch == 1 and upto_seq == 4
    standby._verify_digest(epoch, upto_seq, digest)  # matching: fine
    assert standby.divergence is None
    with pytest.raises(ReplicationError):
        standby._verify_digest(epoch, upto_seq, "0" * 64)
    assert standby.divergence is not None
    standby.close()


def test_standby_duplicate_frames_are_byte_compared(tmp_path):
    """A re-shipped frame with a known seq must be byte-identical to the
    local record — same seq with different bytes is timeline divergence
    (a stale pre-failover suffix), never a skippable duplicate."""
    config = replica_system(tmp_path)
    standby = ReplicaService(config.replica, directory=str(tmp_path / "dup"))
    for seq in (1, 2, 3):
        standby._apply_wal(seq, _record(seq).encode())
    # A byte-identical duplicate is idempotent.
    standby._apply_wal(2, _record(2).encode())
    assert standby.wal.last_seq == 3 and standby.divergence is None
    # Same seq, different contents: hard stop.
    with pytest.raises(ReplicationError, match="timeline"):
        standby._apply_wal(2, _record(2, leaf=9).encode())
    assert standby.divergence is not None
    standby.close()


def test_standby_rewinds_after_failover_history_regression(tmp_path):
    """A standby that replayed past the checkpoint a failover promoted
    must drop the rolled-back suffix and re-verify the retained prefix
    against the new primary — not keep the stale records and append the
    new timeline after them."""
    config = replica_system(
        tmp_path, checkpoint_every_accesses=1000, epoch_accesses=4
    )
    standby_dir = str(tmp_path / "standby")

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        for index in range(8):
            await drive(
                engine, ServeRequest(op="put", addr=index % 4, value=f"v{index}")
            )
        checkpoint_seq = engine.replicator.maybe_checkpoint(
            engine.capture_state, force=True
        )
        # Keep serving well past the checkpoint: these records ship to
        # the standby but the failover will roll them back. Fresh
        # addresses — puts to stash-resident blocks complete on-chip
        # without a tree access, so they would not extend the WAL.
        for index in range(8):
            await drive(
                engine, ServeRequest(op="put", addr=8 + index, value=f"post-{index}")
            )
        old_records = list(engine.replicator.wal.read_from(1))
        assert old_records[-1].seq > checkpoint_seq
        engine.close()

        standby = ReplicaService(config.replica, directory=standby_dir)
        for record in old_records:
            standby._apply_wal(record.seq, record.encode())
        assert standby.wal.last_seq == old_records[-1].seq

        # Failover: promote from the primary's own directory (truncates
        # to the checkpoint, new cipher epoch) and serve a new timeline
        # shorter than the stale suffix the standby holds.
        promoted, report = recover_engine(config, backend=InMemoryBackend())
        assert report.checkpoint_seq == checkpoint_seq
        service = OramService(config, engine=promoted)
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await protocol.write_message(
                    writer, {"id": 0, "op": "put", "addr": 6, "value": "new"}
                )
                response = await protocol.read_message(reader)
                assert response is not None and response["ok"]
            finally:
                writer.close()
                await writer.wait_closed()
            primary = promoted.replicator
            assert primary.wal.last_seq < standby.wal.last_seq  # regression
            await standby.tail(host, port, until_seq=primary.wal.last_seq)
            assert standby.rewinds == 1
            assert standby.divergence is None
            # The stale suffix is gone; the local WAL is byte-identical
            # to the new primary's timeline.
            local = [r.encode() for r in standby.wal.read_from(1)]
            remote = [r.encode() for r in primary.wal.read_from(1)]
            assert local == remote
            standby.close()
        finally:
            await service.stop()

    run(scenario())


def test_standby_adopts_primary_epoch_cadence(tmp_path):
    """`repro replicate` run without hand-matched --set flags must still
    verify digests: the hello frame advertises the primary's cadence and
    a mismatched standby re-bases its digester on it."""
    config = replica_system(
        tmp_path,
        ack_mode="checkpoint",
        checkpoint_every_accesses=32,
        epoch_accesses=16,
    )
    mismatched = ReplicaConfig(
        enabled=True,
        dir=str(tmp_path / "standby"),
        checkpoint_every_accesses=32,
        epoch_accesses=64,
    )

    async def scenario():
        service = OramService(config)
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for index in range(10):
                    await protocol.write_message(
                        writer,
                        {"id": index, "op": "put", "addr": index,
                         "value": str(index)},
                    )
                    response = await protocol.read_message(reader)
                    assert response is not None and response["ok"]
            finally:
                writer.close()
                await writer.wait_closed()
            primary = service.engine.replicator
            standby = ReplicaService(mismatched)
            assert standby.digester.epoch_accesses == 64
            await standby.tail(
                host,
                port,
                until_seq=primary.wal.last_seq,
                until_checkpoint_seq=primary.last_checkpoint_seq,
            )
            assert standby.digester.epoch_accesses == 16
            assert standby.divergence is None
            assert standby.digests_verified > 0
            standby.close()
        finally:
            await service.stop()

    run(scenario())


def test_replicate_request_rejected_when_replication_disabled(tmp_path):
    config = SystemConfig(
        oram=small_test_config(6, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
    )

    async def scenario():
        service = OramService(config)
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_message(
                writer, {"op": protocol.REPLICATE_OP, "from_seq": 1}
            )
            response = await protocol.read_message(reader)
            assert response is not None and response["ok"] is False
            assert "replication" in response["error"]
            writer.close()
            await writer.wait_closed()
        finally:
            await service.stop()

    run(scenario())


# ----------------------------------------------------------------- cluster


def test_cluster_shards_replicate_independently(tmp_path):
    from repro.cluster.service import ClusterService
    from repro.config import ClusterConfig

    config = SystemConfig(
        oram=small_test_config(6, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        cluster=ClusterConfig(shards=2),
        replica=ReplicaConfig(
            enabled=True,
            dir=str(tmp_path / "cluster-replica"),
            checkpoint_every_accesses=16,
        ),
    )

    async def scenario():
        service = ClusterService(config)
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for index in range(6):
                await protocol.write_message(
                    writer,
                    {"id": index, "op": "put", "addr": index, "value": f"s{index}"},
                )
                response = await protocol.read_message(reader)
                assert response is not None and response["ok"]
            writer.close()
            await writer.wait_closed()

            shard_reps = [
                service.router.replicator_for(shard) for shard in (0, 1)
            ]
            assert all(rep is not None for rep in shard_reps)
            assert shard_reps[0] is not shard_reps[1]
            for shard, rep in enumerate(shard_reps):
                assert rep.directory.endswith(f"shard{shard}")
                assert rep.wal.last_seq > 0
            assert service.router.replicator_for(7) is None

            # Tail shard 1 specifically over the shared endpoint.
            standby = ReplicaService(
                config.replica, directory=str(tmp_path / "standby1")
            )
            await standby.tail(
                host, port, shard=1, until_seq=shard_reps[1].wal.last_seq
            )
            assert standby.records_applied == shard_reps[1].wal.last_seq
            assert standby.divergence is None
            standby.close()
        finally:
            await service.stop()

    run(scenario())


# ---------------------------------------------------------------- security


def test_verify_replication_stream_detects_tampering(tmp_path):
    config = replica_system(tmp_path)

    async def scenario():
        engine = ObliviousEngine(
            config, make_backend(config.service), replicator=Replicator(config.replica)
        )
        for index in range(6):
            await drive(
                engine, ServeRequest(op="put", addr=index, value=f"v{index}")
            )
        records = list(engine.replicator.wal.read_from(1))
        verify_replication_stream(
            engine.geometry,
            records,
            merging=config.scheduler.enable_merging,
            backend=engine.store.backend,
        )
        # Reorder one record's writes: no longer the public refill order.
        tampered = [
            WalRecord(seq=r.seq, leaf=r.leaf, writes=list(r.writes))
            for r in records
        ]
        tampered[1].writes.reverse()
        with pytest.raises(ReplicationError):
            verify_replication_stream(
                engine.geometry, tampered,
                merging=config.scheduler.enable_merging,
            )
        # A backend bucket the WAL never wrote is an unlogged write.
        engine.store.backend[999_999] = b"unlogged"
        with pytest.raises(ReplicationError):
            verify_replication_stream(
                engine.geometry, records,
                merging=config.scheduler.enable_merging,
                backend=engine.store.backend,
            )
        engine.close()

    run(scenario())


# --------------------------------------------------------------------- CLI


def test_cli_validate_trace(tmp_path, capsys):
    from repro.cli import main

    good = tmp_path / "good.jsonl"
    good.write_text(
        json.dumps(
            {
                "kind": "checkpoint_sealed",
                "ts_ns": 1.0,
                "seq": 4,
                "epoch": 1,
                "size_bytes": 128,
                "released": 2,
            }
        )
        + "\n"
    )
    assert main(["validate-trace", str(good)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"kind": "no_such_event", "ts_ns": 0.0}) + "\n")
    assert main(["validate-trace", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err
