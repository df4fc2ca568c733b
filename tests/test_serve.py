"""Tests for ``repro.serve`` — the oblivious key-value service.

Covers the acceptance criteria of the service subsystem:

* wire protocol round-trip and malformed-input rejection;
* crash-safe :class:`FileBackend` persistence (torn-tail recovery,
  atomic compaction, reuse under ``UntrustedMemory``);
* deterministic fault injection and the retry policy's backoff math;
* the engine's request semantics (read-your-writes, stash hits,
  per-address waiter coalescing, exactly-once completion on permanent
  backend failure);
* a fault-injected four-client service run where every request is
  answered exactly once, the label queue is never observed underfull,
  and the emitted JSONL trace validates against the schema;
* the backend-observed bucket trace passing the statistical
  indistinguishability harness, and matching the label-sequence
  reconstruction exactly when faults are latency-only.

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os

import pytest

from repro.config import (
    CacheConfig,
    PosmapConfig,
    ReplicaConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    small_test_config,
)
from repro.errors import BackendError, ConfigError, ProtocolError, TransientBackendError
from repro.obs.schema import validate_lines
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.oram.encryption import CounterModeCipher, NullCipher
from repro.oram.memory import TraceRecorder, UntrustedMemory
from repro.replica.replicator import Replicator
from repro.oram.tree import TreeGeometry
from repro.security.adversary import (
    split_trace_into_accesses,
    verify_engine_trace,
)
from repro.security.indistinguishability import (
    TraceProfile,
    adversary_advantage,
    leaf_distribution_pvalue,
    shape_distribution_pvalue,
)
from repro.serve import protocol
from repro.serve.backends import (
    FaultPlan,
    FaultyBackend,
    FileBackend,
    InMemoryBackend,
    available_backends,
    make_backend,
)
from repro.serve.engine import ObliviousEngine, RetryPolicy, ServeRequest
from repro.serve.loadgen import run_loadgen
from repro.serve.service import OramService


def serve_system(levels: int = 8, **service_kwargs: object) -> SystemConfig:
    """A small service configuration: L-level tree, queue of 8."""
    return SystemConfig(
        oram=small_test_config(levels, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        service=ServiceConfig(**service_kwargs),  # type: ignore[arg-type]
    )


# --------------------------------------------------------------------- protocol


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": 3, "op": "put", "addr": 9, "value": "x" * 100}
        frame = protocol.encode_frame(message)
        assert protocol.decode_body(frame[4:]) == message

    def test_oversized_frame_rejected_before_read(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((1 << 25).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                await protocol.read_message(reader, max_frame_bytes=1 << 20)

        asyncio.run(scenario())

    def test_clean_eof_returns_none_mid_frame_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await protocol.read_message(reader) is None
            torn = asyncio.StreamReader()
            torn.feed_data(b"\x00\x00")
            torn.feed_eof()
            with pytest.raises(ProtocolError):
                await protocol.read_message(torn)

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "peek", "addr": 0},
            {"op": "get", "addr": "zero"},
            {"op": "get", "addr": -1},
            {"op": "get", "addr": 10**9},
            {"op": "put", "addr": 0},
            {"op": "get", "addr": 0, "value": "no"},
        ],
    )
    def test_invalid_requests_rejected(self, message):
        with pytest.raises(ProtocolError):
            protocol.validate_request(message, num_blocks=1024)


# --------------------------------------------------------------------- backends


class TestBackends:
    def test_registry_matches_config_contract(self, tmp_path):
        assert available_backends() == ("memory", "file", "faulty")
        for name in available_backends():
            config = ServiceConfig(
                backend=name,
                backend_path=str(tmp_path / "store.log") if name == "file" else "",
            )
            backend = make_backend(config)
            assert type(backend).name == name
            backend.close()

    def test_file_backend_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "store.log")
        backend = FileBackend(path)
        backend[3] = b"sealed-three"
        backend[7] = b"sealed-seven"
        backend[3] = b"sealed-three-v2"
        backend.close()

        reopened = FileBackend(path)
        assert reopened.recovered_records == 3  # last record per node wins
        assert not reopened.torn_tail
        assert reopened[3] == b"sealed-three-v2"
        assert reopened[7] == b"sealed-seven"
        assert sorted(reopened) == [3, 7]
        reopened.close()

    def test_backends_reject_non_bytes_sealed_values(self, tmp_path):
        # The sealed-value contract is bytes-only at the storage
        # boundary; the legacy NullCipher tuple form is rejected.
        backends = [
            InMemoryBackend(),
            FileBackend(str(tmp_path / "store.log")),
            FaultyBackend(InMemoryBackend()),
        ]
        for backend in backends:
            with pytest.raises(TypeError):
                backend[1] = (1, ((5, 2, "payload"),))
            with pytest.raises(TypeError):
                backend.put_many([(1, bytearray(b"x"))])
            backend.close()

    def test_file_backend_rejects_retired_pickled_records(
        self, tmp_path, hostile_pickle
    ):
        """A tag-1 record (the retired pickled form) fails the open with
        an error naming the file and offset. Its payload is never
        unpickled, and the store is not truncated as if the record were
        a torn tail."""
        import struct
        import zlib

        payload, flag = hostile_pickle
        good = FileBackend._encode(3, b"sealed-three")
        frame = struct.Struct("<qIIB").pack(
            7, len(payload), zlib.crc32(payload), 1
        )
        path = tmp_path / "store.log"
        path.write_bytes(good + frame + payload)
        before = path.read_bytes()
        with pytest.raises(BackendError) as excinfo:
            FileBackend(str(path))
        assert str(path) in str(excinfo.value)
        assert f"offset {len(good)}" in str(excinfo.value)
        assert not flag.exists()
        assert path.read_bytes() == before

    def test_file_backend_recovers_from_torn_tail(self, tmp_path):
        path = str(tmp_path / "store.log")
        backend = FileBackend(path)
        backend[1] = b"alpha"
        backend[2] = b"beta"
        backend.close()
        # Simulate a crash mid-append: truncate into the final record.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)

        recovered = FileBackend(path)
        assert recovered.torn_tail
        assert recovered[1] == b"alpha"
        assert 2 not in recovered
        # The store keeps working after recovery.
        recovered[2] = b"beta-again"
        recovered.close()
        final = FileBackend(path)
        assert final[2] == b"beta-again"
        final.close()

    def test_file_backend_compaction_is_atomic_and_lossless(self, tmp_path):
        path = str(tmp_path / "store.log")
        backend = FileBackend(path)
        for round_no in range(5):
            for node in range(4):
                backend[node] = f"r{round_no}-n{node}".encode()
        assert backend.records_appended == 20
        backend.sync()
        size_before = os.path.getsize(path)
        backend.compact()
        assert os.path.getsize(path) < size_before
        assert backend.records_appended == 4
        assert {node: backend[node] for node in backend} == {
            node: f"r4-n{node}".encode() for node in range(4)
        }
        backend.close()
        reopened = FileBackend(path)
        assert reopened.recovered_records == 4
        reopened.close()

    def test_untrusted_memory_over_file_backend_round_trips(self, tmp_path):
        """The duck-typed seam: the simulator's memory over persistence."""
        path = str(tmp_path / "tree.log")
        geometry = TreeGeometry(4)
        oram = small_test_config(4)
        cipher = CounterModeCipher(key=b"k" * 16, block_bytes=16)
        backend = FileBackend(path)
        memory = UntrustedMemory(geometry, oram.bucket_slots, cipher, backend=backend)
        from repro.oram.blocks import Block

        hello, world = b"hello", "wörld"  # read back exactly, unpadded
        memory.write_blocks(5, [Block(1, 2, hello), Block(2, 3, world)])
        backend.close()

        memory2 = UntrustedMemory(
            geometry, oram.bucket_slots, cipher, backend=FileBackend(path)
        )
        payloads = {b.addr: b.payload for b in memory2.read_blocks(5)}
        assert payloads == {1: hello, 2: world}

    def test_faulty_backend_is_deterministic_and_key_independent(self):
        def error_pattern(keys):
            backend = FaultyBackend(
                InMemoryBackend(), FaultPlan(error_rate=0.4, seed=11)
            )
            pattern = []
            for key in keys:
                try:
                    backend.get(key)
                    pattern.append(False)
                except TransientBackendError:
                    pattern.append(True)
            return pattern

        # Same seed, same op sequence -> same faults, whatever the keys.
        assert error_pattern(range(50)) == error_pattern([0] * 50)
        assert any(error_pattern(range(50)))

    def test_faulty_backend_records_every_attempt(self):
        backend = FaultyBackend(InMemoryBackend(), FaultPlan(error_rate=0.5, seed=3))
        attempts = 0
        for _ in range(20):
            attempts += 1
            try:
                backend[0] = b"x"
                break
            except TransientBackendError:
                continue
        assert len(backend.trace.events) == attempts
        assert backend.errors_injected == attempts - 1

    def test_delete_is_rejected(self):
        backend = InMemoryBackend()
        backend[0] = b"x"
        with pytest.raises(BackendError):
            del backend[0]

    def test_file_backend_flushes_each_append(self, tmp_path):
        """Without any explicit sync(), every appended record must
        already have reached the OS — a process crash loses at most the
        record being written."""
        path = str(tmp_path / "store.log")
        backend = FileBackend(path)
        backend[1] = b"alpha"
        assert os.path.getsize(path) == len(FileBackend._encode(1, b"alpha"))
        backend.close()

    def test_file_backend_requires_path(self):
        with pytest.raises(ConfigError):
            make_backend(ServiceConfig(backend="file"))


# ----------------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=6, base_ns=100.0, max_ns=1000.0)
        assert [policy.backoff_ns(k) for k in range(1, 6)] == [
            100.0,
            200.0,
            400.0,
            800.0,
            1000.0,
        ]

    def test_store_retries_then_raises_backend_error(self):
        config = serve_system(
            levels=4,
            backend="faulty",
            retry_attempts=3,
            retry_base_ns=1000.0,
            fault_error_rate=0.97,
            fault_seed=5,
        )
        engine = ObliviousEngine(config, make_backend(config.service))

        async def scenario():
            with pytest.raises(BackendError):
                for _ in range(40):  # p(3 clean ops in a row) ~ 2.7e-5
                    await engine.store.read_many_sealed([0])

        asyncio.run(scenario())
        assert engine.store.retries > 0
        assert engine.store.failures == 1

    def test_timeout_counts_as_transient(self):
        config = serve_system(
            levels=4,
            backend="faulty",
            retry_attempts=2,
            retry_base_ns=1000.0,
            op_timeout_ns=2_000_000.0,  # 2 ms
            fault_stall_rate=0.99,
            fault_stall_ns=300_000_000.0,
        )
        engine = ObliviousEngine(config, make_backend(config.service))

        async def scenario():
            with pytest.raises(BackendError) as excinfo:
                await engine.store.read_many_sealed([0])
            assert "timed out" in str(excinfo.value)

        asyncio.run(scenario())


# -------------------------------------------------------------------- engine


class FlakyWriteBackend(InMemoryBackend):
    """Every async write fails transiently while ``fail_writes`` is set."""

    def __init__(self):
        super().__init__()
        self.fail_writes = False

    async def aput_many(self, pairs):
        if self.fail_writes:
            raise TransientBackendError("injected write failure")
        await super().aput_many(pairs)


class RootWriteFailingBackend(InMemoryBackend):
    """Writes of the root bucket fail transiently while ``arm`` is set.

    The root is the last bucket of a write-back segment, so the batch
    lands every deeper bucket and then fails: all of the stash's
    eligible blocks have been collected and an ambiguous prefix is in
    the tree — exactly the state where a buggy failure path would lose
    (or duplicate) them.
    """

    def __init__(self):
        super().__init__()
        self.arm = False

    async def aput_many(self, pairs):
        if self.arm:
            for index, (node_id, _sealed) in enumerate(pairs):
                if node_id == 0:
                    await super().aput_many(pairs[:index])
                    raise TransientBackendError("injected root write failure")
        await super().aput_many(pairs)


class FailingReadBackend(InMemoryBackend):
    """Every async read fails transiently."""

    async def aget_many(self, node_ids):
        raise TransientBackendError("injected read failure")


def drain(engine: ObliviousEngine) -> None:
    """Run accesses until no real work remains (bounded)."""

    async def loop():
        for _ in range(500):
            if not engine.has_pending_real():
                return
            await engine.run_access()
        raise AssertionError("engine did not drain in 500 accesses")

    asyncio.run(loop())


def submit(engine: ObliviousEngine, op: str, addr: int, value=None) -> ServeRequest:
    request = ServeRequest(op=op, addr=addr, value=value)
    assert engine.submit(request)
    return request


class TestEngine:
    def test_read_your_writes_and_stash_hits(self):
        config = serve_system(levels=6)
        engine = ObliviousEngine(config, InMemoryBackend())
        put = submit(engine, "put", 17, "v1")
        drain(engine)
        assert put.status in ("oram", "stash")
        # The block now sits in the stash: a get completes on-chip.
        get = submit(engine, "get", 17)
        assert get.status == "stash"
        assert (get.found, get.result) == (True, "v1")
        assert get.phases()["sched_wait_ns"] == 0.0  # never queued

    def test_get_of_never_written_address_not_found(self):
        engine = ObliviousEngine(serve_system(levels=6), InMemoryBackend())
        get = submit(engine, "get", 42)
        drain(engine)
        assert (get.status, get.found, get.result) == ("oram", False, None)

    def test_same_address_requests_coalesce_in_order(self):
        engine = ObliviousEngine(serve_system(levels=6), InMemoryBackend())
        first = submit(engine, "put", 5, "a")
        second = submit(engine, "put", 5, "b")
        third = submit(engine, "get", 5)
        drain(engine)
        assert first.status == "oram"
        assert second.status == "coalesced"
        assert (third.status, third.result) == ("coalesced", "b")
        assert engine.real_accesses == 1  # one tree access served all three

    def test_delete_removes_block(self):
        engine = ObliviousEngine(serve_system(levels=6), InMemoryBackend())
        submit(engine, "put", 9, "gone")
        drain(engine)
        deleted = submit(engine, "delete", 9)
        assert deleted.found
        drain(engine)
        after = submit(engine, "get", 9)
        drain(engine)
        assert not after.found

    def test_permanent_backend_failure_fails_request_exactly_once(self):
        config = serve_system(
            levels=5,
            backend="faulty",
            retry_attempts=2,
            retry_base_ns=1000.0,
            fault_error_rate=0.9,
            fault_seed=2,
        )
        engine = ObliviousEngine(config, make_backend(config.service))
        request = submit(engine, "get", 3)

        async def loop():
            for _ in range(200):
                if request.status:
                    return
                await engine.run_access()

        asyncio.run(loop())
        assert request.status in ("failed", "oram")
        if request.status == "failed":
            assert request.error
            assert engine.failed_accesses > 0
        # Either way the engine keeps serving afterwards.
        assert engine.completed_requests == 1

    def test_submit_refuses_when_label_queue_saturated(self):
        config = serve_system(levels=6)
        engine = ObliviousEngine(config, InMemoryBackend())
        admitted = 0
        for addr in range(config.scheduler.label_queue_size + 4):
            if engine.submit(ServeRequest(op="put", addr=1000 + addr, value="x")):
                admitted += 1
        assert admitted == config.scheduler.label_queue_size
        drain(engine)

    def test_phase_chain_is_monotone_and_sums_to_latency(self):
        engine = ObliviousEngine(serve_system(levels=6), InMemoryBackend())
        request = submit(engine, "put", 2, "v")
        drain(engine)
        phases = request.phases()
        assert all(value >= 0 for value in phases.values())
        assert sum(phases.values()) == pytest.approx(request.latency_ns)

    def test_write_failure_requeues_popped_next_entry(self):
        """A write-back failure must not discard the already-selected
        next entry: its request still resolves (no wedged ``_inflight``
        address, no client hanging forever)."""
        config = SystemConfig(
            oram=small_test_config(5, block_bytes=64),
            scheduler=SchedulerConfig(label_queue_size=8, enable_scheduling=False),
            cache=CacheConfig(policy="none"),
            service=ServiceConfig(retry_attempts=2, retry_base_ns=1000.0),
        )
        backend = FlakyWriteBackend()
        backend.fail_writes = True
        engine = ObliviousEngine(config, backend)
        first = submit(engine, "put", 1, "a")
        second = submit(engine, "put", 2, "b")
        drain(engine)
        assert first.status == "oram"
        assert second.status == "oram"
        assert engine.completed_requests == 2
        assert engine._inflight == {}
        assert engine.failed_accesses > 0

    def test_write_failure_does_not_lose_stash_blocks(self):
        """Blocks collected for a bucket write that fails past the retry
        budget go back into the stash — no address loses data."""
        # Merging off: every access writes the whole path down to the
        # root, so the armed backend fails each access at its very last
        # write, after all deeper buckets were collected and written.
        config = SystemConfig(
            oram=small_test_config(5, block_bytes=64),
            scheduler=SchedulerConfig(label_queue_size=8, enable_merging=False),
            cache=CacheConfig(policy="none"),
            service=ServiceConfig(retry_attempts=2, retry_base_ns=1000.0),
        )
        backend = RootWriteFailingBackend()
        engine = ObliviousEngine(config, backend)
        for addr in range(8):
            submit(engine, "put", addr, f"v{addr}")
            drain(engine)
        backend.arm = True
        for addr in range(8):
            victim = submit(engine, "get", addr)
            drain(engine)
            assert victim.status in ("stash", "oram")
        assert engine.failed_accesses > 0
        backend.arm = False
        for addr in range(8):
            check = submit(engine, "get", addr)
            drain(engine)
            assert (check.found, check.result) == (True, f"v{addr}")

    def test_read_failure_restores_position_map(self):
        """A request failed before being served leaves the position map
        pointing at the path the block still lives on, so a later access
        for the same address reads the right path."""
        config = serve_system(levels=5, retry_attempts=2, retry_base_ns=1000.0)
        engine = ObliviousEngine(config, FailingReadBackend())
        old_leaf = engine.posmap.lookup(3)
        request = submit(engine, "get", 3)

        async def loop():
            for _ in range(50):
                if request.status:
                    return
                await engine.run_access()

        asyncio.run(loop())
        assert request.status == "failed"
        assert engine.posmap.lookup(3) == old_leaf
        assert engine._inflight == {}

    def test_session_histogram_keys_are_bounded(self):
        from repro.serve.engine import SESSION_HISTOGRAM_CAP

        tracer = Tracer()
        engine = ObliviousEngine(
            serve_system(levels=5), InMemoryBackend(), tracer=tracer
        )
        assert engine.submit(ServeRequest(op="put", addr=1, value="x", session_id=0))
        drain(engine)
        # Stash hits complete synchronously, one distinct session each.
        for session_id in range(1, SESSION_HISTOGRAM_CAP + 50):
            assert engine.submit(
                ServeRequest(op="get", addr=1, session_id=session_id)
            )
        session_keys = [
            name
            for name in tracer.histograms
            if name.startswith("serve.session.")
        ]
        assert len(session_keys) == SESSION_HISTOGRAM_CAP


class CallLogBackend(InMemoryBackend):
    """Logs every async batch the engine issues, with its node list."""

    def __init__(self):
        super().__init__()
        self.calls = []

    async def aget_many(self, node_ids):
        self.calls.append(("read", list(node_ids)))
        return await super().aget_many(node_ids)

    async def aput_many(self, pairs):
        self.calls.append(("write", [node_id for node_id, _sealed in pairs]))
        await super().aput_many(pairs)


class TestPathSegmentTraffic:
    """The backend contract: one ``aget_many`` + one ``aput_many`` per
    data access and per posmap level per chain, nothing else, with the
    node lists the public records imply."""

    @pytest.mark.parametrize("recursive", (False, True), ids=("flat", "recursive"))
    @pytest.mark.parametrize("replicated", (False, True), ids=("plain", "replicated"))
    def test_one_read_and_one_write_batch_per_segment(
        self, tmp_path, recursive, replicated
    ):
        config = SystemConfig(
            oram=small_test_config(8, block_bytes=64),
            scheduler=SchedulerConfig(label_queue_size=8),
            cache=CacheConfig(policy="none"),
            posmap=PosmapConfig(
                mode="recursive" if recursive else "flat",
                client_budget_bytes=64,
            ),
            replica=ReplicaConfig(
                enabled=replicated,
                dir=str(tmp_path / "replica"),
                checkpoint_every_accesses=16,
            ),
        )
        backend = CallLogBackend()
        engine = ObliviousEngine(
            config,
            backend,
            replicator=Replicator(config.replica) if replicated else None,
        )
        for index in range(40):
            submit(engine, "put" if index % 3 else "get", index % 17, f"v{index}")
            drain(engine)
        assert engine.failed_accesses == 0 and engine.accesses >= 40

        expected = []
        geometry = engine.geometry
        chains = list(engine.posmap.chain_records) if recursive else []
        if recursive:
            assert engine.posmap.depth == 2
            assert len(chains) == engine.accesses
        for slot, (leaf, _dummy, n_read, n_written) in enumerate(engine.records):
            if recursive:
                levels = reversed(engine.posmap.layout.levels)
                for level, chain_leaf in zip(levels, chains[slot]):
                    path = level.path_nodes(chain_leaf)
                    expected.append(("read", path))
                    expected.append(("write", path[::-1]))
            path = geometry.path_nodes(leaf)
            if n_read:
                expected.append(("read", list(path[-n_read:])))
            if n_written:
                expected.append(("write", list(path[::-1][:n_written])))
        assert backend.calls == expected
        # Nearly every access moves a non-empty segment each way.
        reads = sum(1 for op, _nodes in backend.calls if op == "read")
        per_slot = 1 + (engine.posmap.depth if recursive else 0)
        assert reads > 0.9 * per_slot * engine.accesses
        engine.close()


# -------------------------------------------------------------------- service


def run_service_scenario(
    config: SystemConfig,
    clients: int = 4,
    requests: int = 20,
    tracer: Tracer | None = None,
    backend=None,
):
    """Start a service, drive it with the loadgen, stop it."""

    async def scenario():
        service = OramService(config, backend=backend, tracer=tracer)
        host, port = await service.start()
        result = await run_loadgen(
            host,
            port,
            clients=clients,
            requests=requests,
            num_blocks=config.oram.num_blocks,
            seed=13,
        )
        await service.stop()
        return service, result

    return asyncio.run(scenario())


class TestService:
    def test_faulty_four_client_run_loses_nothing(self):
        """The headline acceptance test: fault-injected concurrent load,
        every request answered exactly once, queue never underfull,
        trace schema-valid."""
        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        config = serve_system(
            levels=7,
            backend="faulty",
            fault_error_rate=0.05,
            fault_jitter_ns=2_000.0,
            retry_base_ns=100_000.0,
            fault_seed=23,
        )
        service, result = run_service_scenario(
            config, clients=4, requests=20, tracer=tracer
        )

        assert result.sent == 80
        assert result.lost == 0
        assert result.completed == 80
        assert result.failed == 0
        assert result.mismatches == 0
        assert service.engine.underfull_rounds == 0
        assert service.backend.errors_injected > 0
        assert service.engine.store.retries >= service.backend.errors_injected

        # Exactly-once, cross-checked from the trace itself.
        events = [event.to_dict() for event in ring.events]
        completed_ids = [
            event["request_id"]
            for event in events
            if event["kind"] == "service_completed"
        ]
        assert len(completed_ids) == len(set(completed_ids)) == 80
        admitted_ids = {
            event["request_id"]
            for event in events
            if event["kind"] == "service_admitted"
        }
        assert set(completed_ids) == admitted_ids
        sessions = [e for e in events if e["kind"] == "session_closed"]
        assert sum(e["requests"] for e in sessions) == 80
        assert any(e["kind"] == "backend_retry" for e in events)

        # The full event stream validates against the JSONL schema.
        lines = [json.dumps(event) for event in events]
        assert validate_lines(lines) == []

    def test_memory_backend_run_and_per_session_histograms(self):
        tracer = Tracer()
        config = serve_system(levels=6)
        service, result = run_service_scenario(
            config, clients=2, requests=15, tracer=tracer
        )
        assert (result.lost, result.mismatches) == (0, 0)
        session_histograms = [
            name
            for name, histogram in tracer.histograms.items()
            if name.startswith("serve.session.") and histogram.count > 0
        ]
        assert len(session_histograms) == 2  # one latency histogram per client

    def test_malformed_request_gets_error_response_session_survives(self):
        async def scenario():
            service = OramService(serve_system(levels=5))
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_message(
                writer, {"id": 1, "op": "frob", "addr": 1}
            )
            bad = await protocol.read_message(reader)
            await protocol.write_message(
                writer, {"id": 2, "op": "put", "addr": 1, "value": "ok"}
            )
            good = await protocol.read_message(reader)
            writer.close()
            await writer.wait_closed()
            await service.stop()
            return bad, good

        bad, good = asyncio.run(scenario())
        assert (bad["id"], bad["ok"]) == (1, False)
        assert "op" in bad["error"]
        assert (good["id"], good["ok"]) == (2, True)

    def test_dead_work_loop_fails_clients_and_stop_reraises(self):
        """A cipher that refuses to seal raises at write-back — inside
        the work loop, after the put itself was acknowledged. The loop
        is dead; nothing it owed may hang."""
        config = serve_system(levels=5)

        class RefusingCipher(NullCipher):
            def seal_blocks(self, blocks, capacity):
                raise ConfigError("refusing to seal: got str")

        cipher = RefusingCipher()

        async def read(reader):
            return await asyncio.wait_for(protocol.read_message(reader), 2.0)

        async def scenario():
            service = OramService(config, cipher=cipher)
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_message(
                writer, {"id": 1, "op": "put", "addr": 1, "value": "a str"}
            )
            await protocol.write_message(writer, {"id": 2, "op": "get", "addr": 2})
            owed = [await read(reader), await read(reader)]
            dropped = await read(reader)
            late_reader, late_writer = await asyncio.open_connection(host, port)
            await protocol.write_message(
                late_writer, {"id": 3, "op": "get", "addr": 2}
            )
            refused = await read(late_reader)
            for stream in (writer, late_writer):
                stream.close()
                await stream.wait_closed()
            with pytest.raises(ConfigError, match="got str"):
                await asyncio.wait_for(service.serve_forever(), 2.0)
            with pytest.raises(ConfigError, match="got str"):
                await asyncio.wait_for(service.stop(), 2.0)
            return owed, dropped, refused

        owed, dropped, refused = asyncio.run(scenario())
        assert (owed[0]["id"], owed[0]["ok"]) == (1, True)
        assert dropped is None  # a dead service drops its connections
        for response, client_id in ((owed[1], 2), (refused, 3)):
            assert (response["id"], response["ok"]) == (client_id, False)
            assert "work loop died: ConfigError" in response["error"]

    def test_admission_backpressure_bounds_engine_queue(self):
        """A tiny admission queue + saturated label queue must never
        admit more than capacity holds; the rest waits in the socket."""
        config = serve_system(levels=6, admission_capacity=2)
        service, result = run_service_scenario(config, clients=3, requests=10)
        assert (result.lost, result.mismatches) == (0, 0)
        assert service.engine.underfull_rounds == 0


class TestSealedService:
    """A real cipher behind the wire: the JSON protocol carries ``str``
    values, and ``CounterModeCipher`` seals the same packed records
    ``NullCipher`` stores, so a sealed service serves them exactly."""

    @pytest.mark.parametrize("mode", ["flat", "recursive"])
    def test_counter_mode_service_serves_str_values_over_tcp(self, mode):
        config = dataclasses.replace(
            serve_system(levels=6),
            posmap=PosmapConfig(mode=mode, client_budget_bytes=64),
        )
        backend = InMemoryBackend(TraceRecorder())
        cipher = CounterModeCipher(b"wire-key", config.oram.block_bytes)

        async def scenario():
            service = OramService(config, backend=backend, cipher=cipher)
            assert service.engine.posmap.requires_chain == (mode == "recursive")
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            ids = itertools.count(1)

            async def call(op, addr, **extra):
                message = {"id": next(ids), "op": op, "addr": addr, **extra}
                await protocol.write_message(writer, message)
                response = await asyncio.wait_for(
                    protocol.read_message(reader), 5.0
                )
                assert response["ok"], response
                return response.get("found"), response.get("value")

            full = "ü" * (config.oram.block_bytes // 2)  # exactly block_bytes
            assert await call("get", 3) == (False, None)
            await call("put", 3, value="héllo wörld")
            assert await call("get", 3) == (True, "héllo wörld")
            await call("put", 3, value=full)
            assert await call("get", 3) == (True, full)
            await call("put", 3, value="")  # shorter: no stale tail, no padding
            assert await call("get", 3) == (True, "")
            assert (await call("delete", 3))[0] is True
            assert await call("get", 3) == (False, None)
            writer.close()
            await writer.wait_closed()
            result = await run_loadgen(
                host, port, clients=2, requests=20,
                num_blocks=config.oram.num_blocks, seed=5,
            )
            await service.stop()
            return service, result

        service, result = asyncio.run(scenario())
        assert (result.sent, result.completed) == (40, 40)
        assert (result.lost, result.failed, result.mismatches) == (0, 0, 0)
        sealed = set(map(len, backend.data.values()))
        assert len(sealed) == 1  # one ciphertext length, whatever a bucket holds
        engine = service.engine
        assert verify_engine_trace(engine, backend.trace.events) == len(
            engine.records
        )


# ------------------------------------------------------------------- security


def traced_service_run(workload: str, seed: int, requests: int = 25, error_rate: float = 0.0):
    """One 4-client service run over a trace-recording FaultyBackend.

    ``workload`` contrasts a skewed program against a uniform one —
    the classic indistinguishability experiment, now end-to-end over
    TCP with fault injection at the storage server.
    """
    config = serve_system(
        levels=7,
        backend="faulty",
        retry_base_ns=50_000.0,
        fault_seed=seed,
    )
    backend = FaultyBackend(
        InMemoryBackend(), FaultPlan(error_rate=error_rate, seed=seed)
    )

    async def client(host, port, index, rng):
        reader, writer = await asyncio.open_connection(host, port)
        for sequence in range(requests):
            if workload == "hot":
                addr = rng.randrange(4)  # four hot addresses
            else:
                addr = rng.randrange(config.oram.num_blocks)
            op = "put" if sequence % 2 == 0 else "get"
            message = {"id": sequence, "op": op, "addr": addr}
            if op == "put":
                message["value"] = f"w{index}-{sequence}"
            await protocol.write_message(writer, message)
            response = await protocol.read_message(reader)
            assert response is not None and response["ok"]
        writer.close()
        await writer.wait_closed()

    async def scenario():
        import random

        service = OramService(config, backend=backend)
        host, port = await service.start()
        await asyncio.gather(
            *(client(host, port, i, random.Random(seed * 100 + i)) for i in range(4))
        )
        await service.stop()
        return service

    service = asyncio.run(scenario())
    leaves = [record[0] for record in service.engine.records]
    chunks = split_trace_into_accesses(service.engine.geometry, backend.trace.events)
    shapes = [
        (
            sum(1 for e in chunk if e.op.value == "read"),
            sum(1 for e in chunk if e.op.value == "write"),
        )
        for chunk in chunks
    ]
    return service, TraceProfile(
        leaves=leaves, shapes=shapes, num_leaves=service.engine.geometry.num_leaves
    )


class TestServedTraceSecurity:
    @pytest.fixture(scope="class")
    def served_profiles(self):
        _, hot = traced_service_run("hot", seed=31, requests=60, error_rate=0.02)
        _, uniform = traced_service_run(
            "uniform", seed=32, requests=60, error_rate=0.02
        )
        return hot, uniform

    def test_backend_trace_is_indistinguishable(self, served_profiles):
        hot, uniform = served_profiles
        assert leaf_distribution_pvalue(hot, uniform) > 0.001
        assert shape_distribution_pvalue(hot, uniform) > 0.001
        assert adversary_advantage(hot, uniform, trials=400) < 0.15

    def test_backend_trace_matches_label_reconstruction(self):
        """With a quiescent fault plan (no retries) the bucket trace must
        equal the deterministic reconstruction from the public label
        sequence — the executable form of the paper's security
        argument, now measured at the storage server."""
        service, _profile = traced_service_run("hot", seed=33)
        assert verify_engine_trace(
            service.engine, service.engine.store.backend.trace.events
        ) == len(service.engine.records)


# ----------------------------------------------------------------------- CLI


class TestCli:
    def test_info_lists_backends_and_subcommands(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "service backends: memory, file, faulty" in out
        assert "serve" in out and "loadgen" in out

    def test_service_config_overrides_parse(self):
        config = SystemConfig.from_overrides(
            {
                "service.backend": "faulty",
                "service.fault_error_rate": "0.25",
                "service.admission_capacity": "16",
            }
        )
        assert config.service.backend == "faulty"
        assert config.service.fault_error_rate == 0.25
        assert config.service.admission_capacity == 16

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(backend="cloud")

    def test_service_nonstop_is_gone(self):
        """``pace.mode`` is the way to keep issuing on idle slots; the
        simulator's top-level ``nonstop`` is a different knob."""
        with pytest.raises(ConfigError, match="unknown config key"):
            SystemConfig.from_overrides({"service.nonstop": "true"})
        assert not hasattr(ServiceConfig(), "nonstop")
        assert SystemConfig.from_overrides({"nonstop": "false"}).nonstop is False


# -------------------------------------------------------------------- pacing


class TestPacedPhases:
    """Phase accounting stays exact when the paced turn loop drives the
    engine: every ``service_completed`` breakdown (now including the
    optional ``pace_wait_ns``) sums to ``latency_ns`` to the digit."""

    def run_paced(self, arrival: str = "closed"):
        from repro.config import PaceConfig

        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        config = serve_system(levels=6).replace(
            pace=PaceConfig(mode="fixed", interval_ns=300_000.0)
        )

        async def scenario():
            service = OramService(config, tracer=tracer)
            host, port = await service.start()
            result = await run_loadgen(
                host,
                port,
                clients=3,
                requests=15,
                num_blocks=config.oram.num_blocks,
                seed=17,
                arrival=arrival,
                rate=500.0,
            )
            await service.stop()
            return service, result

        service, result = asyncio.run(scenario())
        assert (result.lost, result.failed, result.mismatches) == (0, 0, 0)
        return service, [event.to_dict() for event in ring.events]

    def test_paced_completions_sum_exactly_and_validate(self):
        from repro.obs.schema import phase_sum_tolerance

        service, events = self.run_paced()
        completions = [
            event for event in events if event["kind"] == "service_completed"
        ]
        assert len(completions) == 45
        paced_waits = 0
        for event in completions:
            phases = event["phases"]
            assert all(value >= 0.0 for value in phases.values())
            assert sum(phases.values()) == pytest.approx(
                event["latency_ns"], abs=phase_sum_tolerance(event["latency_ns"])
            )
            if phases.get("pace_wait_ns", 0.0) > 0.0:
                paced_waits += 1
        # Queued requests spend real time waiting on the pacer clock,
        # and that time is carved out of sched_wait_ns, not invented.
        assert paced_waits > 0
        assert service.pacer is not None and service.pacer.slots > 0
        lines = [json.dumps(event) for event in events]
        assert validate_lines(lines) == []

    def test_open_loop_arrivals_keep_exactly_once(self):
        service, events = self.run_paced(arrival="poisson")
        completed = [
            event["request_id"]
            for event in events
            if event["kind"] == "service_completed"
        ]
        assert len(completed) == len(set(completed)) == 45
