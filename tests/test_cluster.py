"""Tests for ``repro.cluster`` — the sharded oblivious service.

Covers the cluster subsystem's acceptance criteria:

* residue striping (:class:`AddressPartitioner`) and the public
  per-shard config derivations (tree depth, label-queue split, seed
  offsets);
* a multi-client TCP round-trip through :class:`ClusterService` where
  every request is answered exactly once and every shard executes the
  same number of (dummy-padded) accesses;
* cross-shard obliviousness, both exactly — the interleaved shard-visit
  + bucket trace of a sequential (``rr``) run under *skewed* traffic is
  reconstructed from public labels alone — and statistically: per-shard
  trace profiles under skewed vs uniform traffic are indistinguishable;
* shard-tagged observability events validating against the JSONL
  schema, with ``shard_id`` optional so single-engine traces are
  unchanged;
* the satellite work riding along: the table-driven backend registry,
  the engine-side compaction trigger, and the batch simulator running
  over a persistent ``FileBackend`` (torn-tail recovery included).

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.config import (
    CacheConfig,
    ClusterConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    small_test_config,
)
from repro.cluster import (
    AddressPartitioner,
    ClusterService,
    ShardRouter,
    local_shard_lanes,
    shard_identity,
    shard_levels,
)
from repro.errors import ConfigError
from repro.obs.events import ServiceCompleted
from repro.obs.schema import validate_lines
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.oram.encryption import CounterModeCipher
from repro.oram.memory import UntrustedMemory
from repro.oram.path_oram import PathOram
from repro.oram.tree import TreeGeometry
from repro.security import (
    InterleavedTraceRecorder,
    adversary_advantage,
    leaf_distribution_pvalue,
    shape_distribution_pvalue,
    shard_profile,
    verify_interleaved_cluster_trace,
    verify_shard_balance,
    verify_visit_schedule,
)
from repro.serve import protocol
from repro.serve.backends import (
    BACKEND_FACTORIES,
    FaultPlan,
    FaultyBackend,
    FileBackend,
    InMemoryBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.serve.loadgen import run_loadgen


def cluster_system(
    levels: int = 6,
    shards: int = 4,
    dispatch: str = "rr",
    queue: int = 8,
    **service_kwargs: object,
) -> SystemConfig:
    """A small cluster configuration: K shards over an L-level space."""
    return SystemConfig(
        oram=small_test_config(levels, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=queue),
        cache=CacheConfig(policy="none"),
        service=ServiceConfig(**service_kwargs),  # type: ignore[arg-type]
        cluster=ClusterConfig(shards=shards, dispatch=dispatch),
    )


# ---------------------------------------------------------------- partitioning


class TestAddressPartitioner:
    def test_locate_round_trips_and_stripes_by_residue(self):
        part = AddressPartitioner(num_blocks=103, shards=4)
        for addr in range(103):
            shard, local = part.locate(addr)
            assert shard == addr % 4
            assert local == addr // 4
            assert part.global_of(shard, local) == addr

    def test_capacities_partition_the_address_space(self):
        for blocks, shards in ((100, 4), (101, 4), (7, 7), (1, 1), (9, 2)):
            part = AddressPartitioner(blocks, shards)
            caps = [part.shard_capacity(s) for s in range(shards)]
            assert sum(caps) == blocks
            assert max(caps) - min(caps) <= 1
            # Striping puts the leftovers on the lowest shard ids.
            assert caps == sorted(caps, reverse=True)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ConfigError):
            AddressPartitioner(num_blocks=3, shards=4)
        with pytest.raises(ConfigError):
            AddressPartitioner(num_blocks=0, shards=1)
        with pytest.raises(ConfigError):
            AddressPartitioner(num_blocks=8, shards=0)
        with pytest.raises(ConfigError):
            AddressPartitioner(8, 2).shard_capacity(2)


class TestShardConfig:
    def test_shard_trees_shrink_about_one_level_per_doubling(self):
        oram = small_test_config(10, num_blocks=2000)
        cluster = ClusterConfig()
        # Capacity at depth L is (2^(L+1) - 1) * Z * utilization.
        assert shard_levels(2000, oram, cluster) == 9
        assert shard_levels(1000, oram, cluster) == 8
        assert shard_levels(500, oram, cluster) == 7
        assert shard_levels(250, oram, cluster) == 6

    def test_shard_levels_never_exceed_base_and_respect_floor(self):
        oram = small_test_config(6)
        assert shard_levels(oram.num_blocks, oram, ClusterConfig()) == 6
        assert shard_levels(1, oram, ClusterConfig(min_shard_levels=5)) == 5
        # The floor itself is clamped to the base depth.
        assert shard_levels(1, oram, ClusterConfig(min_shard_levels=30)) == 6
        assert (
            shard_levels(1, oram, ClusterConfig(auto_scale_levels=False)) == 6
        )

    def test_full_capacity_tree_cannot_shrink_when_striped(self):
        # The off-by-one the benchmark documents: a maximally-full tree
        # stripes into shards one block past the next-shallower tree's
        # capacity (2^(L+1) - 1 buckets is odd), so depth stays put.
        oram = small_test_config(10)
        assert oram.num_blocks == oram.max_data_blocks()
        part = AddressPartitioner(oram.num_blocks, 2)
        assert shard_levels(part.shard_capacity(0), oram, ClusterConfig()) == 10

    def test_shard_system_config_derivations_are_public(self):
        config = cluster_system(levels=8, shards=4, queue=10)
        part = AddressPartitioner(config.oram.num_blocks, 4)
        shard3 = shard_identity(config, 3).config
        assert shard3.oram.num_blocks == part.shard_capacity(3)
        assert shard3.oram.levels < config.oram.levels
        # The cluster-wide window is split ceil(M / K) per shard so
        # K shards together still hold ~M schedulable entries.
        assert shard3.scheduler.label_queue_size == 3
        assert shard3.seed == config.seed + 3
        # Per-shard queues never collapse below one entry.
        tiny = cluster_system(levels=8, shards=4, queue=2)
        assert (
            shard_identity(tiny, 1).config.scheduler.label_queue_size == 1
        )

    def test_shard_identity_is_the_documented_derivation(self, tmp_path):
        """Every per-shard value, spelled out: these are on-disk names
        and RNG streams, so they must never drift."""
        config = SystemConfig.from_overrides(
            {
                "cluster.shards": 3,
                "oram.levels": 9,
                "oram.num_blocks": 1000,
                "scheduler.label_queue_size": 10,
                "service.backend": "file",
                "service.backend_path": str(tmp_path / "kv.log"),
                "service.admission_capacity": 32,
                "service.fault_seed": 9,
                "replica.enabled": True,
                "replica.dir": str(tmp_path / "replica"),
                "seed": 40,
            }
        )
        for shard, blocks in enumerate((334, 333, 333)):
            identity = shard_identity(config, shard)
            derived = identity.config
            assert identity.salt == f"shard{shard}".encode("ascii")
            assert derived.oram.num_blocks == blocks
            assert derived.oram.levels == 7
            assert derived.scheduler.label_queue_size == 4
            assert derived.service.admission_capacity == 10
            assert derived.service.fault_seed == 9 + shard
            assert derived.service.backend_path == str(
                tmp_path / f"kv.log.shard{shard}"
            )
            assert derived.replica.dir == str(tmp_path / "replica" / f"shard{shard}")
            assert derived.seed == 40 + shard
            # Everything else is the cluster's config, untouched.
            assert derived.replace(
                oram=config.oram,
                scheduler=config.scheduler,
                service=config.service,
                replica=config.replica,
                seed=config.seed,
            ) == config
        # Nothing to derive from an unset path or directory.
        plain = shard_identity(cluster_system(shards=4), 2).config
        assert plain.service.backend_path == ""
        assert plain.replica.dir == ""
        with pytest.raises(ConfigError):
            shard_identity(config, 3)

    def test_cluster_config_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(shards=0)
        with pytest.raises(ConfigError):
            ClusterConfig(dispatch="striped")
        with pytest.raises(ConfigError):
            ClusterConfig(min_shard_levels=-1)

    def test_cluster_overrides_parse(self):
        config = SystemConfig.from_overrides(
            {"cluster.shards": "4", "cluster.dispatch": "rr"}
        )
        assert config.cluster.shards == 4
        assert config.cluster.dispatch == "rr"


# --------------------------------------------------------------- service runs


def run_cluster_scenario(
    config: SystemConfig,
    clients: int = 4,
    requests: int = 15,
    tracer: Tracer | None = None,
    traces=None,
    hot_span: int = 0,
):
    """Start a cluster service, drive it with the loadgen, stop it."""

    async def scenario():
        service = ClusterService(config, tracer=tracer, traces=traces)
        host, port = await service.start()
        result = await run_loadgen(
            host,
            port,
            clients=clients,
            requests=requests,
            num_blocks=service.num_blocks,
            seed=13,
            hot_span=hot_span,
        )
        await service.stop()
        return service, result

    return asyncio.run(scenario())


class TestClusterService:
    def test_four_shard_run_loses_nothing_and_keeps_the_schedule(self):
        """The headline cluster test: concurrent load over four shards,
        every request answered exactly once, every shard padded to the
        same access count, the visit sequence exactly round-robin."""
        config = cluster_system(levels=7, shards=4, dispatch="rr")
        service, result = run_cluster_scenario(config, clients=4, requests=20)

        assert result.sent == 80
        assert (result.lost, result.failed, result.mismatches) == (0, 0, 0)
        workers = service.router.workers
        counts = [worker.engine.accesses for worker in workers]
        verify_shard_balance(counts)
        assert max(counts) == min(counts)  # stop() finishes whole rounds
        assert sum(counts) == service.router.rounds * 4
        assert all(worker.engine.underfull_rounds == 0 for worker in workers)
        verify_visit_schedule(list(service.router.visit_log), 4)
        # Striping actually engaged: shallower trees than the monolith.
        assert all(worker.config.oram.levels < 7 for worker in workers)

    def test_parallel_dispatch_keeps_the_same_round_discipline(self):
        config = cluster_system(levels=6, shards=3, dispatch="parallel")
        service, result = run_cluster_scenario(config, clients=3, requests=15)
        assert (result.lost, result.failed, result.mismatches) == (0, 0, 0)
        counts = [w.engine.accesses for w in service.router.workers]
        verify_shard_balance(counts)
        verify_visit_schedule(list(service.router.visit_log), 3)

    def test_single_shard_cluster_degenerates_to_the_monolith(self):
        config = cluster_system(levels=6, shards=1)
        service, result = run_cluster_scenario(config, clients=2, requests=10)
        assert (result.lost, result.mismatches) == (0, 0)
        worker = service.router.workers[0]
        assert worker.config.oram.levels == 6
        assert worker.config.oram.num_blocks == config.oram.num_blocks

    def test_skewed_load_still_pads_every_shard(self):
        """All real traffic on a hot range; dummy padding must keep the
        cold shards' access counts identical to the hot one's."""
        config = cluster_system(levels=6, shards=4, dispatch="rr")
        service, result = run_cluster_scenario(
            config, clients=2, requests=15, hot_span=3
        )
        assert (result.lost, result.mismatches) == (0, 0)
        counts = [w.engine.accesses for w in service.router.workers]
        assert max(counts) == min(counts)
        reals = [w.engine.real_accesses for w in service.router.workers]
        assert max(reals) > 0  # the skew was real...
        verify_shard_balance(counts)  # ...and invisible at the boundary

    def test_router_rejects_mismatched_backend_and_trace_lists(self):
        config = cluster_system(shards=4)
        with pytest.raises(ConfigError):
            local_shard_lanes(config, backends=[InMemoryBackend()])
        with pytest.raises(ConfigError):
            local_shard_lanes(config, traces=[None, None])
        with pytest.raises(ConfigError):
            ShardRouter(config, [])


# ------------------------------------------------------------- observability


class TestClusterObservability:
    def test_trace_is_shard_tagged_and_schema_valid(self):
        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        config = cluster_system(levels=6, shards=4)
        service, result = run_cluster_scenario(
            config, clients=4, requests=10, tracer=tracer
        )
        assert result.lost == 0
        events = [event.to_dict() for event in ring.events]
        completed = [e for e in events if e["kind"] == "service_completed"]
        assert len(completed) == 40
        shard_ids = {e["shard_id"] for e in completed}
        assert shard_ids == {0, 1, 2, 3}  # every shard served real work
        assert all(isinstance(e["shard_id"], int) for e in completed)
        assert validate_lines([json.dumps(e) for e in events]) == []
        assert tracer.counters.get("cluster.rounds") == service.router.rounds

    def test_shard_id_is_optional_and_type_checked(self):
        event = ServiceCompleted(
            ts_ns=1.0,
            request_id=1,
            session_id=2,
            op="get",
            addr=3,
            status="oram",
            latency_ns=5.0,
            phases={"admission_ns": 1.0, "sched_wait_ns": 1.0, "service_ns": 3.0},
        )
        # Single-engine events omit the field entirely: traces written
        # before the cluster existed and after it are byte-identical.
        assert "shard_id" not in event.to_dict()
        assert validate_lines([json.dumps(event.to_dict())]) == []
        tagged = event.to_dict() | {"shard_id": 2}
        assert validate_lines([json.dumps(tagged)]) == []
        mistyped = event.to_dict() | {"shard_id": "two"}
        assert validate_lines([json.dumps(mistyped)]) != []


# ------------------------------------------------------------------- security


def traced_cluster_run(workload: str, seed: int, requests: int = 40):
    """One 4-client run over a 4-shard ``rr`` cluster with a single
    interleaved trace recorder spanning every shard's backend.

    ``workload`` contrasts a maximally skewed program (every address on
    shard 0) against a uniform one — the cross-shard form of the
    indistinguishability experiment.
    """
    shards = 4
    config = cluster_system(levels=6, shards=shards, dispatch="rr")
    recorder = InterleavedTraceRecorder()

    async def client(host, port, index, rng):
        reader, writer = await asyncio.open_connection(host, port)
        for sequence in range(requests):
            if workload == "skewed":
                addr = rng.randrange(8) * shards  # all residue 0: shard 0
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
        service = ClusterService(config, traces=recorder.shard_views(shards))
        host, port = await service.start()
        await asyncio.gather(
            *(client(host, port, i, random.Random(seed * 100 + i)) for i in range(4))
        )
        await service.stop()
        return service

    return asyncio.run(scenario()), recorder


class TestClusterSecurity:
    def test_interleaved_trace_reconstructible_from_public_labels(self):
        """The tentpole security property, measured: under maximally
        skewed traffic the full cross-shard view — which shard's
        storage is touched when, and which buckets — equals the
        deterministic reconstruction from the public label sequences
        and the fixed dispatch schedule. An adversary watching all four
        storage front doors learns nothing the labels don't say."""
        service, recorder = traced_cluster_run("skewed", seed=51)
        workers = service.router.workers
        counts = [worker.engine.accesses for worker in workers]
        verify_shard_balance(counts)
        verify_visit_schedule(list(service.router.visit_log), 4)
        checked = verify_interleaved_cluster_trace(
            [worker.engine.geometry for worker in workers],
            recorder.events,
            [[r[0] for r in worker.engine.records] for worker in workers],
            merging=service.config.scheduler.enable_merging,
        )
        assert checked > 1000  # the reconstruction covered a real run

    @pytest.fixture(scope="class")
    def cluster_profiles(self):
        def profiles(service):
            return [
                shard_profile(w.engine.geometry, w.engine.records)
                for w in service.router.workers
            ]

        skewed, _ = traced_cluster_run("skewed", seed=61, requests=60)
        uniform, _ = traced_cluster_run("uniform", seed=62, requests=60)
        uniform2, _ = traced_cluster_run("uniform", seed=63, requests=60)
        return profiles(skewed), profiles(uniform), profiles(uniform2)

    def test_per_shard_profiles_statistically_indistinguishable(
        self, cluster_profiles
    ):
        skewed, uniform, uniform2 = cluster_profiles
        for shard, (hot, cold) in enumerate(zip(skewed, uniform)):
            assert leaf_distribution_pvalue(hot, cold) > 0.001, shard
            assert shape_distribution_pvalue(hot, cold) > 0.001, shard
        # The hot shard is where a distinguisher would look first. The
        # per-shard samples are small, so the bootstrap classifier is
        # noisy; calibrate against the null (two uniform runs) instead
        # of an absolute threshold.
        advantage = adversary_advantage(skewed[0], uniform[0], trials=400)
        baseline = adversary_advantage(uniform2[0], uniform[0], trials=400)
        assert advantage < baseline + 0.15

    def test_schedule_checkers_catch_violations(self):
        verify_visit_schedule([2, 3, 0, 1, 2, 3], shards=4)  # offset ok
        with pytest.raises(ConfigError):
            verify_visit_schedule([0, 1, 1, 2], shards=3)
        verify_shard_balance([5, 5, 4, 4])  # mid-round prefix
        with pytest.raises(ConfigError):
            verify_shard_balance([5, 3, 5])
        with pytest.raises(ConfigError):
            verify_shard_balance([4, 5, 5])  # out-of-order progress


# ------------------------------------------------------- backend satellites


class TestBackendRegistry:
    def test_registry_drives_the_public_list(self):
        assert available_backends() == ("memory", "file", "faulty")
        assert tuple(BACKEND_FACTORIES) == available_backends()

    def test_register_backend_extends_config_validation(self):
        class NullBackend(InMemoryBackend):
            pass

        register_backend("null-test", lambda config, trace: NullBackend(trace))
        try:
            config = ServiceConfig(backend="null-test")  # validates
            assert isinstance(make_backend(config), NullBackend)
            with pytest.raises(ConfigError):
                register_backend("null-test", lambda config, trace: None)
        finally:
            del BACKEND_FACTORIES["null-test"]
        with pytest.raises(ConfigError):
            ServiceConfig(backend="null-test")

    def test_shard_service_config_splits_paths_and_fault_streams(self, tmp_path):
        base = cluster_system(
            shards=3,
            backend="file",
            backend_path=str(tmp_path / "kv.log"),
            fault_seed=9,
        )
        shard2 = shard_identity(base, 2).config.service
        assert shard2.backend_path == str(tmp_path / "kv.log.shard2")
        assert shard2.fault_seed == 11
        # Sharded file backends land in distinct logs.
        b0 = make_backend(shard_identity(base, 0).config.service)
        b1 = make_backend(shard_identity(base, 1).config.service)
        try:
            b0[1] = b"zero"
            b1[1] = b"one"
            assert (b0[1], b1[1]) == (b"zero", b"one")
        finally:
            b0.close()
            b1.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "kv.log.shard0",
            "kv.log.shard1",
        ]


def drain(engine: ObliviousEngine) -> None:
    async def loop():
        for _ in range(2000):
            if not engine.has_pending_real():
                return
            await engine.run_access()
        raise AssertionError("engine did not drain in 2000 accesses")

    asyncio.run(loop())


class TestEngineCompaction:
    def serve_file_system(self, path: str, threshold: int) -> SystemConfig:
        return SystemConfig(
            oram=small_test_config(5, block_bytes=64),
            scheduler=SchedulerConfig(label_queue_size=8),
            cache=CacheConfig(policy="none"),
            service=ServiceConfig(
                backend="file",
                backend_path=path,
                compact_every_appends=threshold,
            ),
        )

    def test_engine_compacts_a_growing_log(self, tmp_path):
        path = str(tmp_path / "kv.log")
        config = self.serve_file_system(path, threshold=50)
        backend = FileBackend(path)
        engine = ObliviousEngine(config, backend)
        for round_no in range(6):
            for addr in range(8):
                assert engine.submit(
                    ServeRequest(op="put", addr=addr, value=f"r{round_no}")
                )
            drain(engine)
        assert engine.compactions >= 1
        # The compaction trigger bounds staleness at the threshold
        # (plus the appends of the access that crossed it).
        assert backend.records_appended - len(backend) < 50 + 32
        # Compaction lost nothing: the store still answers correctly.
        get = ServeRequest(op="get", addr=3)
        assert engine.submit(get)
        drain(engine)
        assert (get.found, get.result) == (True, "r5")
        engine.close()

    def test_compaction_reaches_through_wrapping_backends(self, tmp_path):
        path = str(tmp_path / "kv.log")
        config = self.serve_file_system(path, threshold=40)
        inner = FileBackend(path)
        backend = FaultyBackend(inner, FaultPlan(error_rate=0.0, seed=3))
        engine = ObliviousEngine(config, backend)
        for round_no in range(6):
            for addr in range(6):
                engine.submit(ServeRequest(op="put", addr=addr, value="x"))
            drain(engine)
        assert engine.compactions >= 1  # found the log through .base
        engine.close()

    def test_zero_threshold_disables_compaction(self, tmp_path):
        path = str(tmp_path / "kv.log")
        config = self.serve_file_system(path, threshold=0)
        backend = FileBackend(path)
        engine = ObliviousEngine(config, backend)
        for round_no in range(4):
            for addr in range(6):
                engine.submit(ServeRequest(op="put", addr=addr, value="y"))
            drain(engine)
        assert engine.compactions == 0
        engine.close()

    def test_compact_every_appends_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(compact_every_appends=-1)


class TestBatchSimulatorOverFileBackend:
    def test_path_oram_runs_over_persistent_backend(self, tmp_path):
        """The batch simulator drives the backend through the plain
        synchronous mapping protocol — same seam the async service
        uses, same on-disk format, torn-tail recovery included."""
        path = str(tmp_path / "tree.log")
        oram_config = small_test_config(4)
        cipher = CounterModeCipher(key=b"s" * 16, block_bytes=16)
        backend = FileBackend(path)
        memory = UntrustedMemory(
            TreeGeometry(oram_config.levels),
            oram_config.bucket_slots,
            cipher,
            backend=backend,
        )
        oram = PathOram(oram_config, rng=random.Random(5), memory=memory)
        payloads = {addr: f"p{addr}" for addr in range(20)}
        for addr, payload in payloads.items():
            oram.write(addr, payload)
        for addr, payload in payloads.items():
            assert oram.read(addr) == payload
        assert backend.records_appended > 0
        backend.sync()
        snapshot = {node: backend[node] for node in backend}
        backend.close()

        # Crash mid-append: the recovered store must be a prefix of the
        # pre-crash state and every surviving bucket must still open.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        recovered = FileBackend(path)
        assert recovered.torn_tail
        assert set(recovered) <= set(snapshot)
        # Tearing the newest record for a node rolls that node back to
        # its previous version; every other node must be untouched.
        stale = [n for n in recovered if recovered[n] != snapshot[n]]
        assert len(stale) <= 1
        memory2 = UntrustedMemory(
            TreeGeometry(oram_config.levels),
            oram_config.bucket_slots,
            cipher,
            backend=recovered,
        )
        for node in list(recovered):
            memory2.read_bucket(node)  # decrypts cleanly
        recovered.close()


# ----------------------------------------------------------------------- CLI


class TestClusterCli:
    def test_info_lists_cluster_and_compact(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out and "compact" in out

    def test_compact_command_shrinks_a_stale_log(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "kv.log")
        backend = FileBackend(path)
        for round_no in range(10):
            for node in range(5):
                backend[node] = f"r{round_no}-n{node}".encode()
        backend.close()
        before = os.path.getsize(path)
        assert main(["compact", path]) == 0
        out = capsys.readouterr().out
        assert "50 records" in out and "5 live" in out
        assert os.path.getsize(path) < before
        reopened = FileBackend(path)
        assert reopened.recovered_records == 5
        assert reopened[4] == b"r9-n4"
        reopened.close()

    def test_compact_command_missing_path(self, tmp_path):
        from repro.cli import main

        assert main(["compact", str(tmp_path / "absent.log")]) == 2
