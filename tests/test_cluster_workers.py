"""Tests for process-per-shard cluster workers and the dispatch fixes.

Covers this change set's acceptance criteria:

* the cluster-wide admission bound: ``shard_identity`` divides
  ``service.admission_capacity`` across the shards (floor 1), and each
  in-process lane builds its queue from the *shard* config — a K-shard
  cluster admits the configured bound, not K times it;
* ``ShardRouter.run_round`` exception accounting: a shard's failure no
  longer erases the public record of the shards that completed their
  access (visits logged, round counted, error re-raised);
* explicit replication misroute errors: a malformed or out-of-range
  ``shard`` in a replicate request gets a protocol error naming the
  valid range, end to end over TCP;
* the :class:`~repro.serve.protocol.FrameClient` helper (id-correlated
  demultiplexing, failure on disconnect);
* the worker process building blocks in-process — control ops on
  :class:`ShardWorkerService` — and the real thing end to end: a
  multi-process cluster behind ``cluster.workers = "process"``, with
  supervised SIGKILL crash-recovery through the replica path.

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.config import (
    CacheConfig,
    ClusterConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    flatten_overrides,
    small_test_config,
)
from repro.cluster import (
    ClusterService,
    ShardRouter,
    ShardWorkerService,
    local_shard_lanes,
    shard_identity,
)
from repro.errors import ConfigError, ProtocolError
from repro.security import verify_shard_balance, verify_visit_schedule
from repro.serve import protocol
from repro.serve.loadgen import run_loadgen


def cluster_system(
    levels: int = 6,
    shards: int = 4,
    dispatch: str = "rr",
    queue: int = 8,
    workers: str = "inline",
    **service_kwargs: object,
) -> SystemConfig:
    """A small cluster configuration: K shards over an L-level space."""
    return SystemConfig(
        oram=small_test_config(levels, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=queue),
        cache=CacheConfig(policy="none"),
        service=ServiceConfig(**service_kwargs),  # type: ignore[arg-type]
        cluster=ClusterConfig(shards=shards, dispatch=dispatch, workers=workers),
    )


def process_cluster_config(
    shards: int,
    tmp_path=None,
    *,
    ack_mode: str = "none",
    checkpoint_every: int = 8,
    record_trace: bool = False,
    recursive_posmap: bool = False,
) -> SystemConfig:
    """A small multi-process cluster (optionally with replication)."""
    overrides: dict = {
        "cluster.shards": shards,
        "cluster.workers": "process",
        "cluster.worker_record_trace": record_trace,
        "oram.levels": 8,
        "oram.num_blocks": 400,
        "oram.block_bytes": 64,
        "scheduler.label_queue_size": 16,
        "nonstop": False,
    }
    if recursive_posmap:
        overrides.update(
            {"posmap.mode": "recursive", "posmap.client_budget_bytes": 128}
        )
    if tmp_path is not None:
        overrides.update(
            {
                "replica.enabled": True,
                "replica.dir": str(tmp_path / "replica"),
                "replica.ack_mode": ack_mode,
                "replica.checkpoint_every_accesses": checkpoint_every,
            }
        )
    return SystemConfig.from_overrides(overrides)


def local_router(config: SystemConfig) -> ShardRouter:
    """The one router over in-process lanes (what ``ClusterService``
    builds for ``cluster.workers = "inline"``)."""
    return ShardRouter(config, local_shard_lanes(config))


# -------------------------------------------------------- admission division


class TestAdmissionDivision:
    def test_shard_config_divides_admission_capacity(self):
        config = cluster_system(shards=4, admission_capacity=32)
        for shard in range(4):
            derived = shard_identity(config, shard).config
            assert derived.service.admission_capacity == 8

    def test_division_floors_at_one(self):
        config = cluster_system(shards=8, admission_capacity=3)
        for shard in range(8):
            derived = shard_identity(config, shard).config
            assert derived.service.admission_capacity == 1

    def test_cluster_total_does_not_exceed_configured_bound(self):
        """Regression: workers used the *global* capacity, so K shards
        admitted K times the configured cluster-wide bound."""

        async def run() -> None:
            config = cluster_system(shards=4, admission_capacity=8)
            router = local_router(config)
            try:
                total = sum(
                    worker._admission.maxsize for worker in router.workers
                )
                assert total == 8
                for worker in router.workers:
                    assert worker._admission.maxsize == 2
            finally:
                router.close()

        asyncio.run(run())


# ------------------------------------------------------ run_round accounting


class _Boom(RuntimeError):
    pass


def _router_with_failing_shard(dispatch: str, failing: int) -> ShardRouter:
    config = cluster_system(shards=3, dispatch=dispatch)
    router = local_router(config)

    async def explode() -> None:
        raise _Boom(f"shard {failing} backend died")

    router.workers[failing].run_turn = explode  # type: ignore[method-assign]
    return router


class TestRunRoundAccounting:
    def test_rr_records_completed_visits_before_reraising(self):
        async def run() -> None:
            router = _router_with_failing_shard("rr", failing=1)
            try:
                with pytest.raises(_Boom):
                    await router.run_round()
                # Shard 0 executed its access before shard 1 failed;
                # the public record must say so.
                assert list(router.visit_log) == [0]
                assert router.rounds == 1
            finally:
                router.close()

        asyncio.run(run())

    def test_parallel_records_all_completed_visits(self):
        async def run() -> None:
            router = _router_with_failing_shard("parallel", failing=1)
            try:
                with pytest.raises(_Boom):
                    await router.run_round()
                # Shards 0 and 2 completed their concurrent turns even
                # though shard 1 failed mid-round.
                assert list(router.visit_log) == [0, 2]
                assert router.rounds == 1
            finally:
                router.close()

        asyncio.run(run())

    @pytest.mark.parametrize("dispatch", ["rr", "parallel"])
    def test_unavailable_lane_is_counted_and_the_round_completes(self, dispatch):
        """A lane raising ``ProtocolError`` (a worker mid-restart) is
        unavailable, not fatal: the fixed schedule is public, so the
        visit stands, the failure is counted and later shards run."""

        async def run() -> None:
            router = local_router(cluster_system(shards=3, dispatch=dispatch))

            async def unavailable() -> None:
                raise ProtocolError("shard 1 worker is unavailable")

            router.workers[1].run_turn = unavailable  # type: ignore[method-assign]
            try:
                await router.run_round()
                await router.run_round()
                assert router.turn_failures == 2
                verify_visit_schedule(list(router.visit_log), 3)
                assert router.rounds == 2
                assert [lane.accesses for lane in router.workers] == [2, 0, 2]
            finally:
                router.close()

        asyncio.run(run())

    def test_healthy_round_logs_full_schedule(self):
        async def run() -> None:
            config = cluster_system(shards=3, dispatch="parallel")
            router = local_router(config)
            try:
                for _ in range(4):
                    await router.run_round()
                verify_visit_schedule(list(router.visit_log), 3)
                assert router.rounds == 4
            finally:
                router.close()

        asyncio.run(run())


# -------------------------------------------------- replicate shard errors


class TestReplicateShardErrors:
    def test_out_of_range_shard_names_valid_range(self):
        config = cluster_system(shards=4)
        service = ClusterService(config)
        try:
            with pytest.raises(ProtocolError, match=r"\[0, 4\)"):
                service._replicator_for({"op": "replicate", "shard": 99})
        finally:
            service.router.close()

    def test_malformed_shard_names_valid_range(self):
        config = cluster_system(shards=2)
        service = ClusterService(config)
        try:
            for bad in ("zap", True, -1, 2.5, None):
                with pytest.raises(ProtocolError, match=r"\[0, 2\)"):
                    service._replicator_for({"op": "replicate", "shard": bad})
        finally:
            service.router.close()

    def test_error_reaches_the_standby_over_tcp(self):
        """End to end: the generic 'replication is not enabled' failure
        is replaced by an explicit error naming the shard range."""

        async def run() -> None:
            service = ClusterService(cluster_system(shards=4))
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await protocol.write_message(
                    writer, {"id": 7, "op": "replicate", "shard": 99}
                )
                response = await protocol.read_message(reader)
                assert response is not None
                assert response["ok"] is False
                assert "[0, 4)" in response["error"]
                assert "99" in response["error"]
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------- FrameClient


class TestFrameClient:
    def test_correlates_out_of_order_responses(self):
        async def run() -> None:
            async def handler(reader, writer):
                # Answer every pair of requests in reversed order.
                first = await protocol.read_message(reader)
                second = await protocol.read_message(reader)
                for message in (second, first):
                    await protocol.write_message(
                        writer, {"id": message["id"], "echo": message["value"]}
                    )

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = protocol.FrameClient("127.0.0.1", port)
            await client.connect()
            try:
                one, two = await asyncio.gather(
                    client.call({"value": "a"}), client.call({"value": "b"})
                )
                assert one["echo"] == "a"
                assert two["echo"] == "b"
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_disconnect_fails_inflight_calls(self):
        async def run() -> None:
            async def handler(reader, writer):
                await protocol.read_message(reader)
                writer.close()  # hang up without answering

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = protocol.FrameClient("127.0.0.1", port)
            await client.connect()
            try:
                with pytest.raises(ProtocolError, match="lost"):
                    await client.call({"value": "x"})
                assert not client.connected
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())


# ------------------------------------------------------------- config shipping


class TestFlattenOverrides:
    def test_round_trips_a_nontrivial_config(self):
        config = SystemConfig.from_overrides(
            {
                "cluster.shards": 4,
                "cluster.workers": "process",
                "oram.levels": 9,
                "scheduler.label_queue_size": 24,
                "service.admission_capacity": 17,
                "nonstop": False,
                "seed": 42,
            }
        )
        flat = flatten_overrides(config)
        assert flat["cluster.workers"] == "process"
        assert flat["oram.levels"] == 9
        rebuilt = SystemConfig.from_overrides(flat)
        assert rebuilt == config

    def test_bad_workers_mode_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(workers="threads")


# ------------------------------------------------------- worker control plane


class TestShardWorkerControl:
    """The worker's session/control machinery, exercised in-process."""

    def _config(self, **overrides) -> SystemConfig:
        return SystemConfig.from_overrides(
            {
                "cluster.shards": 2,
                "cluster.worker_record_trace": True,
                "oram.levels": 8,
                "oram.num_blocks": 200,
                "scheduler.label_queue_size": 8,
                "nonstop": False,
                **overrides,
            }
        )

    def test_turn_driven_kv_round_trip_and_verify(self):
        async def run() -> None:
            service = ShardWorkerService(self._config(), shard_id=0)
            host, port = await service.start()
            data = protocol.FrameClient(host, port)
            control = protocol.FrameClient(host, port)
            await data.connect()
            await control.connect()
            try:
                ping = await control.call({"op": "ping"})
                assert ping["ok"] and ping["shard"] == 0

                put = asyncio.create_task(
                    data.call({"op": "put", "addr": 3, "value": "hello"})
                )
                while not put.done():
                    turn = await control.call({"op": "turn"})
                    assert turn["ok"]
                assert put.result()["ok"]

                get = asyncio.create_task(data.call({"op": "get", "addr": 3}))
                while not get.done():
                    await control.call({"op": "turn"})
                response = get.result()
                assert response["ok"] and response["found"]
                assert response["value"] == "hello"

                stats = await control.call({"op": "stats"})
                assert stats["ok"] and stats["accesses"] >= 2
                assert stats["shard"] == 0

                flush = await control.call({"op": "flush"})
                assert flush["ok"]

                # In-worker label-reconstruction check: the recorded
                # bucket trace equals the public-label reconstruction.
                verify = await control.call({"op": "verify"})
                assert verify["ok"], verify.get("error")
                assert verify["verified_accesses"] >= 2
            finally:
                await data.close()
                await control.close()
                await service.stop()

        asyncio.run(run())

    @staticmethod
    async def _verify_after_puts(service, tamper=None) -> dict:
        """Turn-drive a few puts through the worker, optionally tamper
        with its recorded trace, and return its ``verify`` answer."""
        host, port = await service.start()
        data = protocol.FrameClient(host, port)
        control = protocol.FrameClient(host, port)
        await data.connect()
        await control.connect()
        try:
            for addr in range(6):
                put = asyncio.create_task(
                    data.call({"op": "put", "addr": addr, "value": f"v{addr}"})
                )
                while not put.done():
                    assert (await control.call({"op": "turn"}))["ok"]
                assert put.result()["ok"]
            if tamper is not None:
                tamper(service)
            verdict = await control.call({"op": "verify"})
            verdict.pop("id")  # the frame client's correlation id
            return verdict
        finally:
            await data.close()
            await control.close()
            await service.stop()

    def test_verify_on_a_recursive_posmap_shard(self):
        """The worker's verdict is chain-aware: clean recursive runs
        verify, and a reordered trace is rejected with the event named."""
        config = self._config(
            **{"posmap.mode": "recursive", "posmap.client_budget_bytes": 128}
        )

        def swap_adjacent(service) -> None:
            events = service.lane.backend.trace.events
            middle = len(events) // 2
            events[middle], events[middle + 1] = (
                events[middle + 1], events[middle],
            )
            swap_adjacent.at = middle

        clean = ShardWorkerService(config, shard_id=0)
        assert clean.lane.engine.posmap.requires_chain
        verdict = asyncio.run(self._verify_after_puts(clean))
        assert verdict["ok"], verdict.get("error")
        assert verdict["verified_accesses"] == verdict["accesses"] >= 6

        verdict = asyncio.run(
            self._verify_after_puts(
                ShardWorkerService(config, shard_id=0), swap_adjacent
            )
        )
        assert verdict["ok"] is False
        assert verdict["error"].startswith(
            f"trace diverges from chain reconstruction at event "
            f"{swap_adjacent.at}: expected "
        )

    def test_verify_refusals_keep_their_wording(self):
        untraced = ShardWorkerService(
            self._config(**{"cluster.worker_record_trace": False}), shard_id=0
        )
        assert asyncio.run(self._verify_after_puts(untraced)) == {
            "ok": False,
            "error": "tracing disabled (set cluster.worker_record_trace)",
        }

        def overflow(service) -> None:
            service.lane.engine.records.popleft()

        overflowed = ShardWorkerService(self._config(), shard_id=0)
        verdict = asyncio.run(self._verify_after_puts(overflowed, overflow))
        accesses = overflowed.lane.engine.accesses
        assert verdict == {
            "ok": False,
            "error": (
                f"record window overflowed ({accesses} accesses, "
                f"{accesses - 1} retained); verify earlier in the run"
            ),
        }

    def test_shard_local_address_bound_is_enforced(self):
        async def run() -> None:
            service = ShardWorkerService(self._config(), shard_id=0)
            host, port = await service.start()
            client = protocol.FrameClient(host, port)
            await client.connect()
            try:
                capacity = service.lane.config.oram.num_blocks
                response = await client.call(
                    {"op": "get", "addr": capacity + 5}
                )
                assert response["ok"] is False
                assert "out of range" in response["error"]
            finally:
                await client.close()
                await service.stop()

        asyncio.run(run())

    def test_replicate_for_wrong_shard_is_refused(self):
        async def run() -> None:
            service = ShardWorkerService(self._config(), shard_id=1)
            host, port = await service.start()
            client = protocol.FrameClient(host, port)
            await client.connect()
            try:
                response = await client.call({"op": "replicate", "shard": 0})
                assert response["ok"] is False
                assert "serves shard 1" in response["error"]
            finally:
                await client.close()
                await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------- process cluster


class TestProcessCluster:
    def test_multi_process_round_trip_balanced(self):
        """A 2-shard process cluster answers every request exactly once
        and keeps the dummy-padded schedule balanced across workers."""

        async def run() -> None:
            service = ClusterService(process_cluster_config(2))
            host, port = await service.start()
            try:
                result = await run_loadgen(
                    host, port, clients=4, requests=25, num_blocks=400
                )
                assert result.lost == 0
                assert result.failed == 0
                assert result.mismatches == 0
                stats = await service.router.stats()
                accesses = [s["accesses"] for s in stats]
                # The fixed schedule visits every shard once per round:
                # access counts may differ only by in-flight turns.
                verify_shard_balance(accesses)
                verify_visit_schedule(list(service.router.visit_log), 2)
            finally:
                await service.stop()
            for process in service.fleet.processes:
                assert not process.alive

        asyncio.run(run())

    def test_recursive_posmap_workers_verify_their_traces(self):
        """Each worker of a ``posmap.mode=recursive`` process cluster
        checks its own recorded bucket trace against the chain-aware
        reconstruction (the flat verifier rejects event 0 here)."""

        async def run() -> None:
            service = ClusterService(
                process_cluster_config(
                    2, record_trace=True, recursive_posmap=True
                )
            )
            host, port = await service.start()
            try:
                result = await run_loadgen(
                    host, port, clients=2, requests=10, num_blocks=400
                )
                assert (result.lost, result.failed, result.mismatches) == (0, 0, 0)
                for handle in service.fleet.handles:
                    verdict = await handle.control("verify")
                    assert verdict["ok"], verdict.get("error")
                    assert verdict["verified_accesses"] > 0
            finally:
                await service.stop()

        asyncio.run(run())

    def test_rejects_inline_only_arguments(self):
        from repro.serve.backends import InMemoryBackend

        with pytest.raises(ConfigError, match="inline"):
            ClusterService(
                process_cluster_config(2),
                backends=[InMemoryBackend(), InMemoryBackend()],
            )


class TestWorkerCrashRecovery:
    def test_sigkill_restart_preserves_acknowledged_writes(self, tmp_path):
        """SIGKILL one worker mid-load: the supervisor restarts it
        through the replica recovery path, every checkpoint-acknowledged
        write survives, and the visit schedule stays balanced."""

        async def run() -> None:
            config = process_cluster_config(
                2, tmp_path, ack_mode="checkpoint", checkpoint_every=8
            )
            service = ClusterService(config)
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Every acknowledged put is durable by construction
                # (ack_mode="checkpoint" defers the response until a
                # sealed checkpoint covers it).
                for sequence in range(30):
                    await protocol.write_message(
                        writer,
                        {
                            "id": sequence,
                            "op": "put",
                            "addr": sequence,
                            "value": f"v{sequence}",
                        },
                    )
                    response = await protocol.read_message(reader)
                    assert response is not None and response["ok"]

                victim = service.fleet.processes[1]
                old_pid = victim.pid
                os.kill(old_pid, signal.SIGKILL)
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    if (
                        victim.alive
                        and victim.pid != old_pid
                        and service.fleet.handles[1].connected
                    ):
                        break
                assert victim.restarts == 1
                assert service.fleet.worker_restarts == 1

                for sequence in range(30):
                    await protocol.write_message(
                        writer,
                        {"id": 100 + sequence, "op": "get", "addr": sequence},
                    )
                    response = await protocol.read_message(reader)
                    assert response is not None
                    assert response["ok"], response
                    assert response["found"], (
                        f"acknowledged write to addr {sequence} lost"
                    )
                    assert response["value"] == f"v{sequence}"

                verify_visit_schedule(list(service.router.visit_log), 2)
                counts = [0, 0]
                for shard in service.router.visit_log:
                    counts[shard] += 1
                verify_shard_balance(counts)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
                await service.stop()

        asyncio.run(run())
