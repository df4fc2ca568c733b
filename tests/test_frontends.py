"""One conformance suite over every front end.

The single-engine :class:`OramService`, the inline cluster (``rr`` and
``parallel`` dispatch) and the process cluster share one turn loop
(:meth:`ServiceFrontEnd._run_turns`) over one lane surface
(:mod:`repro.serve.lane`), so the behaviours that loop promises are
checked once, parametrised over all of them:

(a) a burst of gets for a stash-resident address buys no tree access;
(b) admission stays bounded and per-session order survives a saturated
    label queue (the head-of-line hold);
(c) a work loop killed mid-run fails every owed request and refuses new
    sessions with the same text;
(d) a paced service at zero load issues one pure-dummy access per lane
    per slot and reaches ``flush_durability`` on every one.

The process cluster's supervisor cannot see into its workers' engines:
where a check needs the engine it is made over the in-process lanes and
the process case asserts what is visible at the supervisor.

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

import pytest

from repro.cluster import ClusterService
from repro.config import SystemConfig
from repro.security import verify_visit_schedule
from repro.serve import protocol
from repro.serve.lane import EngineLane
from repro.serve.service import OramService, ServiceFrontEnd

KINDS = ("single", "inline-rr", "inline-parallel", "process")
LOCAL_KINDS = KINDS[:3]
SHARDS = 2


def front_end(kind: str, **overrides: object) -> ServiceFrontEnd:
    settings: Dict[str, object] = {
        "oram.levels": 7,
        "oram.num_blocks": 200,
        "oram.block_bytes": 64,
        "scheduler.label_queue_size": 8,
        "cache.policy": "none",
    }
    settings.update(overrides)
    if kind == "single":
        return OramService(SystemConfig.from_overrides(settings))
    settings["cluster.shards"] = SHARDS
    settings["cluster.dispatch"] = "rr" if kind == "inline-rr" else "parallel"
    settings["cluster.workers"] = "process" if kind == "process" else "inline"
    return ClusterService(SystemConfig.from_overrides(settings))


def shard_lanes(service: ServiceFrontEnd) -> list:
    """The lanes that hold (or reach) an engine, one per shard."""
    if isinstance(service, ClusterService):
        return service.router.workers
    return [service.lane]


def turns(service: ServiceFrontEnd) -> int:
    """Turns the loop has run: accesses of the one engine, or rounds."""
    if isinstance(service, ClusterService):
        return service.router.rounds
    return service.lane.accesses


def lane_of(service: ServiceFrontEnd, addr: int) -> EngineLane:
    """The in-process lane that owns ``addr`` (local front ends)."""
    if isinstance(service, ClusterService):
        return service.router.workers[addr % SHARDS]
    return service.lane


def local_addr(service: ServiceFrontEnd, addr: int) -> int:
    return addr // SHARDS if isinstance(service, ClusterService) else addr


async def call(reader, writer, message: dict) -> dict:
    await protocol.write_message(writer, message)
    response = await asyncio.wait_for(protocol.read_message(reader), 10.0)
    assert response is not None
    return response


async def pipeline(reader, writer, messages: List[dict]) -> Dict[int, dict]:
    """Write every frame before reading any response; responses by id."""
    for message in messages:
        await protocol.write_message(writer, message)
    responses = {}
    for _ in messages:
        response = await asyncio.wait_for(protocol.read_message(reader), 20.0)
        assert response is not None
        responses[response["id"]] = response
    return responses


async def quiesce(service: ServiceFrontEnd) -> None:
    """Wait until the turn loop has gone idle."""
    for _ in range(500):
        await asyncio.sleep(0.002)
        if service.lane.pending() == 0 and not service._wake.is_set():
            return
    raise AssertionError("service did not go idle")


# ------------------------------------------------------- (a) stash-hit burst


@pytest.mark.parametrize("kind", KINDS)
def test_stash_resident_burst_buys_no_tree_access(kind):
    async def scenario() -> None:
        service = front_end(kind)
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            # Find an address the completed put left on-chip (whether
            # the write-back evicts it is a function of the seed).
            for addr in range(1, 40):
                put = await call(
                    reader, writer,
                    {"id": addr, "op": "put", "addr": addr, "value": f"v{addr}"},
                )
                assert put["ok"]
                await quiesce(service)
                if kind == "process" or lane_of(service, addr).engine.stash.get(
                    local_addr(service, addr)
                ):
                    break
            else:
                raise AssertionError("no put left its block in the stash")
            before = turns(service)
            burst = await pipeline(
                reader, writer,
                [{"id": 100 + n, "op": "get", "addr": addr} for n in range(20)],
            )
            await quiesce(service)
            for response in burst.values():
                assert (response["ok"], response["found"]) == (True, True)
                assert response["value"] == f"v{addr}"
            if kind in LOCAL_KINDS:
                # Every get completed at submit: the drain comes first,
                # and work that is already done is not pending.
                assert turns(service) == before
            else:
                # The supervisor cannot tell a forwarded request will
                # complete at the worker's submit, so it runs rounds
                # while any is unanswered — on the fixed schedule.
                assert service.router.turn_failures == 0
                verify_visit_schedule(list(service.router.visit_log), SHARDS)
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()

    asyncio.run(scenario())


# ---------------------------------- (b) bounded admission, per-session order


@pytest.mark.parametrize("kind", KINDS)
def test_saturated_label_queue_keeps_admission_bounded_and_session_order(kind):
    """One session pipelines a put, an overwriting put and a get for
    many more addresses than the (two-entry) label queue holds, through
    an admission bound of 2."""
    addresses = list(range(30))

    async def scenario() -> None:
        service = front_end(
            kind,
            **{
                "service.admission_capacity": 2,
                "scheduler.label_queue_size": 2,
            },
        )
        refusals = 0
        high_water = 0
        for lane in shard_lanes(service):
            if kind in LOCAL_KINDS:
                engine, submit = lane.engine, lane.engine.submit

                def counting_submit(request, engine=engine, submit=submit):
                    nonlocal refusals
                    admitted = submit(request)
                    refusals += not admitted
                    queue = engine.label_queue
                    assert queue.pending_real <= queue.size
                    return admitted

                engine.submit = counting_submit
            else:
                admit = lane.admit

                async def counting_admit(request, lane=lane, admit=admit):
                    nonlocal high_water
                    await admit(request)
                    high_water = max(high_water, lane.inflight)

                lane.admit = counting_admit
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            # Distinct addresses back to back, so real entries pile up
            # faster than accesses retire them.
            messages = [
                {"id": addr, "op": "put", "addr": addr, "value": f"a{addr}"}
                for addr in addresses
            ]
            messages += [
                {"id": 100 + addr, "op": "put", "addr": addr, "value": f"b{addr}"}
                for addr in addresses
            ]
            messages += [
                {"id": 200 + addr, "op": "get", "addr": addr}
                for addr in addresses
            ]
            responses = await pipeline(reader, writer, messages)
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()
        assert len(responses) == len(messages)
        assert all(response["ok"] for response in responses.values())
        for addr in addresses:
            get = responses[200 + addr]
            assert (get["found"], get["value"]) == (True, f"b{addr}"), addr
        if kind in LOCAL_KINDS:
            # The label queue really saturated, so the head request was
            # held (not re-queued) — or the order above would not hold.
            assert refusals > 0
            for lane in shard_lanes(service):
                assert lane._admission.maxsize == (2 if kind == "single" else 1)
                assert lane.engine.underfull_rounds == 0
        else:
            assert 0 < high_water <= 1  # the divided bound, per shard

    asyncio.run(scenario())


# ------------------------------------------------------- (c) dead work loop


@pytest.mark.parametrize("kind", KINDS)
def test_dead_work_loop_fails_owed_requests_and_refuses_new_sessions(kind):
    async def scenario() -> None:
        service = front_end(kind)

        async def boom() -> None:
            raise RuntimeError("injected turn failure")

        service.lane.run_turn = boom
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await protocol.write_message(writer, {"id": 1, "op": "get", "addr": 3})
            await protocol.write_message(writer, {"id": 2, "op": "get", "addr": 4})
            owed = [
                await asyncio.wait_for(protocol.read_message(reader), 5.0)
                for _ in range(2)
            ]
            dropped = await asyncio.wait_for(protocol.read_message(reader), 5.0)
            late_reader, late_writer = await asyncio.open_connection(host, port)
            refused = await call(
                late_reader, late_writer, {"id": 3, "op": "get", "addr": 3}
            )
            late_writer.close()
            await late_writer.wait_closed()
            with pytest.raises(RuntimeError, match="injected"):
                await asyncio.wait_for(service.serve_forever(), 5.0)
        finally:
            writer.close()
            await writer.wait_closed()
            with pytest.raises(RuntimeError, match="injected"):
                await asyncio.wait_for(service.stop(), 30.0)
        assert dropped is None  # a dead service drops its connections
        text = "service work loop died: RuntimeError: injected turn failure"
        assert sorted(response["id"] for response in owed) == [1, 2]
        for response in (*owed, refused):
            assert response["ok"] is False
            assert response["error"] == text

    asyncio.run(scenario())


# ---------------------------------------------------- (d) paced at zero load


@pytest.mark.parametrize("kind", KINDS)
def test_paced_zero_load_is_one_pure_dummy_access_per_lane_per_slot(kind):
    async def scenario() -> None:
        service = front_end(
            kind, **{"pace.mode": "fixed", "pace.interval_ns": 1_000_000.0}
        )
        flushes = [0] * len(shard_lanes(service))
        for index, lane in enumerate(shard_lanes(service)):
            flush = lane.flush_durability

            def counting_flush(index=index, flush=flush) -> None:
                flushes[index] += 1
                flush()

            lane.flush_durability = counting_flush
        await service.start()
        await asyncio.sleep(0.05)
        if isinstance(service, ClusterService):
            accesses = [s["accesses"] for s in await service.router.stats()]
        else:
            accesses = [service.lane.accesses]
        await service.stop()
        pacer = service.pacer
        assert pacer is not None and pacer.slots >= 8
        assert pacer.dummy_slots == pacer.slots
        # stats() was sampled between two slots; stop() may have let
        # the slot in flight finish.
        for count in accesses:
            assert pacer.slots - 1 <= count <= pacer.slots
        if isinstance(service, ClusterService):
            assert service.router.rounds == pacer.slots
            verify_visit_schedule(list(service.router.visit_log), SHARDS)
        if kind in LOCAL_KINDS:
            for lane in shard_lanes(service):
                assert lane.accesses == pacer.slots
                assert lane.engine.real_accesses == 0
                assert lane.engine.completed_requests == 0
        # Every pure-dummy slot is an idle moment: the durability flush
        # ran on every lane every slot (plus the closing flush).
        assert flushes == [pacer.slots + 1] * len(flushes)

    asyncio.run(scenario())
