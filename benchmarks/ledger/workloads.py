"""The six ledger workloads: what runs and at what fixed size (the one
line of *why* each exists is in ``BENCHMARK.json``, the long form in
README.md).

Every workload exposes one coroutine, ``repeat(workload, seed, tracer)``,
that builds a fresh program instance, warms it up untimed, runs a fixed
number of operations inside the timed window and returns a
:class:`Repeat`. Sizes are operation counts, identical on every commit;
``--smoke`` only shrinks them. The seed reaches the generated inputs
only — the program's own RNG seed is fixed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import os
import pickle
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Simulation, fork_path_scheduler
from repro.config import (
    CacheConfig,
    PosmapConfig,
    ReplicaConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    small_test_config,
)
from repro.experiments.common import SMALL, base_config
from repro.oram.encryption import CounterModeCipher
from repro.replica.replicator import Replicator
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.serve.service import OramService
from repro.workloads.synthetic import uniform_trace

import client
import probes

_now = time.perf_counter_ns

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: The program's own RNG seed (leaf labels, dummy paths): not an input.
PROGRAM_SEED = 41
CONNECTIONS = 2  # min(2, nproc) on the reference host
WINDOW = 8  # pipelined requests per connection
BLOCK_BYTES = 64


@dataclass
class Repeat:
    """One repeat's raw measurements."""

    ops: int
    wall_ns: int
    setup_ns: int
    attempted: int
    failed: int
    latencies_ns: List[int]
    #: Buckets read + written at the storage boundary in the window.
    buckets: int
    #: Workload-specific end-to-end values (``sim_latency_ns``, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Counter deltas and gauges the per-layer metrics are built from.
    facts: Dict[str, float] = field(default_factory=dict)
    #: Open-loop sender lateness samples.
    late_ns: List[int] = field(default_factory=list)
    #: Why the repeat is not valid, if it is not.
    problems: List[str] = field(default_factory=list)
    totals: Optional[probes.WindowTotals] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Operations in the timed window / in the untimed warm-up.
    ops: int
    warmup: int
    #: Seconds after which a phase's outstanding requests count as lost
    #: (about three times the expected phase length on the reference host).
    deadline_s: float
    repeat: Callable
    #: Which layer owns time no span covers.
    remainder_owner: str = "serve.service"
    #: Seed-independent check run once before the repeats; returns what
    #: is wrong, if anything.
    verify: Callable[[], List[str]] = list

    def sized(self, scale: int) -> "Workload":
        if scale == 1:
            return self
        return dataclasses.replace(
            self,
            ops=max(CONNECTIONS * WINDOW, self.ops // scale),
            warmup=max(CONNECTIONS * WINDOW, self.warmup // scale),
        )


def _relative_clock() -> Callable[[], float]:
    origin = _now()
    return lambda: float(_now() - origin)


def _engine_counters(engine) -> Dict[str, float]:
    counters = {
        "accesses": engine.accesses,
        "real_accesses": engine.real_accesses,
        "failed_accesses": engine.failed_accesses,
        "underfull_rounds": engine.underfull_rounds,
        "retries": engine.store.retries,
    }
    counters.update(engine.store.backend.counts())
    return counters


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


# ------------------------------------------------------------------ sim-fork

def _sim_controller(requests: int, trace_seed: int):
    scale = dataclasses.replace(SMALL, trace_requests=requests)
    config = base_config(scale, scheduler=fork_path_scheduler(64))
    footprint = min(config.oram.num_blocks, 1 << 20)
    trace = uniform_trace(
        requests, footprint, 50.0, random.Random(trace_seed), write_fraction=0.3
    )
    controller = Simulation(config).controller(
        trace, rng=random.Random(PROGRAM_SEED)
    )
    controller.memory.trace.enabled = False  # adversary recorder off
    return controller


#: The behavioural fingerprint: ``(mean simulated ORAM latency in ns,
#: path buckets per access)`` of 2 000 requests of the fixed-seed trace.
#: A change to what the controller *does* moves it, a change to how fast
#: it does it cannot; a run that does not reproduce it exactly is
#: reported as incorrect whatever ``--seed`` it was given.
FINGERPRINT_REQUESTS = 2_000
FINGERPRINT = (480634.4560639827, 16.72934617334009)


def _sim_fingerprint() -> tuple:
    controller = _sim_controller(FINGERPRINT_REQUESTS, client.SHAPE_SEED)
    controller.run()
    metrics = controller.metrics
    return (
        metrics.avg_latency_ns,
        (metrics.read_nodes + metrics.written_nodes) / metrics.total_accesses,
    )


def _verify_sim() -> List[str]:
    found = _sim_fingerprint()
    if found == FINGERPRINT:
        return []
    return [f"simulator fingerprint is {found}, expected {FINGERPRINT}"]


async def _repeat_sim(workload: Workload, seed: int, tracer) -> Repeat:
    began = _now()
    total = workload.warmup + workload.ops
    controller = _sim_controller(total, seed)
    metrics = controller.metrics
    gc.collect()
    gc.disable()  # collector pauses only add noise proportional to length
    try:
        controller.run(max_requests=workload.warmup)
        accesses0 = metrics.total_accesses
        buckets0 = metrics.read_nodes + metrics.written_nodes
        completed0 = metrics.real_completed
        setup_ns = _now() - began
        if tracer is not None:
            tracer.begin_window()
        started = _now()
        controller.run()
        wall_ns = _now() - started
        totals = tracer.end_window() if tracer is not None else None
    finally:
        gc.enable()
    completed = metrics.real_completed - completed0
    return Repeat(
        ops=metrics.total_accesses - accesses0,
        wall_ns=wall_ns,
        setup_ns=setup_ns,
        attempted=total - completed0,
        failed=total - completed0 - completed,
        # There is no client here: the samples are the *simulated* ORAM
        # latencies of the timed requests (deterministic given the seed).
        latencies_ns=[int(ns) for ns in metrics.latencies_ns[completed0:]],
        buckets=metrics.read_nodes + metrics.written_nodes - buckets0,
        # Whole-run simulated statistics: the behavioural fingerprint.
        extra={"sim_latency_ns": metrics.avg_latency_ns},
        facts={
            "sim.dummy_fraction": metrics.dummy_fraction,
            "dram.row_hit_rate": controller.dram.stats.row_hit_rate,
            "posmap.resident_bytes": len(
                pickle.dumps(controller.posmap.state_dict())
            ),
            "stash.occupancy_max": max(controller.stash.occupancy_samples),
        },
        totals=totals,
    )


# -------------------------------------------------------------- kv-* (TCP)

@dataclass(frozen=True)
class ServiceShape:
    levels: int = 10
    posmap: PosmapConfig = PosmapConfig()
    #: Offered requests/second over all connections; 0 = closed loop.
    open_rate: float = 0.0
    rtt_s: float = 0.0
    #: One backend batch in this many fails transiently (0 = none).
    fault_every: int = 0


def _service_config(shape: ServiceShape) -> SystemConfig:
    return SystemConfig(
        oram=small_test_config(shape.levels, block_bytes=BLOCK_BYTES),
        scheduler=SchedulerConfig(label_queue_size=16),
        cache=CacheConfig(policy="none"),
        posmap=shape.posmap,
        service=ServiceConfig(backend="memory"),
        seed=PROGRAM_SEED,
    )


async def _bounded(awaitable, deadline_s: float, problems: List[str], what: str):
    """Hang guard: past the deadline the phase is abandoned and whatever
    is still outstanding is counted lost by the caller's tallies."""
    try:
        await asyncio.wait_for(awaitable, deadline_s)
    except asyncio.TimeoutError:
        problems.append(f"{what} exceeded its {deadline_s:.0f} s deadline")


async def _repeat_service(
    shape: ServiceShape, workload: Workload, seed: int, tracer
) -> Repeat:
    began = _now()
    problems: List[str] = []
    backend = (
        probes.RttBackend(shape.rtt_s, shape.fault_every, seed)
        if shape.rtt_s
        else probes.LedgerMemoryBackend()
    )
    service = OramService(_service_config(shape), backend=backend)
    host, port = await service.start()
    engine = service.engine
    trace = (
        functools.partial(tracer.wrap_async, "loadgen")
        if tracer is not None
        else (lambda fn: fn)
    )
    if tracer is not None:
        tracer.watch_loop()
    per_conn_warm = workload.warmup // CONNECTIONS
    per_conn = workload.ops // CONNECTIONS
    span = engine.num_blocks // CONNECTIONS
    conns = [
        client.Connection(
            index,
            client.plan_requests(
                f"c{index}", seed, per_conn_warm + per_conn, index * span, span
            ),
            trace,
        )
        for index in range(CONNECTIONS)
    ]
    warm = [client.Tally(attempted=per_conn_warm) for _ in conns]
    timed = [client.Tally(attempted=per_conn) for _ in conns]
    try:
        for conn in conns:
            await conn.open(host, port)
        await _bounded(
            asyncio.gather(
                *(
                    trace(conn.run_closed)(0, per_conn_warm, WINDOW, tally)
                    for conn, tally in zip(conns, warm)
                )
            ),
            workload.deadline_s,
            problems,
            "warm-up",
        )
        if any(tally.failed for tally in warm):
            problems.append("warm-up requests failed")
        gc.collect()
        before = _engine_counters(engine)
        setup_ns = _now() - began
        if tracer is not None:
            tracer.begin_window()
        started = _now()
        if shape.open_rate:
            lead_ns = 20_000_000  # first arrival a little after "now"
            duration_s = workload.ops / shape.open_rate
            phases = [
                trace(conn.run_open)(
                    per_conn_warm,
                    [
                        started + lead_ns + offset
                        for offset in client.uniform_arrivals_ns(
                            f"c{conn.index}", per_conn, duration_s
                        )
                    ],
                    tally,
                )
                for conn, tally in zip(conns, timed)
            ]
        else:
            phases = [
                trace(conn.run_closed)(
                    per_conn_warm, per_conn_warm + per_conn, WINDOW, tally
                )
                for conn, tally in zip(conns, timed)
            ]
        if not problems:
            await _bounded(
                asyncio.gather(*phases), workload.deadline_s, problems, "timed window"
            )
        else:
            for phase in phases:
                phase.close()
        ended = max([tally.last_response_ns for tally in timed] + [started + 1])
        totals = tracer.end_window() if tracer is not None else None
        delta = _delta(_engine_counters(engine), before)
    finally:
        for conn in conns:
            await conn.close()
        try:
            await asyncio.wait_for(service.stop(), 5.0)
        except asyncio.TimeoutError:
            problems.append("service did not stop within 5 s")
        except Exception as exc:  # a dead work loop re-raises here
            problems.append(f"service stop raised {exc!r}")
    total = client.Tally()
    for tally in timed:
        total.merge(tally)
    if shape.open_rate:
        # Timed from the first possible arrival; a service that keeps up
        # answers the last request within a few latencies of its slot.
        wall_ns = ended - (started + lead_ns)
        lag_s = wall_ns / 1e9 - duration_s
        if lag_s > max(0.05, 0.03 * duration_s):
            problems.append(
                f"backlog: the last response came {lag_s * 1e3:.0f} ms after "
                f"the end of the {shape.open_rate:.0f} req/s schedule"
            )
    else:
        wall_ns = ended - started
    if delta["underfull_rounds"]:
        problems.append("label queue ran underfull")
    delta["posmap.resident_bytes"] = len(
        pickle.dumps(engine.posmap.state_dict())
    )
    return Repeat(
        ops=total.completed,
        wall_ns=wall_ns,
        setup_ns=setup_ns,
        attempted=total.attempted,
        failed=total.failed,
        latencies_ns=total.latencies_ns,
        buckets=int(delta["reads"] + delta["writes"]),
        facts=delta,
        late_ns=total.late_ns,
        problems=problems,
        totals=totals,
    )


# ------------------------------------------------------------ engine-durable

async def _repeat_durable(workload: Workload, seed: int, tracer) -> Repeat:
    began = _now()
    problems: List[str] = []
    scratch = os.path.join(OUT_DIR, f"tmp-engine-durable-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    store_path = os.path.join(scratch, "store.log")
    config = SystemConfig(
        oram=small_test_config(10, block_bytes=BLOCK_BYTES),
        scheduler=SchedulerConfig(label_queue_size=16),
        cache=CacheConfig(policy="none"),
        service=ServiceConfig(backend="file", backend_path=store_path),
        replica=ReplicaConfig(
            enabled=True,
            dir=os.path.join(scratch, "replica"),
            checkpoint_every_accesses=64,
            ack_mode="none",
        ),
        seed=PROGRAM_SEED,
    )
    clock = _relative_clock()
    backend = probes.LedgerFileBackend(store_path)
    replicator = Replicator(config.replica, clock=clock)
    # Checkpoints are pruned as they are sealed, so their bytes are
    # counted as they reach the directory.
    sealed = {"count": 0, "bytes": 0}
    save_blob = replicator.checkpoints.save_blob

    def counting_save_blob(seq: int, blob: bytes) -> str:
        sealed["count"] += 1
        sealed["bytes"] += len(blob)
        return save_blob(seq, blob)

    replicator.checkpoints.save_blob = counting_save_blob  # type: ignore[method-assign]
    engine = ObliviousEngine(
        config,
        backend,
        cipher=CounterModeCipher(b"ledger-engine-durable", BLOCK_BYTES),
        clock=clock,
        replicator=replicator,
    )
    plans = client.plan_requests(
        "d",
        seed,
        workload.warmup + workload.ops,
        0,
        engine.num_blocks,
        binary_values=BLOCK_BYTES,
    )

    def make_request(plan: client.Planned, now: float) -> ServeRequest:
        return ServeRequest(
            op=plan.op, addr=plan.addr, value=plan.value, arrival_ns=now
        )

    drive = client.drive_engine
    if tracer is not None:
        drive = tracer.wrap_async("loadgen", drive)
    warm = client.Tally(attempted=workload.warmup)
    timed = client.Tally(attempted=workload.ops)

    def disk_bytes() -> int:
        return (
            os.path.getsize(store_path)
            + os.path.getsize(replicator.wal.path)
            + sealed["bytes"]
        )

    try:
        await _bounded(
            drive(engine, plans, 0, workload.warmup, 16, make_request, clock, warm),
            workload.deadline_s,
            problems,
            "warm-up",
        )
        if warm.failed:
            problems.append("warm-up requests failed")
        gc.collect()
        before = _engine_counters(engine)
        disk0, wal0 = disk_bytes(), os.path.getsize(replicator.wal.path)
        checkpoints0 = dict(sealed)
        setup_ns = _now() - began
        if tracer is not None:
            tracer.begin_window()
        started = _now()
        if not problems:
            await _bounded(
                drive(
                    engine,
                    plans,
                    workload.warmup,
                    workload.warmup + workload.ops,
                    16,
                    make_request,
                    clock,
                    timed,
                ),
                workload.deadline_s,
                problems,
                "timed window",
            )
        wall_ns = _now() - started
        totals = tracer.end_window() if tracer is not None else None
        delta = _delta(_engine_counters(engine), before)
        disk = disk_bytes() - disk0
        delta["wal.bytes"] = os.path.getsize(replicator.wal.path) - wal0
        delta["checkpoint.count"] = sealed["count"] - checkpoints0["count"]
        delta["checkpoint.bytes"] = sealed["bytes"] - checkpoints0["bytes"]
        delta["posmap.resident_bytes"] = len(
            pickle.dumps(engine.posmap.state_dict())
        )
    finally:
        engine.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if delta["underfull_rounds"]:
        problems.append("label queue ran underfull")
    return Repeat(
        ops=timed.completed,
        wall_ns=wall_ns,
        setup_ns=setup_ns,
        attempted=timed.attempted,
        failed=timed.failed,
        latencies_ns=timed.latencies_ns,
        buckets=int(delta["reads"] + delta["writes"]),
        extra={"disk_bytes_per_op": disk / max(1, timed.completed)},
        facts=delta,
        problems=problems,
        totals=totals,
    )


# ------------------------------------------------------------------ registry

def _service(shape: ServiceShape) -> Callable:
    return functools.partial(_repeat_service, shape)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-fork",
            ops=24_000,
            warmup=500,
            deadline_s=12.0,
            repeat=_repeat_sim,
            remainder_owner="loadgen",
            verify=_verify_sim,
        ),
        Workload(
            "kv-mem",
            ops=8_400,
            warmup=2_000,
            deadline_s=12.0,
            repeat=_service(ServiceShape()),
        ),
        Workload(
            "kv-open",
            ops=3_600,
            warmup=2_000,
            deadline_s=12.0,
            repeat=_service(ServiceShape(open_rate=1500.0)),
        ),
        Workload(
            "kv-recursive",
            ops=3_400,
            warmup=2_000,
            deadline_s=15.0,
            repeat=_service(
                ServiceShape(
                    levels=15,
                    posmap=PosmapConfig(mode="recursive", client_budget_bytes=2048),
                )
            ),
        ),
        Workload(
            "kv-rtt",
            ops=1_600,
            warmup=200,
            deadline_s=15.0,
            repeat=_service(ServiceShape(rtt_s=0.001, fault_every=100)),
        ),
        Workload(
            "engine-durable",
            ops=5_200,
            warmup=2_000,
            deadline_s=15.0,
            repeat=_repeat_durable,
            remainder_owner="loadgen",
        ),
    )
}
