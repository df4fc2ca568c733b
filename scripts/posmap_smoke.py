"""Recursive position-map smoke test: chains, crash, lose nothing.

End-to-end drill of the ``repro.posmap`` guarantees, in three acts:

1. **Chain trace verification, in process.** Run a recursive-mode
   engine over a recording backend and assert the whole bus trace —
   posmap-level paths and data fork paths interleaved — equals the
   deterministic reconstruction from the public per-slot label tuples
   (:func:`repro.security.verify_engine_trace`), and that a tampered
   trace is rejected.

2. **Chain trace verification, in worker processes.** Start a 2-shard
   cluster whose shard engines run in ``repro worker`` subprocesses in
   recursive mode, drive a loadgen burst through it, and have each
   worker answer the ``verify`` control op ``ok:true`` about its own
   recorded trace.

3. **SIGKILL failover, across processes.** Start a primary service
   subprocess with ``posmap.mode=recursive`` and checkpoint-gated
   acknowledgments, drive acknowledged puts through real sockets,
   **SIGKILL** it mid-run, promote the replica directory, and assert
   zero acknowledged-write loss, that the recovered WAL passes the
   chain-aware replication verifier (posmap records are full-path
   refills of their level trees, data records the fork-merged refills
   of the data subsequence), and that the primary's JSONL event trace
   still validates against the schema (``posmap_ns`` phase included).

Exit 0 = all guarantees held. Used by CI; also runnable by hand::

    PYTHONPATH=src python scripts/posmap_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import (  # noqa: E402
    CacheConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.errors import ConfigError  # noqa: E402
from repro.obs.schema import validate_lines  # noqa: E402
from repro.cluster import ClusterService  # noqa: E402
from repro.oram.memory import TraceRecorder  # noqa: E402
from repro.replica.recovery import recover_engine  # noqa: E402
from repro.security import (  # noqa: E402
    verify_engine_trace,
    verify_replication_stream,
)
from repro.serve import protocol  # noqa: E402
from repro.serve.backends import InMemoryBackend  # noqa: E402
from repro.serve.engine import ObliviousEngine, ServeRequest  # noqa: E402
from repro.serve.loadgen import run_loadgen  # noqa: E402

BANNER = re.compile(r"serving oblivious KV store on ([\d.]+):(\d+)")
PUTS = 12
ADDRESSES = 6


def service_overrides(base_dir: str) -> list:
    return [
        "posmap.mode=recursive",
        "posmap.client_budget_bytes=256",
        "replica.enabled=true",
        f"replica.dir={os.path.join(base_dir, 'primary')}",
        "replica.ack_mode=checkpoint",
        "replica.checkpoint_every_accesses=32",
        "replica.epoch_accesses=16",
    ]


def primary_config(base_dir: str) -> SystemConfig:
    """The promoted engine must match the primary's configuration
    (``repro serve --small`` plus the overrides above)."""
    overrides = dict(pair.split("=", 1) for pair in service_overrides(base_dir))
    return SystemConfig.from_overrides(
        overrides,
        base=SystemConfig(oram=small_test_config(10, block_bytes=64)),
    )


async def drive(engine: ObliviousEngine, request: ServeRequest) -> None:
    assert engine.submit(request)
    while engine.has_pending_real():
        await engine.run_access()


async def chain_trace_act() -> int:
    """Act 1: the recorded bus trace equals its chain reconstruction."""
    config = SystemConfig.from_overrides(
        {"posmap.mode": "recursive", "posmap.client_budget_bytes": "128"},
        base=SystemConfig(
            oram=small_test_config(8, block_bytes=64),
            scheduler=SchedulerConfig(label_queue_size=8),
            cache=CacheConfig(policy="none"),
        ),
    )
    recorder = TraceRecorder()
    engine = ObliviousEngine(config, backend=InMemoryBackend(trace=recorder))
    rng = random.Random(17)
    for index in range(60):
        addr = rng.randrange(min(engine.num_blocks, 500))
        if rng.random() < 0.5:
            await drive(engine, ServeRequest(op="put", addr=addr,
                                             value=f"v{index}"))
        else:
            await drive(engine, ServeRequest(op="get", addr=addr))
    slots = verify_engine_trace(engine, recorder.events)
    print(f"chain trace: {slots} slots / {len(recorder.events)} bus "
          f"events match the public reconstruction (posmap depth "
          f"{engine.posmap.depth})")
    tampered = list(recorder.events)
    tampered[len(tampered) // 2], tampered[len(tampered) // 2 + 1] = (
        tampered[len(tampered) // 2 + 1], tampered[len(tampered) // 2])
    try:
        verify_engine_trace(engine, tampered)
    except ConfigError:
        print("chain trace: tampered event order rejected")
    else:
        print("FAIL: tampered trace accepted by the chain verifier")
        return 1
    engine.close()
    return 0


async def worker_verify_act() -> int:
    """Act 2: recursive-mode worker processes verify their own traces."""
    config = SystemConfig.from_overrides(
        {
            "cluster.shards": 2,
            "cluster.workers": "process",
            "cluster.worker_record_trace": True,
            "posmap.mode": "recursive",
            "posmap.client_budget_bytes": 128,
            "oram.levels": 8,
            "oram.num_blocks": 400,
            "oram.block_bytes": 64,
            "scheduler.label_queue_size": 16,
            "cache.policy": "none",
            "nonstop": False,
        }
    )
    service = ClusterService(config)
    host, port = await service.start()
    try:
        load = await run_loadgen(
            host, port, clients=4, requests=20,
            num_blocks=service.num_blocks, seed=13,
        )
        if load.lost or load.failed or load.mismatches:
            print(f"FAIL: worker loadgen unhealthy: lost={load.lost} "
                  f"failed={load.failed} mismatches={load.mismatches}")
            return 1
        for shard, handle in enumerate(service.fleet.handles):
            answer = await handle.control("verify")
            if not answer.get("ok") or not answer.get("verified_accesses"):
                print(f"FAIL: worker {shard} verify: {answer}")
                return 1
            print(f"worker {shard}: {answer['verified_accesses']} recursive-"
                  f"mode slots verified inside the worker process")
    finally:
        await service.stop()
    return 0


async def drive_acked_puts(host: str, port: int) -> dict:
    """Issue puts; return only the writes the service acknowledged."""
    acknowledged: dict = {}
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for index in range(PUTS):
            addr = index % ADDRESSES
            value = f"durable-{index}"
            await protocol.write_message(
                writer, {"id": index, "op": "put", "addr": addr, "value": value}
            )
            response = await protocol.read_message(reader)
            if response is None:
                break
            if response.get("ok"):
                acknowledged[addr] = value
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return acknowledged


async def failover_act(base_dir: str, host: str, port: int, kill) -> int:
    """Act 3: SIGKILL the recursive-mode primary, promote, lose nothing."""
    config = primary_config(base_dir)

    load = await run_loadgen(
        host, port, clients=2, requests=10,
        num_blocks=config.oram.num_blocks, seed=7,
    )
    if load.lost or load.failed or load.mismatches:
        print(f"FAIL: loadgen unhealthy: lost={load.lost} "
              f"failed={load.failed} mismatches={load.mismatches}")
        return 1
    print(f"loadgen: {load.completed} verified requests against the primary")

    acknowledged = await drive_acked_puts(host, port)
    if len(acknowledged) != ADDRESSES:
        print(f"FAIL: expected {ADDRESSES} acknowledged addresses, "
              f"got {len(acknowledged)}")
        return 1
    # One beat for the last checkpoint to seal, then no warning at all.
    await asyncio.sleep(1.0)
    kill()

    engine, report = recover_engine(
        config, directory=os.path.join(base_dir, "primary"),
        backend=InMemoryBackend(),
    )
    print(report.describe())
    lost = []
    for addr, value in acknowledged.items():
        request = ServeRequest(op="get", addr=addr)
        await drive(engine, request)
        if not request.found or request.result != value:
            lost.append((addr, value, request.result))
    if lost:
        print(f"FAIL: acknowledged writes lost across failover: {lost}")
        return 1
    verify_replication_stream(
        engine.geometry,
        list(engine.replicator.wal.read_from(1)),
        merging=config.scheduler.enable_merging,
        backend=engine.store.backend,
        layout=engine.posmap.layout,
    )
    engine.close()
    print(f"all {len(acknowledged)} acknowledged writes survived the "
          f"SIGKILL (posmap depth {engine.posmap.depth}); WAL passes the "
          f"chain-aware verifier")

    trace_path = os.path.join(base_dir, "primary-trace.jsonl")
    with open(trace_path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    if lines:
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            lines = lines[:-1]  # the line the SIGKILL tore
    errors = validate_lines(lines, source=trace_path)
    if errors:
        print(f"FAIL: {trace_path} schema errors: {errors[:5]}")
        return 1
    completed = sum(
        1 for line in lines
        if '"service_completed"' in line and '"posmap_ns"' in line
    )
    if not completed:
        print("FAIL: no service_completed event carries a posmap_ns phase")
        return 1
    print(f"{trace_path}: {len(lines)} events validate against the schema "
          f"({completed} completions with a posmap_ns phase)")
    return 0


def main() -> int:
    status = asyncio.run(chain_trace_act()) or asyncio.run(worker_verify_act())
    if status != 0:
        print("posmap smoke: FAILED")
        return status

    base_dir = tempfile.mkdtemp(prefix="posmap-smoke-")
    command = [
        sys.executable, "-m", "repro", "serve", "--small",
        "--trace", os.path.join(base_dir, "primary-trace.jsonl"),
    ]
    for pair in service_overrides(base_dir):
        command += ["--set", pair]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    primary = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        assert primary.stdout is not None
        banner = primary.stdout.readline()
        match = BANNER.search(banner)
        if not match:
            print(f"FAIL: primary did not start: {banner!r}")
            return 1
        host, port = match.group(1), int(match.group(2))
        print(f"recursive-mode primary up on {host}:{port} "
              f"(pid {primary.pid})")
        status = asyncio.run(
            failover_act(
                base_dir, host, port,
                kill=lambda: os.kill(primary.pid, signal.SIGKILL),
            )
        )
    finally:
        if primary.poll() is None:
            primary.kill()
        primary.wait()
    print("posmap smoke: " + ("OK" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
