"""Replication failover smoke test: kill the primary, lose nothing.

End-to-end drill of the ``repro.replica`` guarantee, against real
processes and real sockets:

1. start a primary service subprocess with replication enabled and
   checkpoint-gated acknowledgments (``replica.ack_mode=checkpoint``);
2. attach a warm standby tailing the replication stream over TCP;
3. drive acknowledged puts at the primary, then **SIGKILL** it
   mid-run — no shutdown path, no final checkpoint;
4. promote the *standby's* replica directory to a new engine and assert
   every write the client saw acknowledged is still readable
   (zero acknowledged-write loss), the recovered WAL still equals the
   public access trace, and the primary's JSONL event trace still
   validates against the schema (up to the torn line a SIGKILL may
   leave).

Then the graceful counterpart: **SIGTERM** a primary — ``stop()`` runs,
exit code 0 — restart over the same directories (``repro promote``) and
read every acknowledged write back over TCP.

Exit 0 = all guarantees held. Used by CI; also runnable by hand::

    PYTHONPATH=src python scripts/replication_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SystemConfig, small_test_config  # noqa: E402
from repro.obs import tracer_for_jsonl  # noqa: E402
from repro.obs.schema import validate_lines  # noqa: E402
from repro.replica.recovery import recover_engine  # noqa: E402
from repro.replica.standby import ReplicaService  # noqa: E402
from repro.security.replication import verify_replication_stream  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.backends import InMemoryBackend  # noqa: E402
from repro.serve.engine import ServeRequest  # noqa: E402
from repro.serve.loadgen import run_loadgen  # noqa: E402

BANNER = re.compile(r"serving oblivious KV store on ([\d.]+):(\d+)")
PUTS = 12
ADDRESSES = 6


def service_overrides(base_dir: str) -> list:
    return [
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


async def scenario(base_dir: str, host: str, port: int, kill) -> int:
    standby_dir = os.path.join(base_dir, "standby")
    config = primary_config(base_dir)
    standby = ReplicaService(config.replica, directory=standby_dir)
    # The standby tails in the background for the whole primary
    # lifetime; tail() returns when the SIGKILL severs the stream.
    tailing = asyncio.create_task(standby.tail(host, port))

    # A verifying loadgen burst first, for realistic WAL volume; the
    # tracked acked puts go last so their values win at every address.
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
    # Give the stream one beat to catch up to the last checkpoint, then
    # kill the primary with no warning whatsoever.
    await asyncio.sleep(1.0)
    kill()
    await tailing
    standby.close()
    if standby.divergence:
        print(f"FAIL: standby diverged: {standby.divergence}")
        return 1
    print(
        f"standby caught {standby.records_applied} WAL records and "
        f"{standby.checkpoints_received} checkpoints before the kill"
    )

    trace_path = os.path.join(base_dir, "promotion-trace.jsonl")
    tracer = tracer_for_jsonl(trace_path)
    engine, report = recover_engine(
        config, directory=standby_dir, backend=InMemoryBackend(), tracer=tracer
    )
    print(report.describe())
    lost = []
    for addr, value in acknowledged.items():
        request = ServeRequest(op="get", addr=addr)
        assert engine.submit(request)
        while engine.has_pending_real():
            await engine.run_access()
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
    )
    engine.close()
    tracer.close()
    print(f"all {len(acknowledged)} acknowledged writes survived failover; "
          f"WAL == public trace")

    for path, allow_torn in (
        (trace_path, False),
        (os.path.join(base_dir, "primary-trace.jsonl"), True),
    ):
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        if allow_torn and lines:
            try:
                json.loads(lines[-1])
            except json.JSONDecodeError:
                lines = lines[:-1]  # the line the SIGKILL tore
        errors = validate_lines(lines, source=path)
        if errors:
            print(f"FAIL: {path} schema errors: {errors[:5]}")
            return 1
        print(f"{path}: {len(lines)} events validate against the schema")
    return 0


def spawn(arguments: list, env: dict):
    """Start ``python -m repro ARGUMENTS``; returns the process and the
    ``(host, port)`` its banner names (None if it never got that far)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    assert process.stdout is not None
    for line in process.stdout:
        match = BANNER.search(line)
        if match:
            return process, (match.group(1), int(match.group(2)))
    return process, None


async def read_back(host: str, port: int, expected: dict) -> list:
    """Get every address over TCP; returns the mismatches."""
    reader, writer = await asyncio.open_connection(host, port)
    wrong = []
    for addr, value in expected.items():
        await protocol.write_message(
            writer, {"id": addr, "op": "get", "addr": addr}
        )
        response = await protocol.read_message(reader)
        if not response or response.get("value") != value:
            wrong.append((addr, value, response))
    writer.close()
    await writer.wait_closed()
    return wrong


def graceful_stop_drill(env: dict) -> int:
    """SIGTERM instead of SIGKILL: the service stops itself cleanly."""
    base_dir = tempfile.mkdtemp(prefix="replication-smoke-graceful-")
    flags = ["--small"]
    for pair in service_overrides(base_dir):
        flags += ["--set", pair]
    replica_dir = os.path.join(base_dir, "primary")
    acknowledged: dict = {}
    promote = ["promote", "--dir", replica_dir]
    # Each pass first reads back what the previous one acknowledged.
    for arguments in (["serve"], promote, promote):
        process, address = spawn(arguments + flags, env)
        try:
            if address is None:
                print(f"FAIL: {arguments[0]} did not start")
                return 1
            wrong = asyncio.run(read_back(*address, acknowledged))
            if wrong:
                print(f"FAIL: acknowledged writes lost across a graceful "
                      f"restart: {wrong}")
                return 1
            acknowledged.update(asyncio.run(drive_acked_puts(*address)))
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        if code != 0:
            print(f"FAIL: {arguments[0]} exited {code} on SIGTERM, expected 0")
            return 1
        print(f"{arguments[0]}: SIGTERM -> stop() -> exit 0 with "
              f"{len(acknowledged)} acknowledged addresses on disk")
    return 0


def main() -> int:
    base_dir = tempfile.mkdtemp(prefix="replication-smoke-")
    arguments = [
        "serve", "--small",
        "--trace", os.path.join(base_dir, "primary-trace.jsonl"),
    ]
    for pair in service_overrides(base_dir):
        arguments += ["--set", pair]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    primary, address = spawn(arguments, env)
    try:
        if address is None:
            print("FAIL: primary did not start")
            return 1
        host, port = address
        print(f"primary up on {host}:{port} (pid {primary.pid})")
        status = asyncio.run(
            scenario(
                base_dir, host, port,
                kill=lambda: os.kill(primary.pid, signal.SIGKILL),
            )
        )
    finally:
        if primary.poll() is None:
            primary.kill()
        primary.wait()
    if status == 0:
        status = graceful_stop_drill(env)
    print("replication smoke: " + ("OK" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
