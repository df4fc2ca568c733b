"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.cli import main
from repro.config import SystemConfig, flatten_overrides, small_test_config
from repro.replica.recovery import recover_engine
from repro.serve import protocol
from repro.serve.backends import FileBackend, InMemoryBackend
from repro.serve.engine import ServeRequest


class TestInfo:
    def test_prints_version_and_defaults(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Fork Path" in out
        assert "L=24" in out


class TestFigure:
    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_accepts_bare_number(self, capsys, monkeypatch):
        # Patch the figure module's run to keep the test fast.
        import repro.experiments.fig10 as fig10
        from repro.experiments.common import FigureResult

        def fake_run(scale):
            result = FigureResult("Figure 10", "stub", ["x"])
            result.add(1)
            return result

        monkeypatch.setattr(fig10, "run", fake_run)
        assert main(["figure", "10"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestMix:
    def test_unknown_mix_fails_cleanly(self, capsys):
        assert main(["mix", "Mix99"]) == 2
        assert "unknown mix" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


# ------------------------------------------------------------ graceful stop


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
BANNER = re.compile(r"(?:on [\d.]+:|port=)(\d+)")


@contextlib.contextmanager
def serving(*args: str):
    """Run ``python -m repro ARGS`` until its banner names a port; the
    block gets ``(process, port)`` and must leave the process exited."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    try:
        assert process.stdout is not None
        for line in process.stdout:
            match = BANNER.search(line)
            if match:
                break
        else:
            raise AssertionError(f"no banner (rc={process.wait()})")
        yield process, int(match.group(1))
        assert process.poll() is not None, "command still running"
    finally:
        watchdog.cancel()
        process.kill()
        process.wait()
        process.stdout.close()


def sigterm(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    return process.wait(timeout=30)


async def acked_puts(port: int, writes: dict) -> None:
    """Put every ``addr -> value``, one session, each acknowledged."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for addr, value in writes.items():
        await protocol.write_message(
            writer, {"id": addr, "op": "put", "addr": addr, "value": value}
        )
        response = await asyncio.wait_for(protocol.read_message(reader), 20.0)
        assert response is not None and response["ok"], response
    writer.close()
    await writer.wait_closed()


class TestGracefulStop:
    """``serve``, ``promote``, ``cluster`` and ``worker`` run ``stop()``
    on SIGTERM and exit 0 (one shared run-until-signalled body)."""

    def test_serve_then_promote_stop_cleanly_and_lose_nothing(self, tmp_path):
        log = tmp_path / "kv.log"
        replica = tmp_path / "replica"
        overrides = {
            "service.backend": "file",
            "service.backend_path": str(log),
            "replica.enabled": "true",
            "replica.dir": str(replica),
            "replica.ack_mode": "checkpoint",
        }
        flags = ["--small"]
        for key, value in overrides.items():
            flags += ["--set", f"{key}={value}"]
        acknowledged: dict = {}
        for command, writes in (
            (["serve"], {addr: f"first-{addr}" for addr in range(5)}),
            # Restart over the same directories; overwrite some, add some.
            (["promote", "--dir", str(replica)],
             {addr: f"second-{addr}" for addr in range(3, 8)}),
        ):
            with serving(*command, *flags) as (process, port):
                asyncio.run(acked_puts(port, writes))
                acknowledged.update(writes)
                assert sigterm(process) == 0
            store = FileBackend(str(log))
            try:
                assert store.torn_tail is False
                assert len(store) > 0
            finally:
                store.close()

        config = SystemConfig.from_overrides(
            overrides, base=SystemConfig(oram=small_test_config(10, block_bytes=64))
        )
        engine, _report = recover_engine(config, backend=InMemoryBackend())

        async def read_back() -> dict:
            found = {}
            for addr in acknowledged:
                request = ServeRequest(op="get", addr=addr)
                assert engine.submit(request)
                while engine.has_pending_real():
                    await engine.run_access()
                found[addr] = request.result
            return found

        try:
            assert asyncio.run(read_back()) == acknowledged
        finally:
            engine.close()

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_cluster_stops_cleanly_and_leaves_no_worker_behind(self, workers):
        with serving(
            "cluster", "--small", "--shards", "2", "--workers", workers
        ) as (process, port):
            asyncio.run(acked_puts(port, {1: "one", 2: "two"}))
            children_file = f"/proc/{process.pid}/task/{process.pid}/children"
            children = []
            if os.path.exists(children_file):
                with open(children_file) as handle:
                    children = [int(pid) for pid in handle.read().split()]
                assert len(children) == (2 if workers == "process" else 0)
            assert sigterm(process) == 0
        for pid in children:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_worker_answers_what_it_admitted_then_exits_zero(self):
        """No ``turn`` ever arrives for the admitted put: only the
        drain in ``stop()`` can answer it."""
        config = SystemConfig.from_overrides(
            {"cluster.shards": 2, "oram.levels": 8, "oram.num_blocks": 200}
        )

        async def scenario(process: subprocess.Popen, port: int) -> dict:
            client = protocol.FrameClient("127.0.0.1", port)
            await client.connect()
            try:
                put = asyncio.create_task(
                    client.call({"op": "put", "addr": 3, "value": "x"})
                )
                ping = await client.call({"op": "ping"})  # put was read first
                assert ping["ok"] and not put.done()
                process.send_signal(signal.SIGTERM)
                return await asyncio.wait_for(put, 20.0)
            finally:
                await client.close()

        with serving(
            "worker", "--shard", "1",
            "--config-json", json.dumps(flatten_overrides(config)),
        ) as (process, port):
            response = asyncio.run(scenario(process, port))
            assert response["ok"]
            assert process.wait(timeout=30) == 0
