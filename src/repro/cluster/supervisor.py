"""The worker fleet supervisor.

``cluster.workers = "process"`` splits the cluster into a supervisor
process (the public TCP front end + the
:class:`~repro.cluster.router.ShardRouter`) and K ``repro worker``
subprocesses, one shard engine each; the router's lanes are the
fleet's :class:`~repro.cluster.worker.WorkerHandle` objects. This
module owns the fleet's lifecycle:

* **spawn** — each worker is launched with the supervisor's exact
  configuration (:func:`repro.config.flatten_overrides` → one JSON
  object on the command line) and announces its ephemeral port on
  stdout, which the supervisor parses before wiring up the handle;
* **health-check** — a monitor task per worker awaits process exit; a
  worker that dies while the cluster is serving is restarted, up to
  ``cluster.max_worker_restarts`` times per worker;
* **restart** — the replacement process finds its shard's replica
  subdirectory (when ``replica.enabled``) and rebuilds its engine
  through the promote/recover path, so a SIGKILL'd worker rejoins with
  every checkpoint-acknowledged write intact.

A crashed worker's handle raises ``ProtocolError`` from its turn, which
the router counts *without* derailing the schedule (the visit is still
logged: the schedule is public and fixed, not reactive); the restart
brings the shard back a few rounds later.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys
from typing import List, Optional

from repro.config import SystemConfig, flatten_overrides
from repro.errors import ProtocolError
from repro.obs.tracer import NULL_TRACER, Tracer

from repro.cluster.partition import shard_identity
from repro.cluster.worker import READY_BANNER, WorkerHandle

#: ``SHARD_WORKER_READY shard=<k> port=<p> ...`` (host follows; the
#: supervisor already knows it from the config).
_READY = re.compile(READY_BANNER + r" shard=(\d+) port=(\d+)")

#: How long to wait for a spawned worker's ready banner.
SPAWN_TIMEOUT_S = 30.0


class WorkerProcess:
    """One supervised worker subprocess (spawn / await-ready / stop)."""

    def __init__(
        self, shard_id: int, overrides_json: str, env: "dict[str, str]"
    ) -> None:
        self.shard_id = shard_id
        self._overrides_json = overrides_json
        self._env = env
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.restarts = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None

    async def spawn(self) -> int:
        """Start the subprocess; returns the port it announced."""
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--shard",
            str(self.shard_id),
            "--config-json",
            self._overrides_json,
            stdout=asyncio.subprocess.PIPE,
            env=self._env,
        )
        assert self.process.stdout is not None
        try:
            while True:
                line = await asyncio.wait_for(
                    self.process.stdout.readline(), timeout=SPAWN_TIMEOUT_S
                )
                if not line:
                    raise ProtocolError(
                        f"shard {self.shard_id} worker exited before ready "
                        f"(rc={self.process.returncode})"
                    )
                match = _READY.search(line.decode("utf-8", "replace"))
                if match and int(match.group(1)) == self.shard_id:
                    self.port = int(match.group(2))
                    return self.port
        except asyncio.TimeoutError:
            self.kill()
            raise ProtocolError(
                f"shard {self.shard_id} worker gave no ready banner "
                f"within {SPAWN_TIMEOUT_S}s"
            ) from None

    async def wait(self) -> int:
        assert self.process is not None
        return await self.process.wait()

    def terminate(self) -> None:
        if self.alive:
            assert self.process is not None
            self.process.terminate()

    def kill(self) -> None:
        if self.alive:
            assert self.process is not None
            self.process.kill()


class WorkerFleet:
    """Spawns, monitors and restarts the K shard worker processes."""

    def __init__(
        self, config: SystemConfig, tracer: Optional[Tracer] = None
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        cluster = config.cluster
        self._overrides_json = json.dumps(flatten_overrides(config))
        env = dict(os.environ)
        # Workers must import repro exactly as the supervisor does,
        # wherever the supervisor was launched from.
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        self._env = env
        self.processes: List[WorkerProcess] = [
            WorkerProcess(shard, self._overrides_json, env)
            for shard in range(cluster.shards)
        ]
        self.handles: List[WorkerHandle] = [
            WorkerHandle(
                shard,
                cluster.worker_host,
                shard_identity(
                    config, shard
                ).config.service.admission_capacity,
                config.service.max_frame_bytes,
            )
            for shard in range(cluster.shards)
        ]
        self._monitors: List[asyncio.Task] = []
        self._stopping = False
        self.worker_restarts = 0
        #: Shards whose restart budget ran out (cluster keeps serving
        #: the rest; their turns fail fast and their requests error).
        self.abandoned: "set[int]" = set()

    async def start(self) -> None:
        self._stopping = False
        await asyncio.gather(
            *(self._launch(shard) for shard in range(len(self.processes)))
        )
        self._monitors = [
            asyncio.create_task(self._monitor(shard))
            for shard in range(len(self.processes))
        ]

    async def _launch(self, shard: int) -> None:
        port = await self.processes[shard].spawn()
        await self.handles[shard].connect(port)

    async def _monitor(self, shard: int) -> None:
        """Await process exit; restart through the recovery path."""
        process = self.processes[shard]
        while True:
            await process.wait()
            if self._stopping:
                return
            self.handles[shard].fail_inflight()
            if process.restarts >= self.config.cluster.max_worker_restarts:
                self.abandoned.add(shard)
                if self.tracer.enabled:
                    self.tracer.counters.inc("cluster.workers_abandoned")
                return
            process.restarts += 1
            self.worker_restarts += 1
            if self.tracer.enabled:
                self.tracer.counters.inc("cluster.worker_restarts")
            try:
                await self._launch(shard)
            except (ProtocolError, ConnectionError, OSError):
                # Spawn or connect failed outright; loop to observe the
                # exit and charge the next restart against the budget.
                process.kill()
                if not process.alive:
                    continue

    async def stop(self) -> None:
        """Graceful fleet shutdown: ask, wait, then insist."""
        self._stopping = True
        # Retire the monitors first so no restart races the shutdown.
        for monitor in self._monitors:
            monitor.cancel()
        if self._monitors:
            await asyncio.gather(*self._monitors, return_exceptions=True)
        self._monitors = []
        for handle in self.handles:
            try:
                await handle.control("shutdown")
            except ProtocolError:
                pass
        for process, handle in zip(self.processes, self.handles):
            if process.process is not None:
                try:
                    await asyncio.wait_for(process.wait(), timeout=10.0)
                except asyncio.TimeoutError:
                    process.kill()
                    await process.wait()
            await handle.close_clients()


__all__ = ["SPAWN_TIMEOUT_S", "WorkerProcess", "WorkerFleet"]
