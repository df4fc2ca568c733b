"""The sharded oblivious key-value service front end.

:class:`ClusterService` is :class:`~repro.serve.service.OramService`'s
horizontal sibling: the same TCP sessions, protocol and response
plumbing (inherited from
:class:`~repro.serve.service.ServiceFrontEnd`), but admitted requests
are striped across K independent shard engines by the
:class:`~repro.cluster.router.ShardRouter`, and the background work
loop runs *dispatch rounds* — every shard, fixed order, one
dummy-padded access each — instead of single-engine accesses.

Clients are unaffected: the wire protocol addresses the global block
space, translation to (shard, local address) happens at admission, and
responses never echo addresses. Backpressure is per shard (a handler
blocks when the target shard's admission queue fills), which is itself
data-independent to the adversary — admission queues are on-chip state,
invisible at the storage boundary.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.errors import ConfigError, ProtocolError
from repro.obs.tracer import Tracer
from repro.oram.encryption import BucketCipher
from repro.oram.memory import TraceRecorder
from repro.serve.backends import StorageBackend
from repro.serve.engine import ServeRequest
from repro.serve.service import ServiceFrontEnd

from repro.cluster.router import ShardRouter
from repro.cluster.supervisor import ProcessShardRouter, WorkerFleet


class ClusterService(ServiceFrontEnd):
    """An oblivious key-value service sharded over K ORAM trees.

    ``cluster.workers`` selects where those trees live: ``"inline"``
    builds the K engines in this process behind a
    :class:`~repro.cluster.router.ShardRouter`; ``"process"`` spawns a
    supervised worker fleet (one subprocess per shard) and dispatches
    through a :class:`~repro.cluster.supervisor.ProcessShardRouter`.
    The wire protocol, the admission translation and the fixed visit
    schedule are identical either way.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        cipher: Optional[BucketCipher] = None,
        tracer: Optional[Tracer] = None,
        backends: Optional[Sequence[Optional[StorageBackend]]] = None,
        traces: Optional[Sequence[Optional[TraceRecorder]]] = None,
    ) -> None:
        super().__init__(config, tracer)
        self.cluster_config = self.config.cluster
        self.fleet: Optional[WorkerFleet] = None
        self.router: Union[ShardRouter, ProcessShardRouter]
        if self.cluster_config.workers == "process":
            if backends is not None or traces is not None or cipher is not None:
                raise ConfigError(
                    "explicit backends/traces/cipher require inline "
                    "workers (they cannot cross a process boundary)"
                )
            self.fleet = WorkerFleet(self.config, tracer=self.tracer)
            self.router = ProcessShardRouter(
                self.config, self.fleet, tracer=self.tracer
            )
        else:
            self.router = ShardRouter(
                self.config,
                cipher=cipher,
                tracer=self.tracer,
                clock=self._clock,
                backends=backends,
                traces=traces,
            )

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        if self.fleet is not None:
            await self.fleet.start()
        return await super().start()

    async def stop(self) -> None:
        try:
            await super().stop()  # raises what killed a dead work loop
        finally:
            if self.fleet is not None:
                await self.fleet.stop()

    # ----------------------------------------------------------------- hooks

    @property
    def num_blocks(self) -> int:
        return self.router.partitioner.num_blocks

    async def _admit(self, request: ServeRequest) -> None:
        await self.router.admit(request)

    def _shutdown(self) -> None:
        # Final per-shard checkpoints: release deferred acknowledgments
        # and persist each shard's closing client state. (In process
        # mode the workers flush in their own stop path; the fleet is
        # shut down after this, in :meth:`stop`.)
        self.router.flush_durability()
        self.router.close()

    def _replicator_for(self, message: dict):
        """Shards replicate independently: a standby names its shard in
        the replicate request (``{"op": "replicate", "shard": k}``;
        default shard 0). A malformed or out-of-range shard gets an
        explicit error naming the valid range — not a generic failure
        the standby cannot act on."""
        shard = message.get("shard", 0)
        shards = self.cluster_config.shards
        if (
            not isinstance(shard, int)
            or isinstance(shard, bool)
            or not 0 <= shard < shards
        ):
            raise ProtocolError(
                f"shard must be an integer in [0, {shards}), got {shard!r}"
            )
        if self.fleet is not None:
            raise ProtocolError(
                f"shard {shard} replicates from its worker process on "
                f"{self.cluster_config.worker_host}:"
                f"{self.fleet.processes[shard].port}; connect there"
            )
        return self.router.replicator_for(shard)

    async def _work_loop(self) -> None:
        if self.pacer is not None:
            await self._paced_loop()
            return
        service = self.service_config
        router = self.router
        pace_s = service.pace_ns / 1e9
        while not (self._stopping and self._pending() == 0):
            if router.has_pending_real() or service.nonstop:
                await router.run_round()
                if pace_s > 0:
                    await asyncio.sleep(pace_s)
                else:
                    # One scheduling point per round even when flat
                    # out, so session handlers keep making progress.
                    await asyncio.sleep(0)
            else:
                # Idle: seal due checkpoints so no gated response waits
                # longer than one quiet moment (mirrors OramService).
                router.flush_durability()
                self._wake.clear()
                if self._pending():
                    continue
                if self._stopping:
                    break
                await self._wake.wait()

    async def _paced_loop(self) -> None:
        """Pacer-driven dispatch (``pace.mode != "off"``).

        One dispatch round per pace slot: the pacer's deadline grid
        clocks the whole cluster, so the K per-shard timelines advance
        in lockstep on a traffic-independent schedule — a round with no
        client work anywhere still visits every shard with a pure-dummy
        access. The pacer sleep is credited to every shard engine
        (inline) or shipped on the round's turn RPCs (process mode).
        """
        router = self.router
        pacer = self.pacer
        assert pacer is not None
        while not (self._stopping and self._pending() == 0):
            wait_ns = await pacer.wait_for_slot()
            router.note_pace_wait(wait_ns)
            depth = router.pending()
            real = router.has_pending_real()
            await router.run_round()
            if not real:
                # An all-dummy round is the paced cluster's idle
                # moment: seal due/gating checkpoints on every shard.
                router.flush_durability()
            self._note_pace_slot(
                wait_ns=wait_ns, real=real, queue_depth=depth
            )

    def _pending(self) -> int:
        return self.router.pending()


async def run_cluster(config: SystemConfig, tracer: Optional[Tracer] = None) -> None:
    """``python -m repro cluster`` body: serve until interrupted.

    SIGTERM (and SIGINT) cancel the serve loop rather than killing the
    process outright, so the fleet shutdown in :meth:`ClusterService.stop`
    always runs — a terminated supervisor must never orphan its worker
    processes.
    """
    import signal

    from repro.cluster.partition import AddressPartitioner, shard_system_config

    service = ClusterService(config, tracer=tracer)
    host, port = await service.start()
    partitioner = AddressPartitioner(
        config.oram.num_blocks, config.cluster.shards
    )
    depths = sorted(
        {
            shard_system_config(config, shard, partitioner).oram.levels
            for shard in range(config.cluster.shards)
        }
    )
    print(
        f"serving sharded oblivious KV store on {host}:{port} "
        f"(shards={config.cluster.shards}, dispatch={config.cluster.dispatch}, "
        f"workers={config.cluster.workers}, "
        f"backend={config.service.backend}, "
        f"shard L={'/'.join(str(d) for d in depths)})",
        flush=True,
    )
    serving = asyncio.current_task()
    loop = asyncio.get_running_loop()
    handled = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, serving.cancel)
        except NotImplementedError:  # pragma: no cover — non-POSIX loops
            continue
        handled.append(signum)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        for signum in handled:
            loop.remove_signal_handler(signum)
        await service.stop()


__all__ = ["ClusterService", "run_cluster"]
