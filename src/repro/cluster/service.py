"""The sharded oblivious key-value service front end.

:class:`ClusterService` is :class:`~repro.serve.service.OramService`'s
horizontal sibling: the same TCP sessions, protocol and response
plumbing (inherited from
:class:`~repro.serve.service.ServiceFrontEnd`), but admitted requests
are striped across K independent shard engines by the
:class:`~repro.cluster.router.ShardRouter`, and the front end's turn
loop drives the router, so every turn is a *dispatch round* — every
shard, fixed order, one dummy-padded access each.

Clients are unaffected: the wire protocol addresses the global block
space, translation to (shard, local address) happens at admission, and
responses never echo addresses. Backpressure is per shard (a handler
blocks when the target shard's admission queue fills), which is itself
data-independent to the adversary — admission queues are on-chip state,
invisible at the storage boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError, ProtocolError
from repro.obs.tracer import Tracer
from repro.oram.encryption import BucketCipher
from repro.oram.memory import TraceRecorder
from repro.serve.backends import StorageBackend
from repro.serve.service import ServiceFrontEnd

from repro.cluster.router import ShardRouter, local_shard_lanes
from repro.cluster.supervisor import WorkerFleet


class ClusterService(ServiceFrontEnd):
    """An oblivious key-value service sharded over K ORAM trees.

    ``cluster.workers`` selects where those trees live: ``"inline"``
    builds the K engines in this process
    (:func:`~repro.cluster.router.local_shard_lanes`); ``"process"``
    spawns a supervised worker fleet (one subprocess per shard) whose
    :class:`~repro.cluster.worker.WorkerHandle` objects are the lanes. The
    router, the wire protocol, the admission translation and the fixed
    visit schedule are the same either way.
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
        if self.cluster_config.workers == "process":
            if backends is not None or traces is not None or cipher is not None:
                raise ConfigError(
                    "explicit backends/traces/cipher require inline "
                    "workers (they cannot cross a process boundary)"
                )
            self.fleet = WorkerFleet(self.config, tracer=self.tracer)
            lanes = self.fleet.handles
        else:
            lanes = local_shard_lanes(
                self.config,
                cipher=cipher,
                tracer=self.tracer,
                clock=self._clock,
                backends=backends,
                traces=traces,
            )
        self.router = ShardRouter(self.config, lanes, tracer=self.tracer)
        self.lane = self.router

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
        await self._run_turns()


__all__ = ["ClusterService"]
