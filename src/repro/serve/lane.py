"""The lane: what a turn loop drives.

The code that decides *when* an access runs (the turn loops of
:class:`~repro.serve.service.ServiceFrontEnd`) needs only a narrow
surface — :class:`Lane` — and is written once against it. Two
implementations differ in where the engine lives: :class:`EngineLane`
holds it in this process; :class:`repro.cluster.worker.WorkerHandle`
reaches one in a worker process over the wire protocol. A
:class:`~repro.cluster.router.ShardRouter` over K lanes satisfies the
same surface (its turn is one dispatch round), so the single-engine
service drives its lane directly and the cluster drives its router with
the same loop.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Protocol

from repro.config import SystemConfig
from repro.obs.tracer import Tracer
from repro.oram.encryption import BucketCipher
from repro.oram.memory import TraceRecorder
from repro.replica.replicator import Replicator
from repro.serve.backends import StorageBackend, make_backend
from repro.serve.engine import ObliviousEngine, ServeRequest


class Lane(Protocol):
    """What the turn loops call. Order inside one slot is fixed:
    ``drain()`` → ask ``has_pending_real()`` → ``run_turn()``; whoever
    clocks a lane drains it before each turn."""

    async def admit(self, request: ServeRequest) -> None:
        """Take ownership of one request; blocks while the admission
        bound is reached (the backpressure point)."""

    def drain(self) -> None:
        """Feed queued admissions to the engine until it refuses."""

    async def run_turn(self) -> None:
        """Exactly one dummy-padded access (per engine behind the lane)."""

    def pending(self) -> int:
        """Admitted-but-unanswered work still owed to clients."""

    def has_pending_real(self) -> bool:
        """Whether a turn now would do client work. Ask after
        :meth:`drain`: work that completed at submit (a stash hit) is
        not pending and buys no tree access."""

    def note_pace_wait(self, wait_ns: float) -> None:
        """Credit one pacer sleep (the ``pace_wait_ns`` request phase)."""

    def flush_durability(self) -> None:
        """Seal due/gating checkpoints (idle moments, shutdown)."""

    def close(self) -> None:
        """Release storage resources."""


class ShardLane(Lane, Protocol):
    """A lane a router dispatches to: one shard's engine, wherever it
    lives."""

    shard_id: Optional[int]

    @property
    def replicator(self) -> Optional[Replicator]:
        """The shard's WAL source when it lives in this process."""

    @property
    def accesses(self) -> int:
        """Tree accesses the shard's engine has run."""

    async def stats(self) -> Dict[str, object]:
        """Health counters (``accesses``, ``pending``, ``levels``, …)."""


class EngineLane:
    """An oblivious engine, its bounded admission queue and the
    head-of-line hold — the in-process lane.

    Builds the engine (backend and, with ``replica.enabled``, its
    :class:`Replicator`) from ``config``, or adopts a prebuilt one
    (failover promotion and worker restart hand over an engine already
    restored from a checkpoint + WAL prefix). A cluster shard passes
    its :func:`~repro.cluster.partition.shard_identity` config, its
    ``shard_id`` and checkpoint ``salt``; requests then carry
    shard-local addresses.

    The drain preserves admission order: when the label queue is
    saturated the head request is *held* (not re-queued) until an
    access frees a slot, so two requests of one session never leapfrog
    each other on their way into the engine.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        backend: Optional[StorageBackend] = None,
        cipher: Optional[BucketCipher] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        trace: Optional[TraceRecorder] = None,
        engine: Optional[ObliviousEngine] = None,
        shard_id: Optional[int] = None,
        salt: bytes = b"",
    ) -> None:
        self.config = config
        self.shard_id = shard_id
        if engine is None:
            if backend is None:
                backend = make_backend(config.service, trace)
            replicator = (
                Replicator(
                    config.replica,
                    salt=salt,
                    tracer=tracer,
                    clock=clock,
                    shard_id=shard_id,
                )
                if config.replica.enabled
                else None
            )
            engine = ObliviousEngine(
                config,
                backend,
                cipher=cipher,
                tracer=tracer,
                clock=clock,
                shard_id=shard_id,
                replicator=replicator,
            )
        elif clock is not None:
            engine.clock = clock
            engine.store._clock = clock
        self.engine = engine
        self.backend = engine.store.backend
        # Called inside the access window between serving and next-path
        # selection, so a request admitted there can be chosen as the
        # very next path.
        engine.admit_hook = self.drain
        self._admission: "asyncio.Queue[ServeRequest]" = asyncio.Queue(
            maxsize=config.service.admission_capacity
        )
        #: Head-of-line request the engine had no room for yet.
        self._held: Optional[ServeRequest] = None

    @property
    def replicator(self) -> Optional[Replicator]:
        return self.engine.replicator

    @property
    def accesses(self) -> int:
        return self.engine.accesses

    async def admit(self, request: ServeRequest) -> None:
        await self._admission.put(request)

    def drain(self) -> None:
        engine = self.engine
        while True:
            if self._held is not None:
                request, self._held = self._held, None
            else:
                try:
                    request = self._admission.get_nowait()
                except asyncio.QueueEmpty:
                    return
            if not engine.submit(request):
                self._held = request  # keep admission order intact
                return

    async def run_turn(self) -> None:
        await self.engine.run_access()

    def pending(self) -> int:
        return (
            self._admission.qsize()
            + (1 if self._held is not None else 0)
            + (1 if self.engine.has_pending_real() else 0)
        )

    def has_pending_real(self) -> bool:
        return self.engine.has_pending_real()

    def note_pace_wait(self, wait_ns: float) -> None:
        self.engine.note_pace_wait(wait_ns)

    def flush_durability(self) -> None:
        self.engine.flush_durability()

    def close(self) -> None:
        self.engine.close()

    async def stats(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "accesses": self.engine.accesses,
            "completed_requests": self.engine.completed_requests,
            "pending": self.pending(),
            "levels": self.config.oram.levels,
            "num_blocks": self.config.oram.num_blocks,
        }


__all__ = ["Lane", "ShardLane", "EngineLane"]
