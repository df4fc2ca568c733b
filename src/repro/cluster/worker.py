"""One shard engine behind the wire protocol — the worker process body.

``cluster.workers = "process"`` moves every shard engine out of the
service process: each shard runs as a ``python -m repro worker``
subprocess serving the standard length-prefixed protocol on a loopback
socket, and the router becomes a protocol *client*. The split is what
turns shard count into core count — K engines on K GILs instead of K
coroutines on one.

The supervisor's router opens **two** connections per worker:

* a *data* connection carrying shard-local KV requests through the
  ordinary front-end machinery (a full admission queue blocks the
  worker's session handler, so per-shard backpressure still reaches the
  router through TCP flow control);
* a *control* connection for the dispatch backplane — ``turn`` (run one
  dummy-padded access: the worker's slot in the router's fixed visit
  schedule), ``stats``, ``flush``, ``ping``, ``verify`` and
  ``shutdown``.

Keeping the two apart means a saturated admission queue can never block
the very command that drains it.

Workers are a private backplane, not a public endpoint: they bind
``cluster.worker_host`` (loopback by default) on an ephemeral port and
announce it on stdout (:data:`READY_BANNER`) for the supervisor to
parse. On startup with ``replica.enabled`` and a non-empty per-shard
replica directory, the worker rebuilds its engine through
:func:`repro.replica.recovery.recover_engine` — the same point-in-time
path a promoted standby uses — so a SIGKILL'd worker comes back with
every acknowledged write intact.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
from typing import Dict, Optional, Set

from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.obs.tracer import Tracer
from repro.oram.memory import TraceRecorder
from repro.replica.recovery import RecoveryReport, recover_engine
from repro.replica.replicator import Replicator
from repro.serve import protocol
from repro.serve.engine import ServeRequest
from repro.serve.lane import EngineLane
from repro.serve.service import ServiceFrontEnd

from repro.cluster.partition import shard_identity

#: stdout handshake line: ``SHARD_WORKER_READY shard=<k> port=<p>``.
READY_BANNER = "SHARD_WORKER_READY"

#: Control ops a worker session accepts alongside the KV ops.
CONTROL_OPS = ("turn", "stats", "flush", "ping", "verify", "shutdown")

#: How often a worker checks that its supervisor is still alive.
ORPHAN_POLL_S = 2.0


class ShardWorkerService(ServiceFrontEnd):
    """One shard's :class:`~repro.serve.lane.EngineLane` served over
    the wire protocol.

    KV requests arrive with *shard-local* addresses (the router
    translates before forwarding) and flow through the inherited
    session/admission machinery; the supervisor clocks tree accesses
    with ``turn`` control commands, so the fixed cross-shard visit
    schedule stays owned by the router even though the engines live in
    other processes.

    Recovery-on-start: with replication enabled and a non-empty
    per-shard replica directory, the engine is rebuilt from the newest
    sealed checkpoint + WAL prefix — the supervisor restarting a
    crashed worker gets back every acknowledged write (under
    ``ack_mode="checkpoint"``) without any extra coordination.
    """

    def __init__(
        self,
        config: SystemConfig,
        shard_id: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        bound = config.replace(
            service=dataclasses.replace(
                config.service, host=config.cluster.worker_host, port=0
            )
        )
        super().__init__(bound, tracer)
        self.shard_id = shard_id
        identity = shard_identity(bound, shard_id)
        trace = TraceRecorder() if config.cluster.worker_record_trace else None
        engine = None
        #: What recovery-on-start restored (None = a fresh shard).
        self.recovery: Optional[RecoveryReport] = None
        replica = identity.config.replica
        if (
            replica.enabled
            and os.path.isdir(replica.dir)
            and os.listdir(replica.dir)
        ):
            engine, self.recovery = recover_engine(
                identity.config,
                trace=trace,
                tracer=self.tracer,
                clock=self._clock,
                shard_id=shard_id,
                salt=identity.salt,
            )
        self.lane = EngineLane(
            identity.config,
            tracer=self.tracer,
            clock=self._clock,
            trace=trace,
            engine=engine,
            shard_id=shard_id,
            salt=identity.salt,
        )
        #: Serialises turns (and the shutdown drain) — one access at a
        #: time per shard, whatever the supervisor's session count.
        self._turn_lock = asyncio.Lock()
        #: Set by the ``shutdown`` control op: the process body stops
        #: serving once this fires.
        self.done = asyncio.Event()

    # ----------------------------------------------------------------- hooks

    @property
    def num_blocks(self) -> int:
        return self.lane.config.oram.num_blocks

    def _replicator_for(self, message: dict) -> Optional[Replicator]:
        shard = message.get("shard", self.shard_id)
        if shard != self.shard_id:
            raise ProtocolError(
                f"this worker serves shard {self.shard_id}, got {shard!r}"
            )
        return self.lane.replicator

    async def _work_loop(self) -> None:
        # Accesses are clocked by the supervisor's ``turn`` commands —
        # the fixed cross-shard schedule lives in the router, so the
        # worker owns no turn loop. This task only parks until stop;
        # the drain of still-admitted work happens in :meth:`stop`.
        while not self._stopping:
            self._wake.clear()
            if self._stopping:
                break
            await self._wake.wait()

    # --------------------------------------------------------------- control

    async def _turn(self) -> None:
        """This shard's slot: drain admissions, exactly one access."""
        async with self._turn_lock:
            self.lane.drain()
            await self.lane.run_turn()
            if self.lane.pending() == 0:
                # The turn left this shard idle: seal due/gating
                # checkpoints now so no ack waits for the cadence (the
                # turn loop's idle flush, shard-side).
                self.lane.flush_durability()

    async def _handle_control(self, message: dict) -> Optional[dict]:
        op = message.get("op")
        if op not in CONTROL_OPS:
            return None
        client_id = message.get("id")
        if op == "turn":
            wait_ns = message.get("wait_ns", 0)
            if (
                isinstance(wait_ns, (int, float))
                and not isinstance(wait_ns, bool)
                and wait_ns > 0
            ):
                # The supervisor's pacer slept this long before the
                # round; credit it so queued requests carve it out of
                # sched_wait as their pace_wait_ns phase.
                self.lane.note_pace_wait(float(wait_ns))
            await self._turn()
            return {
                "id": client_id,
                "ok": True,
                "pending": self.lane.pending(),
                "accesses": self.lane.accesses,
            }
        if op == "flush":
            self.lane.flush_durability()
            return {"id": client_id, "ok": True}
        if op == "ping":
            return {"id": client_id, "ok": True, "shard": self.shard_id}
        if op == "stats":
            return {"id": client_id, "ok": True, **await self.lane.stats()}
        if op == "verify":
            return self._verify_response(client_id)
        # "shutdown": acknowledge, then let the process body stop us —
        # responding first keeps the supervisor's RPC from failing.
        self.done.set()
        return {"id": client_id, "ok": True}

    def _verify_response(self, client_id: object) -> dict:
        """Label-reconstruction check inside the worker process.

        The cross-shard verifiers cannot observe another process's
        backend, so the per-shard half of the security argument runs
        where the backend lives: the recorded bucket trace must equal
        the deterministic reconstruction from this shard's public
        labels, flat or recursive (requires
        ``cluster.worker_record_trace``).
        """
        from repro.errors import ConfigError
        from repro.security.adversary import verify_engine_trace

        trace = getattr(self.lane.backend, "trace", None)
        if trace is None:
            return {
                "id": client_id,
                "ok": False,
                "error": "tracing disabled (set cluster.worker_record_trace)",
            }
        engine = self.lane.engine
        try:
            verified = verify_engine_trace(engine, trace.events)
        except ConfigError as exc:
            return {"id": client_id, "ok": False, "error": str(exc)}
        return {
            "id": client_id,
            "ok": True,
            "accesses": engine.accesses,
            "verified_accesses": verified,
        }

    # ------------------------------------------------------------- lifecycle

    async def stop(self) -> None:
        # Drain admitted-but-unserved work *before* the inherited stop
        # cancels sessions: responders there wait on request futures,
        # which resolve only through turns — running the turns first
        # means every in-flight request is answered, not orphaned.
        self._stopping = True
        while self.lane.pending():
            await self._turn()
        self.lane.flush_durability()
        await super().stop()

    async def released(self) -> None:
        """Return once this worker should stop serving: the supervisor
        said ``shutdown``, or is gone.

        A SIGKILLed supervisor can never run the fleet shutdown; the
        worker notices the reparenting (ppid changes, typically to
        init) and exits on its own instead of lingering forever.
        """
        parent = os.getppid()
        while os.getppid() == parent and not self.done.is_set():
            try:
                await asyncio.wait_for(self.done.wait(), ORPHAN_POLL_S)
            except asyncio.TimeoutError:
                pass


class WorkerHandle:
    """The remote lane: the router's client half of one shard worker
    process.

    Wraps the two :class:`~repro.serve.protocol.FrameClient`
    connections with the :class:`~repro.serve.lane.ShardLane` surface:
    :meth:`admit` forwards one translated KV request and resolves its
    future when the response arrives; :meth:`run_turn` runs the shard's
    slot in the dispatch round. A per-handle semaphore sized to the
    shard's *divided* admission capacity bounds requests in flight —
    the cluster-wide admission bound holds even though TCP buffers
    would happily hold more.
    """

    #: Workers hold their replicators; the supervisor has none.
    replicator = None

    def __init__(
        self,
        shard_id: int,
        host: str,
        capacity: int,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = 0
        self.capacity = capacity
        self.max_frame_bytes = max_frame_bytes
        self._data: Optional[protocol.FrameClient] = None
        self._control: Optional[protocol.FrameClient] = None
        self._slots = asyncio.Semaphore(capacity)
        self._tasks: Set[asyncio.Task] = set()
        #: Requests forwarded but not yet answered by the worker.
        self.inflight = 0
        #: The worker's own pending count from its last turn/stats
        #: response (admission queue + held + engine real work).
        self.reported_pending = 0
        #: Engine access count from the last turn response.
        self.accesses = 0
        #: Pacer sleep credited since the last turn; the next ``turn``
        #: RPC carries it to the worker engine.
        self._pace_credit_ns = 0.0

    @property
    def connected(self) -> bool:
        return (
            self._data is not None
            and self._data.connected
            and self._control is not None
            and self._control.connected
        )

    async def connect(self, port: int) -> None:
        """(Re)bind to a worker at ``port`` and open both connections.

        After a restart the previous connections' in-flight calls have
        already failed; counters reset because the recovered worker's
        admission state starts empty.
        """
        await self.close_clients()
        self.port = port
        self._data = protocol.FrameClient(
            self.host, port, self.max_frame_bytes
        )
        self._control = protocol.FrameClient(
            self.host, port, self.max_frame_bytes
        )
        await self._data.connect()
        await self._control.connect()
        self._slots = asyncio.Semaphore(self.capacity)
        self.inflight = 0
        self.reported_pending = 0

    # ------------------------------------------------------------------- KV

    async def admit(self, request: ServeRequest) -> None:
        """Forward one shard-local request; resolves its future later.

        Blocks while the shard's admission window is full — the same
        backpressure point the inline worker's queue provides.
        """
        slots = self._slots
        await slots.acquire()
        if self._data is None or not self._data.connected:
            slots.release()
            self._resolve(request, ok=False, error=(
                f"shard {self.shard_id} worker is unavailable"
            ))
            return
        message: Dict[str, object] = {"op": request.op, "addr": request.addr}
        if request.value is not None:
            message["value"] = request.value
        self.inflight += 1
        task = asyncio.create_task(
            self._finish(request, slots, self._data.call(message))
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _finish(
        self,
        request: ServeRequest,
        slots: asyncio.Semaphore,
        response_coro: "object",
    ) -> None:
        try:
            response = await response_coro  # type: ignore[misc]
        except ProtocolError as exc:
            self._resolve(request, ok=False, error=str(exc))
        else:
            self._resolve(
                request,
                ok=bool(response.get("ok")),
                found=bool(response.get("found")),
                value=response.get("value"),
                error=response.get("error"),
            )
        finally:
            self.inflight -= 1
            slots.release()

    @staticmethod
    def _resolve(
        request: ServeRequest,
        *,
        ok: bool,
        found: bool = False,
        value: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        request.status = "proxied" if ok else "failed"
        request.found = found
        request.result = value if isinstance(value, str) else None
        request.error = error if isinstance(error, str) else None
        if request.future is not None and not request.future.done():
            request.future.set_result(request)

    # -------------------------------------------------------------- control

    def note_pace_wait(self, wait_ns: float) -> None:
        self._pace_credit_ns += wait_ns

    async def run_turn(self) -> None:
        """Run this shard's slot in the current dispatch round.

        Ships the pacer sleep credited since the last turn so the
        worker engine accounts it before running the access (the
        ``pace_wait_ns`` phase of queued requests). Raises
        :class:`ProtocolError` while the worker is unavailable.
        """
        wait_ns, self._pace_credit_ns = self._pace_credit_ns, 0.0
        if self._control is None or not self._control.connected:
            raise ProtocolError(
                f"shard {self.shard_id} worker is unavailable"
            )
        message: Dict[str, object] = {"op": "turn"}
        if wait_ns > 0:
            message["wait_ns"] = wait_ns
        response = await self._control.call(message)
        if not response.get("ok"):
            raise ProtocolError(
                f"shard {self.shard_id} turn failed: {response.get('error')}"
            )
        self.reported_pending = int(response.get("pending", 0) or 0)
        self.accesses = int(response.get("accesses", 0) or 0)

    async def control(self, op: str, **extra: object) -> Dict[str, object]:
        """One control RPC (``stats``/``flush``/``ping``/``verify``/…)."""
        if self._control is None or not self._control.connected:
            raise ProtocolError(
                f"shard {self.shard_id} worker is unavailable"
            )
        message: Dict[str, object] = {"op": op}
        message.update(extra)
        return await self._control.call(message)

    async def stats(self) -> Dict[str, object]:
        return await self.control("stats")

    def flush_durability(self) -> None:
        """Fire-and-forget durability flush (the idle-moment seal)."""
        if self._control is None or not self._control.connected:
            return
        task = asyncio.create_task(self._swallow(self._control.call({"op": "flush"})))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    @staticmethod
    async def _swallow(coro: "object") -> None:
        try:
            await coro  # type: ignore[misc]
        except ProtocolError:
            pass

    # ------------------------------------------------------------------ misc

    def drain(self) -> None:
        """Nothing to do here: admissions are forwarded as they
        arrive, and the worker drains them in its own turn."""

    def pending(self) -> int:
        return self.inflight + self.reported_pending

    def has_pending_real(self) -> bool:
        # A forwarded request may yet complete at the worker's submit,
        # but that is not visible from here: anything unanswered counts.
        return self.pending() > 0

    def close(self) -> None:
        """Connections and processes are owned by the fleet, which
        closes them in its (async) stop path."""

    def fail_inflight(self) -> None:
        """Fail outstanding calls now (the worker process died)."""
        if self._data is not None:
            self._data.fail_pending()
        if self._control is not None:
            self._control.fail_pending()
        self.reported_pending = 0

    async def close_clients(self) -> None:
        if self._data is not None:
            await self._data.close()
            self._data = None
        if self._control is not None:
            await self._control.close()
            self._control = None
        self.reported_pending = 0


__all__ = [
    "READY_BANNER",
    "CONTROL_OPS",
    "ShardWorkerService",
    "WorkerHandle",
]
