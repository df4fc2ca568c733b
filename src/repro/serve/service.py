"""The asyncio front end: sessions, admission, the turn loop.

:class:`ServiceFrontEnd` is the skeleton shared by the single-engine
:class:`OramService`, the sharded
:class:`repro.cluster.service.ClusterService` and the shard worker
process: one handler task per TCP connection speaking the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`, admitting
requests into a :class:`~repro.serve.lane.Lane`, and the one turn loop
that decides *when* that lane runs an access.

Three layers meet here:

* **sessions** — the per-connection handler tasks;
* **admission** — the lane's bounded queue between sessions and the
  engine. When it fills, handlers block in ``admit()`` and stop
  reading frames, so backpressure reaches clients through TCP flow
  control — no request is ever dropped, and the *engine-side* schedule
  stays dummy-padded regardless of offered load;
* the **turn loop** — a single task per front end: drain admissions,
  decide whether the slot runs, run exactly one dummy-padded access per
  engine, seal checkpoints on idle moments. It is arrival-driven
  (:meth:`ServiceFrontEnd._arrival_loop`: an access runs while real
  work is pending) or clock-driven (:meth:`ServiceFrontEnd._paced_loop`,
  ``pace.mode != "off"``: one access per pace slot, dummy when idle).

Ordering note: the lane's drain preserves admission order (see
:class:`~repro.serve.lane.EngineLane`) — together with the engine's
per-address waiter chains this gives each client read-your-writes.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import time
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.obs.events import (
    PaceDummyIssued,
    PaceEpochAdjusted,
    PacerTick,
    ReplicaShipped,
    SessionClosed,
    SessionOpened,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.encryption import BucketCipher
from repro.pace import Pacer
from repro.replica.replicator import Replicator
from repro.serve import protocol
from repro.serve.backends import StorageBackend
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.serve.lane import EngineLane, Lane


class ServiceFrontEnd:
    """Session/transport skeleton of an oblivious key-value service.

    Subclasses provide the storage side: they set :attr:`lane` (where
    admitted requests go and what the turn loop drives) and implement
    two hooks:

    * :attr:`num_blocks` — the logical address space bound used to
      validate incoming requests;
    * :meth:`_work_loop` — the background task turning admitted
      requests into tree accesses until stop (:meth:`_run_turns`,
      unless something else clocks the lane).
    """

    #: An :class:`~repro.serve.lane.EngineLane`, or a router over K
    #: lanes — set by the subclass constructor.
    lane: Lane

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.service_config = self.config.service
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        start = time.perf_counter_ns()
        self._clock = lambda: float(time.perf_counter_ns() - start)
        #: Deadline-grid clock of the fixed-temporal-distribution mode,
        #: built by :meth:`_run_turns` (None under ``pace.mode="off"``
        #: and in a front end whose turns are clocked elsewhere).
        self.pacer: Optional[Pacer] = None
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._work_task: Optional[asyncio.Task] = None
        self._session_tasks: Set[asyncio.Task] = set()
        self._session_ids = itertools.count(1)
        self._stopping = False
        #: Requests handed to the lane and not yet answered, by
        #: ``request_id`` — what a dead work loop still owes a reply.
        self._owed: Dict[int, ServeRequest] = {}
        #: What killed the work loop (None while it runs or after a
        #: clean exit).
        self._work_failure: Optional[BaseException] = None
        self.sessions_opened = 0
        self.frames_received = 0

    # ----------------------------------------------------------------- hooks

    @property
    def num_blocks(self) -> int:
        """Logical address space size (requests validated against it)."""
        raise NotImplementedError

    async def _work_loop(self) -> None:
        """Turn admitted requests into oblivious accesses until stop."""
        raise NotImplementedError

    def _replicator_for(
        self, message: dict
    ) -> Optional[Replicator]:
        """Resolve a ``replicate`` request to a WAL source (None =
        replication not enabled here; the session gets an error). May
        raise :class:`ProtocolError` for a client-safe diagnostic —
        e.g. a shard id outside the cluster's valid range — which the
        session echoes instead of the generic not-enabled message."""
        del message
        return None

    async def _handle_control(
        self, message: dict
    ) -> Optional[dict]:
        """Subclass hook for non-KV control operations.

        Called for each decoded frame before KV validation; return a
        response object to send (the frame was a control command) or
        None to fall through to the normal request path. Shard worker
        processes use this for their ``turn``/``stats``/``flush``
        backplane commands."""
        del message
        return None

    # ------------------------------------------------------------- turn loop

    async def _run_turns(self) -> None:
        """Drive :attr:`lane` until stop — the one place that decides
        when an access runs, for one engine or a cluster of them."""
        if self.config.pace.mode == "off":
            await self._arrival_loop()
        else:
            self.pacer = Pacer(self.config.pace, clock=self._clock)
            await self._paced_loop(self.pacer)

    async def _arrival_loop(self) -> None:
        """Arrival-driven turns: an access runs while real work is
        pending, and the loop sleeps otherwise."""
        lane = self.lane
        pace_s = self.service_config.pace_ns / 1e9
        while not (self._stopping and lane.pending() == 0):
            lane.drain()
            if lane.has_pending_real():
                await lane.run_turn()
                if pace_s > 0:
                    await asyncio.sleep(pace_s)
                else:
                    # One scheduling point per turn even when flat
                    # out, so session handlers keep making progress.
                    await asyncio.sleep(0)
            else:
                # Idle: no real work queued. Seal a checkpoint first if
                # acknowledgments are deferred, so no gated response can
                # wait longer than one quiet moment.
                lane.flush_durability()
                self._wake.clear()
                if lane.pending():
                    continue
                if self._stopping:
                    break
                await self._wake.wait()

    async def _paced_loop(self, pacer: Pacer) -> None:
        """Pacer-driven turns (``pace.mode != "off"``).

        One turn per pace slot, forever: the pacer's deadline grid —
        not request arrival — decides when the lane touches its
        backend(s), and a slot with no client work queued runs as a
        pure-dummy access of identical shape (for a cluster: a round
        visiting every shard, so the K timelines advance in lockstep).
        The lane is credited every pacer sleep so queued requests carve
        the wait out of ``sched_wait_ns`` as their ``pace_wait_ns``
        phase.
        """
        lane = self.lane
        while not (self._stopping and lane.pending() == 0):
            wait_ns = await pacer.wait_for_slot()
            lane.note_pace_wait(wait_ns)
            lane.drain()
            depth = lane.pending()
            real = lane.has_pending_real()
            await lane.run_turn()
            if not real:
                # A pure-dummy slot is the paced service's idle moment:
                # seal a checkpoint if acknowledgments are deferred.
                lane.flush_durability()
            self._note_pace_slot(
                wait_ns=wait_ns, real=real, queue_depth=depth
            )

    # ----------------------------------------------------------------- pacing

    def _note_pace_slot(
        self,
        *,
        wait_ns: float,
        real: bool,
        queue_depth: int,
        shard_id: Optional[int] = None,
    ) -> None:
        """Report one issued pace slot: trace events + adaptive feedback.

        Feeds the public queue depth to the pacer's adaptive controller
        and emits the ``pacer_tick`` / ``pace_dummy_issued`` /
        ``pace_epoch_adjusted`` trace events.
        """
        pacer = self.pacer
        assert pacer is not None
        slot = pacer.slots  # 0-based index of the slot being reported
        interval_ns = pacer.interval_ns  # cadence the slot ran under
        outcome = pacer.note_slot(queue_depth, real)
        if not self._trace:
            return
        now = self._clock()
        self.tracer.emit(
            PacerTick(
                ts_ns=now,
                slot=slot,
                interval_ns=interval_ns,
                wait_ns=wait_ns,
                queue_depth=queue_depth,
                real=real,
                shard_id=shard_id,
            )
        )
        self.tracer.counters.inc("pace.slots")
        if not real:
            self.tracer.emit(
                PaceDummyIssued(ts_ns=now, slot=slot, shard_id=shard_id)
            )
            self.tracer.counters.inc("pace.dummy_slots")
        if outcome is not None:
            self.tracer.emit(
                PaceEpochAdjusted(
                    ts_ns=now,
                    epoch=outcome.epoch,
                    old_interval_ns=outcome.old_interval_ns,
                    new_interval_ns=outcome.new_interval_ns,
                    high_marks=outcome.high_marks,
                    low_only=outcome.low_only,
                    slots=outcome.slots,
                    shard_id=shard_id,
                )
            )
            if outcome.changed:
                self.tracer.counters.inc("pace.epoch_adjustments")

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        service = self.service_config
        self._server = await asyncio.start_server(
            self._handle_session, service.host, service.port
        )
        self._work_task = asyncio.create_task(self._work_loop())
        self._work_task.add_done_callback(self._on_work_done)
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Stop accepting, finish in-flight work, release resources."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._session_tasks):
            task.cancel()
        if self._session_tasks:
            await asyncio.gather(*self._session_tasks, return_exceptions=True)
        self._wake.set()
        if self._work_task is not None:
            # Re-raises what killed a dead work loop, before the
            # closing flush: state abandoned mid-access must not be
            # sealed as the closing checkpoint.
            await self._work_task
        # Final checkpoint(s): release any still-deferred
        # acknowledgments and persist the closing client state for the
        # next start.
        self.lane.flush_durability()
        self.lane.close()

    async def serve_forever(self) -> None:
        """Serve until cancelled; if the work loop dies, raise what
        killed it."""
        assert (
            self._server is not None and self._work_task is not None
        ), "call start() first"
        async with self._server:
            accepting = asyncio.ensure_future(self._server.serve_forever())
            try:
                await asyncio.wait(
                    {accepting, self._work_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                accepting.cancel()
        if self._work_failure is not None:
            raise self._work_failure

    def _on_work_done(self, task: "asyncio.Task[None]") -> None:
        """Done-callback of the work loop: a dead loop must not hang
        clients.

        Nothing else resolves request futures, so on an exception every
        owed request is failed here with the error text, and every
        session is dropped once it has written those replies (one may
        be blocked in the lane's ``admit`` on a queue nobody drains any
        more). Connections opened afterwards are refused with the same
        text; :meth:`serve_forever` and :meth:`stop` raise the
        exception itself.
        """
        if task.cancelled() or task.exception() is None:
            return
        self._work_failure = task.exception()
        error = self._work_error()
        for request in self._owed.values():
            if not request.future.done():
                request.status = "failed"
                request.error = error
                request.future.set_result(request)
        for session in list(self._session_tasks):
            session.cancel()

    def _work_error(self) -> str:
        failure = self._work_failure
        return f"service work loop died: {type(failure).__name__}: {failure}"

    # --------------------------------------------------------------- sessions

    async def _handle_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._session_tasks.add(task)
        task.add_done_callback(self._session_tasks.discard)
        session_id = next(self._session_ids)
        self.sessions_opened += 1
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        if self._trace:
            self.tracer.emit(
                SessionOpened(ts_ns=self._clock(), session_id=session_id, peer=peer)
            )
        requests = 0
        write_lock = asyncio.Lock()
        response_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await protocol.read_message(
                        reader, self.service_config.max_frame_bytes
                    )
                except ProtocolError:
                    break  # framing is unrecoverable: drop the session
                if message is None:
                    break
                requests += 1
                self.frames_received += 1
                arrival = self._clock()
                client_id = message.get("id")
                if protocol.is_replicate_request(message):
                    # The session becomes a replication stream: ship
                    # checkpoints, WAL records and epoch digests until
                    # the standby disconnects or the service stops.
                    try:
                        replicator = self._replicator_for(message)
                    except ProtocolError as exc:
                        async with write_lock:
                            await protocol.write_message(
                                writer,
                                protocol.make_response(
                                    client_id, ok=False, error=str(exc)
                                ),
                            )
                        continue
                    if replicator is None:
                        async with write_lock:
                            await protocol.write_message(
                                writer,
                                protocol.make_response(
                                    client_id,
                                    ok=False,
                                    error="replication is not enabled",
                                ),
                            )
                        continue
                    try:
                        from_seq = protocol.validate_replicate_request(message)
                    except ProtocolError as exc:
                        async with write_lock:
                            await protocol.write_message(
                                writer,
                                protocol.make_response(
                                    client_id, ok=False, error=str(exc)
                                ),
                            )
                        continue
                    await self._stream_replication(writer, replicator, from_seq)
                    break
                control_response = await self._handle_control(message)
                if control_response is not None:
                    async with write_lock:
                        await protocol.write_message(writer, control_response)
                    continue
                try:
                    if self._work_failure is not None:
                        raise ProtocolError(self._work_error())
                    addr, op, value = protocol.validate_request(
                        message, self.num_blocks
                    )
                except ProtocolError as exc:
                    async with write_lock:
                        await protocol.write_message(
                            writer,
                            protocol.make_response(
                                client_id, ok=False, error=str(exc)
                            ),
                        )
                    continue
                request = ServeRequest(
                    op=op,
                    addr=addr,
                    value=value,
                    session_id=session_id,
                    client_id=client_id,
                    arrival_ns=arrival,
                    future=asyncio.get_running_loop().create_future(),
                )
                self._owed[request.request_id] = request
                # May block when the admission queue is full — the
                # backpressure point: this handler stops reading.
                await self.lane.admit(request)
                self._wake.set()
                responder = asyncio.create_task(
                    self._respond(request, writer, write_lock)
                )
                response_tasks.add(responder)
                responder.add_done_callback(response_tasks.discard)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if response_tasks:
                await asyncio.gather(*response_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            if self._trace:
                self.tracer.emit(
                    SessionClosed(
                        ts_ns=self._clock(),
                        session_id=session_id,
                        requests=requests,
                    )
                )

    async def _stream_replication(
        self,
        writer: asyncio.StreamWriter,
        replicator: Replicator,
        from_seq: int,
    ) -> None:
        """Ship the replication stream to one tailing standby.

        Everything shipped is either already public (WAL records are
        the labels + sealed bucket bytes the storage server observes,
        digests hash those bytes) or opaque (sealed checkpoint blobs),
        so the stream leaks nothing beyond the access trace — which
        :mod:`repro.security.replication` verifies end to end.
        """
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        await protocol.write_message(
            writer,
            protocol.make_hello_frame(
                replicator.wal.last_seq,
                replicator.digester.epoch_accesses,
                replicator.last_checkpoint_seq,
            ),
        )
        cursor = from_seq
        shipped_checkpoint = 0
        # Digest cursor, by epoch number rather than list index: the
        # digester prunes old entries as checkpoints retire them, so
        # positions shift under a long-lived stream. Epochs that ended
        # before the standby's request are skipped outright — the
        # standby computed those digests from its own WAL (or rebuilt
        # them on resync), and re-shipping every digest since epoch 1
        # on each reconnect grows without bound on an old primary.
        epoch_accesses = replicator.digester.epoch_accesses
        next_epoch = (from_seq + epoch_accesses - 1) // epoch_accesses

        async def ship_digests(upto: Optional[int]) -> None:
            """Ship unsent completed digests (``upto`` bounds their end
            seq, so digests interleave at their epoch boundaries and the
            standby verifies each epoch the moment it has replayed it)."""
            nonlocal next_epoch
            for epoch, upto_seq, digest in replicator.digester.completed:
                if epoch < next_epoch:
                    continue
                if upto is not None and upto_seq > upto:
                    break
                await protocol.write_message(
                    writer, protocol.make_digest_frame(epoch, upto_seq, digest)
                )
                next_epoch = epoch + 1

        while not self._stopping and not writer.is_closing():
            latest_ckpt = replicator.checkpoints.latest_seq()
            if latest_ckpt > shipped_checkpoint:
                await protocol.write_message(
                    writer,
                    protocol.make_checkpoint_frame(
                        latest_ckpt, replicator.checkpoints.read_blob(latest_ckpt)
                    ),
                )
                shipped_checkpoint = latest_ckpt
            batch_start = cursor
            if cursor <= replicator.wal.last_seq:
                for record in replicator.wal.read_from(cursor):
                    await protocol.write_message(
                        writer,
                        protocol.make_wal_frame(record.seq, record.encode()),
                    )
                    cursor = record.seq + 1
                    await ship_digests(record.seq)
            await ship_digests(None)
            if cursor > batch_start and self._trace:
                self.tracer.emit(
                    ReplicaShipped(
                        ts_ns=self._clock(),
                        peer=peer,
                        from_seq=batch_start,
                        upto_seq=cursor - 1,
                        records=cursor - batch_start,
                        shard_id=replicator.shard_id,
                    )
                )
            if replicator.closed:
                break
            await replicator.wait_for_progress(timeout=0.25)

    async def _respond(
        self,
        request: ServeRequest,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        assert request.future is not None
        done = await request.future
        del self._owed[request.request_id]
        response = protocol.make_response(
            done.client_id,
            ok=done.status != "failed",
            found=done.found,
            value=done.result,
            error=done.error,
        )
        try:
            async with write_lock:
                await protocol.write_message(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; the request itself still completed


class OramService(ServiceFrontEnd):
    """An oblivious key-value service over one ORAM tree."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        backend: Optional[StorageBackend] = None,
        cipher: Optional[BucketCipher] = None,
        tracer: Optional[Tracer] = None,
        engine: Optional[ObliviousEngine] = None,
    ) -> None:
        super().__init__(config, tracer)
        self.lane = EngineLane(
            self.config,
            backend=backend,
            cipher=cipher,
            tracer=self.tracer,
            clock=self._clock,
            engine=engine,
        )
        self.engine = self.lane.engine
        self.backend = self.lane.backend
        self.engine.admit_hook = self._drain_ready

    @property
    def num_blocks(self) -> int:
        return self.engine.num_blocks

    def _replicator_for(self, message: dict) -> Optional[Replicator]:
        del message
        return self.engine.replicator

    def _drain_ready(self) -> None:
        # The engine's admit_hook, kept on this class as the cost
        # ledger's serve.service / serve.engine span boundary
        # (benchmarks/ledger/probes.py:HOOKS resolves it by name).
        self.lane.drain()

    async def _work_loop(self) -> None:
        await self._run_turns()


async def serve_until_signalled(
    service: ServiceFrontEnd,
    banner: Callable[[str, int], str],
    until: Optional[Callable[[], Awaitable[None]]] = None,
) -> None:
    """Body of every serving command: start, print ``banner(host,
    port)``, serve until signalled, stop.

    SIGTERM and SIGINT cancel the serving task rather than killing the
    process outright, so :meth:`ServiceFrontEnd.stop` always runs —
    the closing checkpoint is sealed, backends are synced and closed,
    and a cluster supervisor never orphans its worker processes.
    ``until`` is an optional extra stop condition: serving also ends
    when the coroutine it returns completes (a shard worker's shutdown
    command / orphan watchdog).
    """
    host, port = await service.start()
    print(banner(host, port), flush=True)
    serving = asyncio.current_task()
    assert serving is not None
    loop = asyncio.get_running_loop()
    handled = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, serving.cancel)
        except NotImplementedError:  # pragma: no cover — non-POSIX loops
            continue
        handled.append(signum)

    async def watch() -> None:
        assert until is not None
        await until()
        serving.cancel()

    watcher = asyncio.create_task(watch()) if until is not None else None
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if watcher is not None:
            watcher.cancel()
        for signum in handled:
            loop.remove_signal_handler(signum)
        await service.stop()


__all__ = ["ServiceFrontEnd", "OramService", "serve_until_signalled"]
