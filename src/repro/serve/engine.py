"""The oblivious engine: fork-path accesses driving client requests.

This is the service-side counterpart of
:class:`~repro.core.controller.ForkPathController`. The batch
controller advances simulated time; the engine serves *live* client
requests in wall-clock time over an (async, possibly faulty) storage
backend — but executes the exact same oblivious access discipline:

* one position map + stash + :class:`~repro.core.merging.ForkState`;
* a dummy-padded :class:`~repro.core.scheduling.LabelQueue`, so the
  scheduling choice set always has ``M`` candidates and the backend
  observes the same kind of trace whether zero or a hundred clients
  are connected;
* per access: read the non-resident path suffix, serve the target from
  the stash, pick the next entry, refill down to the fork point,
  retain the overlap prefix on chip.

Request semantics on top of the block interface:

* **stash hits complete on-chip** — like the simulator, a request whose
  address is already stash-resident never touches the backend (the
  threat model's adversary cannot see on-chip traffic);
* **per-address serialization** — while an access for address ``a`` is
  in flight, later requests for ``a`` queue as *waiters* and are served
  from the stash the moment the access completes, preserving
  read-your-writes per client without issuing a second tree access;
* **exactly-once completion** — every submitted request's future is
  resolved exactly once, including when the backend fails past the
  retry budget (the request fails with ``ok: false``; the fork state is
  reset so the next access re-reads a full path).

Backend operations go through :class:`AsyncBucketStore`, which seals
and opens buckets with the configured cipher and retries transient
errors and timeouts with exponential backoff — writes are absolute
(a bucket is always written whole), so a retried or duplicated write
is idempotent by construction.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from repro.config import ServiceConfig, SystemConfig
from repro.core.merging import ForkState
from repro.core.requests import LabelEntry
from repro.core.scheduling import LabelQueue
from repro.errors import BackendError, ConfigError, TransientBackendError
from repro.obs.events import BackendRetry, ServiceAdmitted, ServiceCompleted
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.blocks import Block
from repro.oram.encryption import BucketCipher, NullCipher
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.posmap import build_position_map
from repro.replica.replicator import Replicator
from repro.serve.backends import StorageBackend

_serve_request_ids = itertools.count()

#: Most recent per-access records kept on the engine (deque maxlen).
RECORD_CAPACITY = 1 << 16
#: Distinct session ids that get a per-session latency histogram.
SESSION_HISTOGRAM_CAP = 256


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for backend operations.

    Attempt ``k`` (1-based) that fails transiently sleeps
    ``min(max_ns, base_ns * 2**(k-1))`` before attempt ``k+1``; after
    ``attempts`` failures the operation raises :class:`BackendError`.
    """

    attempts: int = 8
    base_ns: float = 1_000_000.0
    max_ns: float = 200_000_000.0
    op_timeout_ns: float = 250_000_000.0

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "RetryPolicy":
        return cls(
            attempts=config.retry_attempts,
            base_ns=config.retry_base_ns,
            max_ns=config.retry_max_ns,
            op_timeout_ns=config.op_timeout_ns,
        )

    def backoff_ns(self, attempt: int) -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        return min(self.max_ns, self.base_ns * (2.0 ** (attempt - 1)))


@dataclass(slots=True)
class ServeRequest:
    """One client request inside the service (the engine's unit).

    The ``*_ns`` fields form the monotone wall-clock chain
    ``arrival <= admitted <= scheduled <= completed`` whose deltas are
    the ``service_completed`` phase breakdown.
    """

    op: str
    addr: int
    value: Optional[str] = None
    session_id: int = 0
    request_id: int = field(default_factory=lambda: next(_serve_request_ids))
    #: Client-chosen correlation id, echoed in the response.
    client_id: object = None
    arrival_ns: float = 0.0
    admitted_ns: float = 0.0
    scheduled_ns: float = 0.0
    #: When the engine finished serving the op (== ``completed_ns``
    #: unless the acknowledgment was held for a sealed checkpoint).
    served_ns: float = 0.0
    completed_ns: float = 0.0
    #: "stash" (on-chip hit), "oram" (own tree access), "coalesced"
    #: (served as a waiter of an in-flight same-address access), or
    #: "failed" (backend gave up past the retry budget).
    status: str = ""
    found: bool = False
    result: Optional[str] = None
    error: Optional[str] = None
    #: Checkpoint wait under ``replica.ack_mode="checkpoint"``; None
    #: when the response was not gated (the phase key is then omitted).
    durability_ns: Optional[float] = None
    #: Duration of this request's position-map chain (recursive posmap
    #: mode only); None when no chain ran (flat mode, stash hits,
    #: coalesced waiters) — the phase key is then omitted.
    posmap_ns: Optional[float] = None
    #: Pacer sleep time this request spent queued for an access slot
    #: (``pace.mode != "off"`` only); None when unpaced or never queued
    #: (stash hits) — the phase key is then omitted.
    pace_wait_ns: Optional[float] = None
    #: Engine ``pace_waited_ns`` counter at admission (internal).
    pace_mark: Optional[float] = None
    future: Optional["asyncio.Future[ServeRequest]"] = None

    def phases(self) -> Dict[str, float]:
        if self.durability_ns is None:
            service_end = self.completed_ns
        else:
            service_end = self.served_ns
        # The posmap chain and the pacer sleeps run inside the
        # admitted → scheduled window, so they are carved out of
        # sched_wait and the sum stays exact.
        phases = {
            "admission_ns": self.admitted_ns - self.arrival_ns,
            "sched_wait_ns": (
                self.scheduled_ns
                - self.admitted_ns
                - (self.posmap_ns or 0.0)
                - (self.pace_wait_ns or 0.0)
            ),
            "service_ns": service_end - self.scheduled_ns,
        }
        if self.durability_ns is not None:
            phases["durability_ns"] = self.durability_ns
        if self.posmap_ns is not None:
            phases["posmap_ns"] = self.posmap_ns
        if self.pace_wait_ns is not None:
            phases["pace_wait_ns"] = self.pace_wait_ns
        return phases

    @property
    def latency_ns(self) -> float:
        return self.completed_ns - self.arrival_ns


class AsyncBucketStore:
    """Sealed path-segment reads/writes over an async backend, with retries.

    The path segment is the one unit of storage I/O: one read step
    (:meth:`read_many_blocks`) and one write-back step
    (:meth:`write_many_blocks`), shared by the data tree's fork segment
    and every position-map level's full path. The cipher boundary lives
    here (the trusted side): plaintext blocks in, sealed buckets out.
    Every backend batch is guarded by the per-op timeout and retried per
    :class:`RetryPolicy` with the whole batch as the retry unit; writes
    are absolute, so a batch retried after an ambiguous failure simply
    overwrites the same buckets with the same sealed values.
    """

    def __init__(
        self,
        backend: StorageBackend,
        bucket_slots: int,
        cipher: Optional[BucketCipher] = None,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        shard_id: Optional[int] = None,
    ) -> None:
        self.backend = backend
        self.bucket_slots = bucket_slots
        self.cipher = cipher if cipher is not None else NullCipher()
        self.policy = policy if policy is not None else RetryPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self._clock = clock if clock is not None else _default_clock()
        self.shard_id = shard_id
        self.retries = 0
        self.failures = 0

    async def read_many_blocks(self, node_ids: List[int], stash: Stash) -> None:
        """The read step: fetch a path segment into ``stash``.

        A tree node can hold a copy of a stash-resident block only after
        an ambiguous write failure (the write landed but reported
        failure, so the blocks were re-inserted into the stash) — the
        stash copy is the fresh one, so such tree copies are skipped.
        """
        open_blocks = self.cipher.open_blocks
        z = self.bucket_slots
        for sealed in await self.read_many_sealed(node_ids):
            if sealed is None:
                continue
            stash.add_all(
                block
                for block in open_blocks(sealed, z)
                if block.addr not in stash
            )

    async def read_many_sealed(self, node_ids: List[int]) -> List[Optional[bytes]]:
        """One backend round trip for the segment's sealed buckets.

        The whole batch is the retry unit — a transient failure or
        timeout replays every node of the batch (harmless: reads are
        idempotent and the trace records each replay, exactly as a real
        storage server would log a retried batch request).
        """
        if not node_ids:
            return []
        return await self._attempt(
            "read-batch",
            node_ids[0],
            lambda: self.backend.aget_many(node_ids),
        )

    async def write_many_blocks(
        self,
        stash: Stash,
        leaf: int,
        path: Sequence[int],
        floor: int,
        replicator: Optional[Replicator],
    ) -> int:
        """The write-back step: refill ``path`` (node ids, root first)
        from ``stash``, leaf level down to level ``floor``; returns the
        number of buckets written.

        The whole write set is sealed up front (trusted side) and, with
        a replicator, appended to the WAL before any bucket reaches the
        backend: after a crash the log is therefore a superset of the
        store, and it holds exactly the public trace (the scheduled
        leaf + the sealed bytes the server stores). An ambiguous
        mid-batch failure may leave a prefix of the buckets written, so
        on a final failure every staged block goes back into the stash
        (stale tree copies are superseded by stash copies on read; an
        already-logged record is harmless — recovery treats the
        checkpointed stash as authoritative, exactly as live reads do).
        """
        z = self.bucket_slots
        staged = [
            (path[level], stash.collect_for_node(leaf, level, z))
            for level in range(len(path) - 1, floor - 1, -1)
        ]
        seal_blocks = self.cipher.seal_blocks
        sealed_pairs: List[Tuple[int, bytes]] = []
        for node_id, blocks in staged:
            sealed = seal_blocks(blocks, z)
            if type(sealed) is not bytes:
                raise TypeError(
                    f"cipher {type(self.cipher).__name__} sealed to "
                    f"{type(sealed).__name__}; the storage contract is bytes"
                )
            sealed_pairs.append((node_id, sealed))
        if replicator is not None:
            replicator.log_access(leaf, sealed_pairs)
        try:
            await self.write_many_sealed(sealed_pairs)
        except BackendError:
            for _node_id, blocks in staged:
                stash.add_all(blocks)
            raise
        return len(staged)

    async def write_many_sealed(self, pairs: List[Tuple[int, bytes]]) -> None:
        """One backend round trip writing the segment's sealed buckets."""
        if not pairs:
            return
        await self._attempt(
            "write-batch",
            pairs[0][0],
            lambda: self.backend.aput_many(pairs),
        )

    async def _attempt(
        self, op: str, node_id: int, thunk: Callable[[], "asyncio.Future"]
    ) -> object:
        policy = self.policy
        timeout_s = policy.op_timeout_ns / 1e9 if policy.op_timeout_ns > 0 else None
        last_error = ""
        for attempt in range(1, policy.attempts + 1):
            try:
                coro = thunk()  # fresh coroutine per attempt
                if timeout_s is None:
                    return await coro
                return await asyncio.wait_for(coro, timeout_s)
            except (TransientBackendError, asyncio.TimeoutError) as exc:
                last_error = (
                    "operation timed out"
                    if isinstance(exc, asyncio.TimeoutError)
                    else str(exc)
                )
                if attempt == policy.attempts:
                    break
                self.retries += 1
                backoff = policy.backoff_ns(attempt)
                if self._trace:
                    self.tracer.emit(
                        BackendRetry(
                            ts_ns=self._clock(),
                            node_id=node_id,
                            op=op,
                            attempt=attempt,
                            backoff_ns=backoff,
                            error=last_error,
                            shard_id=self.shard_id,
                        )
                    )
                    self.tracer.counters.inc("serve.backend.retries")
                await asyncio.sleep(backoff / 1e9)
        self.failures += 1
        raise BackendError(
            f"backend {op} of node {node_id} failed after "
            f"{policy.attempts} attempts: {last_error}"
        )


def _default_clock() -> Callable[[], float]:
    """Wall-clock ns relative to creation (floats stay precise)."""
    start = time.perf_counter_ns()
    return lambda: float(time.perf_counter_ns() - start)


class ObliviousEngine:
    """Fork-path access engine serving live requests from a backend."""

    def __init__(
        self,
        config: SystemConfig,
        backend: StorageBackend,
        cipher: Optional[BucketCipher] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        shard_id: Optional[int] = None,
        replicator: Optional[Replicator] = None,
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self.clock = clock if clock is not None else _default_clock()
        #: Cluster shard that owns this engine; None for a standalone
        #: service. Tags every emitted service event and counter.
        self.shard_id = shard_id
        self.rng = random.Random(config.seed)
        oram = config.oram
        self.geometry = TreeGeometry(oram.levels)
        self.bucket_slots = oram.bucket_slots
        self.num_blocks = oram.num_blocks
        #: Flat resident map, or a HierarchicalPositionMap whose levels
        #: live as small ORAM trees on this engine's own backend (node
        #: ids above the data tree's) — see repro.posmap.
        self.posmap = build_position_map(config, self.geometry, self.rng)
        #: True when requests resolve labels via deepest-first posmap
        #: chains folded into the access schedule (recursive mode).
        self._posmap_chain: bool = self.posmap.requires_chain
        #: Requests admitted but whose posmap chain has not run yet
        #: (recursive mode only); one chain executes per access slot.
        self._chain_pending: Deque[ServeRequest] = deque()
        self.stash = Stash(self.geometry, oram.stash_capacity)
        self.fork = ForkState(self.geometry, enabled=config.scheduler.enable_merging)
        self.label_queue = LabelQueue(
            self.geometry, config.scheduler, self.rng, self.tracer
        )
        self.store = AsyncBucketStore(
            backend,
            oram.bucket_slots,
            cipher=cipher,
            policy=RetryPolicy.from_config(config.service),
            tracer=self.tracer,
            clock=self.clock,
            shard_id=shard_id,
        )
        #: Durability/replication coordinator (None = no WAL, no
        #: checkpoints — the pre-replication behaviour, bit for bit).
        self._replicator = replicator
        #: Address -> the request whose tree access is in flight.
        self._inflight: Dict[int, ServeRequest] = {}
        #: Address -> later same-address requests awaiting that access.
        self._waiters: Dict[int, Deque[ServeRequest]] = {}
        #: The entry already revealed as the next path (fork target).
        self._next_entry: Optional[LabelEntry] = None
        #: Invoked between serve and next-path selection so the service
        #: can admit freshly queued requests into this very window.
        self.admit_hook: Optional[Callable[[], None]] = None
        self.accesses = 0
        self.real_accesses = 0
        self.failed_accesses = 0
        self.completed_requests = 0
        #: Pacing (``pace.mode != "off"``): whether queued requests get
        #: a ``pace_wait_ns`` phase, and the cumulative pacer sleep the
        #: work loop has credited via :meth:`note_pace_wait`.
        self._paced = config.pace.mode != "off"
        self.pace_waited_ns = 0.0
        #: Engine-triggered backend compactions (see _maybe_compact).
        self.compactions = 0
        #: Scheduling rounds that saw an underfull queue — the padding
        #: invariant says this must stay 0 (tests assert it).
        self.underfull_rounds = 0
        #: (leaf, was_dummy, read_nodes, written_nodes) per access —
        #: bounded so a long-running service does not grow without
        #: limit; only the most recent accesses are kept.
        self.records: Deque[tuple] = deque(maxlen=RECORD_CAPACITY)
        #: Wall-clock issue time of each access (engine clock) — the
        #: adversary-observable timeline :mod:`repro.security.temporal`
        #: analyses. Bounded like :attr:`records`.
        self.access_times_ns: Deque[float] = deque(maxlen=RECORD_CAPACITY)
        #: Session ids granted a per-session latency histogram; capped
        #: so the tracer's histogram table stays bounded however many
        #: sessions a long-lived server accumulates.
        self._histogram_sessions: set = set()

    @property
    def replicator(self) -> Optional[Replicator]:
        """The attached durability coordinator (None when disabled)."""
        return self._replicator

    # -------------------------------------------------------------- admission

    def has_pending_real(self) -> bool:
        """Whether any client work is queued or in flight."""
        return bool(
            self._inflight
            or self._chain_pending
            or self.label_queue.pending_real
            or (self._next_entry is not None and self._next_entry.is_real)
        )

    def submit(self, request: ServeRequest) -> bool:
        """Admit one request into the engine; False = no room yet.

        On False the caller must hold the request and retry later — the
        label queue is saturated with real entries and admitting more
        would break the fixed-size padding discipline.
        """
        now = self.clock()
        addr = request.addr
        if addr in self._inflight:
            request.admitted_ns = now
            if self._paced:
                request.pace_mark = self.pace_waited_ns
            self._waiters.setdefault(addr, deque()).append(request)
            self._emit_admitted(request)
            return True
        block = self.stash.get(addr)
        if block is not None:
            # On-chip hit: complete immediately, no tree access.
            request.admitted_ns = now
            request.scheduled_ns = now
            self._emit_admitted(request)
            self._apply(request, stash_leaf=block.leaf)
            self._complete(request, "stash")
            return True
        if self._posmap_chain:
            # Recursive mode: the label is not resident — it is
            # produced by a deepest-first posmap chain that the access
            # loop runs one-per-slot (run_access), keeping chain timing
            # independent of request arrival. Admission only reserves a
            # future label-queue slot.
            if (
                self.label_queue.pending_real + len(self._chain_pending)
                >= self.label_queue.size
            ):
                return False
            request.admitted_ns = now
            if self._paced:
                request.pace_mark = self.pace_waited_ns
            self._inflight[addr] = request
            self._chain_pending.append(request)
            self._emit_admitted(request)
            return True
        if not self.label_queue.has_room_for_real():
            return False
        request.admitted_ns = now
        if self._paced:
            request.pace_mark = self.pace_waited_ns
        old_leaf, new_leaf = self.posmap.remap(addr)
        self.label_queue.insert_real(
            LabelEntry(
                leaf=old_leaf,
                target_addr=addr,
                new_leaf=new_leaf,
                enqueue_ns=now,
            )
        )
        self._inflight[addr] = request
        self._emit_admitted(request)
        return True

    def _emit_admitted(self, request: ServeRequest) -> None:
        if self._trace:
            self.tracer.emit(
                ServiceAdmitted(
                    ts_ns=request.admitted_ns,
                    request_id=request.request_id,
                    session_id=request.session_id,
                    op=request.op,
                    addr=request.addr,
                    wait_ns=request.admitted_ns - request.arrival_ns,
                    shard_id=self.shard_id,
                )
            )

    # ---------------------------------------------------------------- access

    async def run_access(self) -> None:
        """Execute one (possibly dummy) fork-path tree access.

        In recursive posmap mode every slot begins with exactly one
        position-map chain — real when a request is waiting, dummy
        otherwise — so the bus always sees ``depth`` fixed-shape posmap
        accesses followed by one data-tree fork access per slot.
        """
        if self._posmap_chain:
            try:
                await self._run_chain_step()
            except BackendError:
                # The chain consumed this slot; repair state was pinned
                # inside the posmap and the doomed request (if any)
                # already failed with its future resolved.
                return
        now = self.clock()
        self.access_times_ns.append(now)
        entry = self._next_entry
        self._next_entry = None
        if entry is None:  # bootstrap: no revealed path yet
            entry = self._select(None, now)
        leaf = entry.leaf
        request = (
            self._inflight.get(entry.target_addr)
            if entry.target_addr is not None
            else None
        )
        if request is not None:
            self._mark_scheduled(request, now)
        next_entry: Optional[LabelEntry] = None
        served = False
        try:
            read_nodes = self.fork.read_set(leaf)
            await self.store.read_many_blocks(read_nodes, self.stash)
            if entry.is_real:
                self._serve_real(entry)
                served = True
                self.real_accesses += 1
            if self.admit_hook is not None:
                self.admit_hook()
            next_entry = self._select(leaf, self.clock())
            retain = self.fork.retain_depth(leaf, next_entry.leaf)
            replicator = self._replicator
            written = await self.store.write_many_blocks(
                self.stash,
                leaf,
                self.geometry.path_tuple(leaf),
                retain,
                replicator,
            )
            self.fork.commit_write(leaf, retain)
            self.stash.check_persistent_occupancy(
                slack=self.bucket_slots * retain
            )
            self._next_entry = next_entry
            self.accesses += 1
            self.records.append((leaf, entry.is_dummy, len(read_nodes), written))
            self._maybe_compact()
            if replicator is not None:
                replicator.maybe_checkpoint(self.capture_state)
        except BackendError as exc:
            # The backend gave up past the retry budget. Drop the
            # resident prefix so the next access re-reads a full path;
            # blocks collected for a failed write were re-inserted by
            # the store, so the stash again holds everything unwritten.
            self.failed_accesses += 1
            self.fork.reset()
            if entry.target_addr is not None and not served:
                # The target was never served: the block still lives on
                # its old path, so restore the old position-map label
                # before failing the request (exactly-once: its future
                # still resolves). If it *was* served, the request
                # already completed and the stash holds the fresh block
                # under its new label — nothing to undo.
                self.posmap.assign(entry.target_addr, entry.leaf)
                self._fail_address(entry.target_addr, str(exc))
            if next_entry is not None and next_entry.is_real:
                # The next path was already popped from the label queue;
                # re-queue it so its in-flight request is neither lost
                # nor wedged (the queue just freed a slot, so this
                # cannot raise).
                self.label_queue.insert_real(next_entry)

    async def _run_chain_step(self) -> None:
        """One posmap chain per access slot (recursive mode only).

        Real when a request waits and the label queue has room for the
        entry the chain will insert; a dummy chain (uniform random
        full-path access per level) otherwise, so the posmap trees see
        a fixed-rate access stream whatever the offered load.
        """
        if self._chain_pending and self.label_queue.has_room_for_real():
            request = self._chain_pending[0]
            started = self.clock()
            try:
                old_leaf, new_leaf = await self.posmap.run_real_chain(
                    request.addr, self.store, self._replicator
                )
            except BackendError as exc:
                # The posmap pinned repair labels for every pointer the
                # aborted chain left dangling; the request fails with
                # its future resolved (exactly-once), same as a failed
                # data access.
                self._chain_pending.popleft()
                self.failed_accesses += 1
                self._fail_address(request.addr, str(exc))
                raise
            self._chain_pending.popleft()
            now = self.clock()
            request.posmap_ns = now - started
            self.label_queue.insert_real(
                LabelEntry(
                    leaf=old_leaf,
                    target_addr=request.addr,
                    new_leaf=new_leaf,
                    enqueue_ns=now,
                )
            )
        else:
            try:
                await self.posmap.run_dummy_chain(self.store, self._replicator)
            except BackendError:
                self.failed_accesses += 1
                raise
        if self._replicator is not None:
            self._replicator.maybe_checkpoint(self.capture_state)

    def _maybe_compact(self) -> None:
        """Compact an append-log backend once it holds enough stale
        records (``service.compact_every_appends`` beyond the live set).

        Triggering on *staleness* rather than raw appends bounds the log
        at ``live + N`` records without re-compacting on every access
        once the append counter passes the threshold. The log-holding
        backend is found by following ``.base`` links (so a
        fault-injection wrapper around a file store still compacts).
        Compaction is data-independent — it depends only on record
        counts, which the adversary already observes.
        """
        threshold = self.config.service.compact_every_appends
        if threshold <= 0:
            return
        backend: Optional[object] = self.store.backend
        while backend is not None and not hasattr(backend, "records_appended"):
            backend = getattr(backend, "base", None)
        if backend is None:
            return
        stale = backend.records_appended - len(backend)  # type: ignore[arg-type]
        if stale >= threshold:
            backend.compact()  # type: ignore[union-attr]
            self.compactions += 1
            if self._trace:
                self.tracer.counters.inc("serve.backend.compactions")

    def _select(self, current_leaf: Optional[int], now_ns: float) -> LabelEntry:
        queue = self.label_queue
        queue.top_up(now_ns)
        if len(queue.entries) < queue.size:
            self.underfull_rounds += 1
        return queue.select_next(current_leaf, now_ns)

    # ---------------------------------------------------------------- serving

    def _serve_real(self, entry: LabelEntry) -> None:
        addr = entry.target_addr
        assert addr is not None and entry.new_leaf is not None
        request = self._inflight.pop(addr, None)
        if request is not None:
            self._apply(request, stash_leaf=entry.new_leaf)
            self._complete(request, "oram")
        else:
            # Orphaned entry: no in-flight request for this address —
            # e.g. an entry restored from a checkpoint whose client is
            # gone after failover. The position map already points at
            # ``new_leaf`` (installed at admission), so the block must
            # adopt it anyway or it is stranded under a stale label and
            # unreachable to every later access.
            self.stash.relabel(addr, entry.new_leaf)
        # Serve queued same-address requests from the stash, in order.
        waiters = self._waiters.pop(addr, None)
        if waiters:
            now = self.clock()
            for waiter in waiters:
                self._mark_scheduled(waiter, now)
                # The block's current label is the one this access just
                # installed (nothing can remap it while it is in
                # flight) — read it off the entry rather than the map,
                # which in recursive mode would need an I/O chain.
                self._apply(waiter, stash_leaf=entry.new_leaf)
                self._complete(waiter, "coalesced")

    def note_pace_wait(self, wait_ns: float) -> None:
        """Credit one pacer sleep to the engine's cumulative counter.

        The paced work loop calls this after every ``wait_for_slot``;
        requests queued across that sleep account it as their
        ``pace_wait_ns`` phase when they are eventually scheduled.
        """
        self.pace_waited_ns += wait_ns

    def _mark_scheduled(self, request: ServeRequest, now: float) -> None:
        """Stamp the scheduling time and settle the pace-wait phase.

        Every pacer sleep credited between this request's admission and
        now lies entirely inside its admitted → scheduled window (the
        work loop sleeps outside ``submit``/``run_access``), so carving
        it out of ``sched_wait_ns`` keeps the phase sum exact; the
        clamp only absorbs float rounding.
        """
        request.scheduled_ns = now
        if request.pace_mark is None:
            return
        available = (
            request.scheduled_ns
            - request.admitted_ns
            - (request.posmap_ns or 0.0)
        )
        waited = self.pace_waited_ns - request.pace_mark
        request.pace_wait_ns = min(max(waited, 0.0), max(available, 0.0))

    def _apply(self, request: ServeRequest, stash_leaf: int) -> None:
        """Apply one op against the stash-resident state of its address."""
        addr = request.addr
        stash = self.stash
        block = stash.get(addr)
        if request.op == "get":
            request.found = block is not None
            request.result = block.payload if block is not None else None  # type: ignore[assignment]
            if block is not None:
                stash.relabel(addr, stash_leaf)
        elif request.op == "put":
            request.found = block is not None
            if block is None:
                stash.add(Block(addr, stash_leaf, request.value))
            else:
                block.payload = request.value
                stash.relabel(addr, stash_leaf)
        else:  # delete
            request.found = block is not None
            stash.pop(addr)

    def _complete(self, request: ServeRequest, status: str) -> None:
        request.status = status
        now = self.clock()
        request.served_ns = now
        request.completed_ns = now
        self.completed_requests += 1
        replicator = self._replicator
        if (
            replicator is not None
            and replicator.gating
            and status != "failed"
            and request.op in ("put", "delete")
        ):
            # Checkpoint-gated acknowledgment: the mutation is applied,
            # but the response waits until a sealed checkpoint makes it
            # durable — the zero-acknowledged-write-loss guarantee.
            # Failed requests release immediately (nothing to lose).
            # Gets are never gated, so a read may observe a put whose
            # ack is still deferred — and which a failover rolls back;
            # see docs/REPLICATION.md ("Acknowledgment gating").
            replicator.defer_ack(lambda: self._release(request))
            return
        self._finalize(request)

    def _release(self, request: ServeRequest) -> None:
        """Finish a checkpoint-gated request once its state is sealed."""
        now = self.clock()
        request.durability_ns = now - request.served_ns
        request.completed_ns = now
        self._finalize(request)

    def _finalize(self, request: ServeRequest) -> None:
        status = request.status
        if self._trace:
            self.tracer.emit(
                ServiceCompleted(
                    ts_ns=request.completed_ns,
                    request_id=request.request_id,
                    session_id=request.session_id,
                    op=request.op,
                    addr=request.addr,
                    status=status,
                    latency_ns=request.latency_ns,
                    phases=request.phases(),
                    shard_id=self.shard_id,
                )
            )
            self.tracer.observe_phases(request.latency_ns, request.phases())
            self.tracer.counters.inc(f"serve.completed.{status}")
            if self.shard_id is not None:
                self.tracer.counters.inc(
                    f"cluster.shard{self.shard_id}.completed.{status}"
                )
            sessions = self._histogram_sessions
            session_id = request.session_id
            if session_id in sessions or len(sessions) < SESSION_HISTOGRAM_CAP:
                sessions.add(session_id)
                self.tracer.histogram(
                    f"serve.session.{session_id}.latency"
                ).record(request.latency_ns)
        if request.future is not None and not request.future.done():
            request.future.set_result(request)

    def _fail_address(self, addr: int, error: str) -> None:
        doomed: List[ServeRequest] = []
        request = self._inflight.pop(addr, None)
        if request is not None:
            doomed.append(request)
        waiters = self._waiters.pop(addr, None)
        if waiters:
            doomed.extend(waiters)
        now = self.clock()
        for request in doomed:
            # Keep the phase chain monotone: scheduled must cover
            # admission plus any posmap chain that already ran, even
            # though the request never reached its tree access.
            floor = request.admitted_ns + (request.posmap_ns or 0.0)
            self._mark_scheduled(
                request, max(request.scheduled_ns, floor)
            )
            request.error = error
            self._complete(request, "failed")

    # ----------------------------------------------------- durability state

    def capture_state(self) -> Dict[str, object]:
        """Snapshot the ORAM client state for a sealed checkpoint.

        Everything needed to resume the *exact* access stream is here:
        stash blocks, the position map, the full label queue — dummies
        included, because queued labels are secret until revealed and
        the recovered schedule must keep drawing from the same RNG
        stream — the revealed next entry, fork residency, and the RNG
        and cipher-counter states. In-flight request futures are *not*
        state: after failover their clients are gone; their queue
        entries are served as orphans (see :meth:`_serve_real`).
        """
        queue = self.label_queue
        entry = self._next_entry
        return {
            "format": 1,
            "stash": [
                (b.addr, b.leaf, b.payload) for b in self.stash.blocks()
            ],
            # One round-trip path for both modes: the flat map stores
            # its plain dict (the historical layout, so old checkpoints
            # keep loading); the recursive map stores root + per-level
            # stashes + repair table — O(resident), never O(N).
            "posmap": self.posmap.state_dict(),
            "queue": [
                (e.leaf, e.target_addr, e.new_leaf, e.age, e.enqueue_ns)
                for e in queue.entries
            ],
            "queue_age_bound": queue._age_bound,
            "queue_counters": (
                queue.dummies_created,
                queue.reals_inserted,
                queue.dummies_taken_over,
            ),
            "next_entry": (
                None
                if entry is None
                else (
                    entry.leaf,
                    entry.target_addr,
                    entry.new_leaf,
                    entry.age,
                    entry.enqueue_ns,
                )
            ),
            "fork_resident": list(self.fork.resident),
            "rng_state": self.rng.getstate(),
            "cipher_state": self.store.cipher.state(),
            "accesses": self.accesses,
            "real_accesses": self.real_accesses,
            "failed_accesses": self.failed_accesses,
            "completed_requests": self.completed_requests,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Load a checkpoint snapshot into a freshly built engine."""
        if state.get("format") != 1:
            raise ConfigError(
                f"unsupported checkpoint format {state.get('format')!r}"
            )
        if len(self.stash) or len(self.posmap):
            raise ConfigError("restore_state requires a fresh engine")
        self.stash.add_all(
            Block(addr, leaf, payload)
            for addr, leaf, payload in state["stash"]  # type: ignore[union-attr]
        )
        self.posmap.load_state(state["posmap"])
        queue = self.label_queue

        def _entry(fields: tuple) -> LabelEntry:
            leaf, target_addr, new_leaf, age, enqueue_ns = fields
            return LabelEntry(
                leaf=leaf,
                target_addr=target_addr,
                new_leaf=new_leaf,
                age=age,
                enqueue_ns=enqueue_ns,
            )

        queue.entries = [_entry(f) for f in state["queue"]]  # type: ignore[union-attr]
        queue._real_count = sum(1 for e in queue.entries if e.is_real)
        queue._age_bound = state["queue_age_bound"]  # type: ignore[assignment]
        (
            queue.dummies_created,
            queue.reals_inserted,
            queue.dummies_taken_over,
        ) = state["queue_counters"]  # type: ignore[misc]
        next_entry = state["next_entry"]
        self._next_entry = None if next_entry is None else _entry(next_entry)  # type: ignore[arg-type]
        self.fork.resident = list(state["fork_resident"])  # type: ignore[arg-type]
        self.fork._resident_tuple = tuple(self.fork.resident)
        self.rng.setstate(state["rng_state"])  # type: ignore[arg-type]
        self.store.cipher.restore(state["cipher_state"])
        self.accesses = state["accesses"]  # type: ignore[assignment]
        self.real_accesses = state["real_accesses"]  # type: ignore[assignment]
        self.failed_accesses = state["failed_accesses"]  # type: ignore[assignment]
        self.completed_requests = state["completed_requests"]  # type: ignore[assignment]

    def flush_durability(self) -> None:
        """Seal a checkpoint if acknowledgments are waiting (or the
        cadence is due) — the service's idle/shutdown hook, so a gated
        response can never hang on a quiet service."""
        replicator = self._replicator
        if replicator is None:
            return
        if replicator.pending_acks or replicator.checkpoint_due():
            replicator.maybe_checkpoint(self.capture_state, force=True)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        if self._replicator is not None:
            self._replicator.close()
        self.store.backend.close()


__all__ = [
    "RetryPolicy",
    "ServeRequest",
    "AsyncBucketStore",
    "ObliviousEngine",
]
