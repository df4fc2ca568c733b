"""The oblivious cross-shard dispatcher.

Each shard is a fully independent fork-path ORAM — its own tree, stash,
position map, dummy-padded label queue and storage backend — sized for
its slice of the address space
(:func:`~repro.cluster.partition.shard_identity`) and reached through a
:class:`~repro.serve.lane.Lane`: an in-process
:class:`~repro.serve.lane.EngineLane` (:func:`local_shard_lanes`) or a
:class:`~repro.cluster.worker.WorkerHandle` onto a worker process.

The :class:`ShardRouter` drives the lanes on a **fixed,
data-independent dispatch schedule**: work proceeds in rounds, and
every round visits every shard exactly once, in shard order, executing
exactly one (possibly dummy) tree access per visit. A shard with no
real work still takes its turn — the engine's label queue pads it with
a dummy access — so after ``r`` rounds every shard has performed
exactly ``r`` accesses regardless of where real traffic landed. The
adversary's cross-shard view (which shard's backend is touched when,
and which buckets) is therefore a function of public randomness only;
``repro.security.cluster`` verifies this by reconstructing the
interleaved trace from the public leaf labels alone.

Two dispatch policies share that schedule and differ only in wall-clock
overlap (see :class:`~repro.config.ClusterConfig`): ``"rr"`` awaits
each shard's access before starting the next (a strictly sequential
interleaving, exactly reconstructible), ``"parallel"`` issues the whole
round concurrently and barriers on round completion — over worker
processes that is real parallelism, K engines on K cores.

The router itself satisfies the lane surface (its turn is one round),
so the front end's one turn loop drives a cluster exactly as it drives
a single engine.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ConfigError, ProtocolError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.encryption import BucketCipher
from repro.oram.memory import TraceRecorder
from repro.replica.replicator import Replicator
from repro.serve.backends import StorageBackend
from repro.serve.engine import ServeRequest
from repro.serve.lane import EngineLane, ShardLane

from repro.cluster.partition import AddressPartitioner, shard_identity

#: Most recent shard visits kept on the router (deque maxlen).
VISIT_LOG_CAPACITY = 1 << 16


def local_shard_lanes(
    config: SystemConfig,
    cipher: Optional[BucketCipher] = None,
    tracer: Optional[Tracer] = None,
    clock: Optional[Callable[[], float]] = None,
    backends: Optional[Sequence[Optional[StorageBackend]]] = None,
    traces: Optional[Sequence[Optional[TraceRecorder]]] = None,
) -> List[EngineLane]:
    """One in-process lane per shard, each under its own identity."""
    shards = config.cluster.shards
    if backends is not None and len(backends) != shards:
        raise ConfigError(f"got {len(backends)} backends for {shards} shards")
    if traces is not None and len(traces) != shards:
        raise ConfigError(
            f"got {len(traces)} trace recorders for {shards} shards"
        )
    lanes = []
    for shard in range(shards):
        identity = shard_identity(config, shard)
        lanes.append(
            EngineLane(
                identity.config,
                backend=backends[shard] if backends is not None else None,
                cipher=cipher,
                tracer=tracer,
                clock=clock,
                trace=traces[shard] if traces is not None else None,
                shard_id=shard,
                salt=identity.salt,
            )
        )
    return lanes


class ShardRouter:
    """The cluster's dispatcher: K lanes on one fixed visit schedule."""

    def __init__(
        self,
        config: SystemConfig,
        lanes: Sequence[ShardLane],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        cluster = config.cluster
        self.dispatch = cluster.dispatch
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self.partitioner = AddressPartitioner(
            config.oram.num_blocks, cluster.shards
        )
        if len(lanes) != cluster.shards:
            raise ConfigError(
                f"got {len(lanes)} lanes for {cluster.shards} shards"
            )
        #: The lanes in shard order — ``handles`` is the same list under
        #: the name callers of a process cluster use.
        self.workers = self.handles = list(lanes)
        self.rounds = 0
        #: Turns an unavailable lane (worker mid-restart) did not run.
        self.turn_failures = 0
        #: Shard ids in visit order — the public visit sequence
        #: (bounded; only the most recent visits are kept).
        self.visit_log: Deque[int] = deque(maxlen=VISIT_LOG_CAPACITY)

    # -------------------------------------------------------------- dispatch

    async def admit(self, request: ServeRequest) -> None:
        """Translate a global-address request and queue it on its shard.

        The shard choice is forced by the public striping function —
        the router never *decides* where traffic goes, so admission
        carries no routing information beyond the address itself.
        """
        shard, local = self.partitioner.locate(request.addr)
        request.addr = local
        await self.workers[shard].admit(request)

    def drain(self) -> None:
        for lane in self.workers:
            lane.drain()

    async def _visit(self, lane: ShardLane) -> None:
        """One shard's turn: drain (again — requests may have been
        admitted while earlier shards ran), then one access. An
        unavailable lane (``ProtocolError``: a worker process
        mid-restart) does not derail the round — the schedule is public
        and fixed, not reactive, so the failure is counted and the
        visit stands."""
        lane.drain()
        try:
            await lane.run_turn()
        except ProtocolError:
            self.turn_failures += 1
            if self._trace:
                self.tracer.counters.inc("cluster.turn_failures")

    async def run_round(self) -> None:
        """One dispatch round: every shard, fixed order, one access each.

        A shard's failure must not falsify the public record of the
        shards that *did* execute their access: completed visits are
        logged and counted before any exception propagates, so
        ``visit_log``/``rounds`` always describe the executed schedule
        (the error re-raises afterwards for the caller to handle).
        """
        visited: List[int] = []
        error: Optional[BaseException] = None
        if self.dispatch == "rr":
            for lane in self.workers:
                try:
                    await self._visit(lane)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    error = exc
                    break
                visited.append(lane.shard_id)
        else:  # "parallel": same schedule, rounds overlap in wall time
            results = await asyncio.gather(
                *(self._visit(lane) for lane in self.workers),
                return_exceptions=True,
            )
            for lane, result in zip(self.workers, results):
                if isinstance(result, BaseException):
                    if error is None:
                        error = result
                else:
                    visited.append(lane.shard_id)
        self.visit_log.extend(visited)
        self.rounds += 1
        if self._trace:
            self.tracer.counters.inc("cluster.rounds")
            self.tracer.counters.inc("cluster.accesses", len(visited))
        if error is not None:
            raise error

    #: The lane surface's name for it: the router's turn is one round.
    run_turn = run_round

    def note_pace_wait(self, wait_ns: float) -> None:
        """Credit one pacer sleep to every shard.

        The paced loop sleeps once per dispatch round and the round
        visits every shard, so the same wait covers all K per-shard
        timelines — keeping them synchronized is precisely the point
        of pacing at the round level.
        """
        for lane in self.workers:
            lane.note_pace_wait(wait_ns)

    # --------------------------------------------------------------- queries

    def has_pending_real(self) -> bool:
        return any(lane.has_pending_real() for lane in self.workers)

    def replicator_for(self, shard_id: int) -> Optional[Replicator]:
        """The WAL source of one shard (None when out of range,
        replication is disabled, or the shard's replicator lives in
        its worker process)."""
        if not 0 <= shard_id < len(self.workers):
            return None
        return self.workers[shard_id].replicator

    def flush_durability(self) -> None:
        """Seal due/gating checkpoints on every shard (idle moments)."""
        for lane in self.workers:
            lane.flush_durability()

    def pending(self) -> int:
        return sum(lane.pending() for lane in self.workers)

    def total_accesses(self) -> int:
        return sum(lane.accesses for lane in self.workers)

    async def stats(self) -> List[Dict[str, object]]:
        """Per-shard health counters (health checks, benchmarks)."""
        return list(
            await asyncio.gather(*(lane.stats() for lane in self.workers))
        )

    def close(self) -> None:
        for lane in self.workers:
            lane.close()


__all__ = ["ShardRouter", "local_shard_lanes", "VISIT_LOG_CAPACITY"]
