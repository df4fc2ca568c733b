"""The Fork Path ORAM controller — event-driven timing simulation.

This is the architecture of the paper's Figure 9 in executable form:

``LLC → address queue → position map → label queue → tree access``

with the stash, the merging-aware cache and the DRAM model hanging off
the access engine. One call to :meth:`ForkPathController.run` processes
tree-path accesses back to back; inside each access:

1. **read phase** — fetch the fork read set (current path minus the
   resident prefix); merging-aware-cache hits skip DRAM;
2. **serve** — the target block is found in the stash, adopts its new
   leaf, and the LLC request completes (latency recorded);
3. **schedule** — the label queue selects the next request (maximum
   path overlap, dummy-padded, aging-protected);
4. **write phase** — re-fill the current path leaf-to-fork-point,
   skipping the prefix retained for the scheduled next path. While the
   refill runs, a scheduled dummy may be taken over by a late-arriving
   real request when the Figure 5 cases allow.

The same class also models **traditional Path ORAM** — set
``SchedulerConfig(enable_merging=False, enable_scheduling=False,
label_queue_size=1)`` — so baseline and Fork Path share every other
modelling decision, which is what makes their ratios meaningful.

Request arrivals come from an :class:`ArrivalSource` (a fixed trace or
closed-loop core models), which also receives completion callbacks.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.config import SystemConfig
from repro.core.address_queue import AddressQueue
from repro.core.mac import NoCache, make_cache
from repro.core.merging import ForkState
from repro.core.metrics import ControllerMetrics
from repro.core.replacement import can_replace_dummy
from repro.core.requests import AccessRecord, LabelEntry, LlcRequest
from repro.core.scheduling import LabelQueue
from repro.extensions.plb import PosMapLookasideBuffer
from repro.dram.energy import EnergyModel
from repro.dram.model import DramModel
from repro.errors import ProtocolError
from repro.obs.events import (
    DummyTakeover,
    ForkPointChosen,
    MacHit,
    MacMiss,
    PathRead,
    PathWriteback,
    RequestAdmitted,
    RequestCompleted,
    RequestIssued,
    RequestScheduled,
    StashHighWater,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.blocks import Block, Bucket
from repro.oram.encryption import BucketCipher
from repro.oram.memory import UntrustedMemory
from repro.oram.posmap import PositionMap, RecursiveAddressSpace
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry

_INFINITY = math.inf


class ArrivalSource:
    """Interface delivering LLC requests to the controller.

    Implementations: :class:`repro.workloads.trace.TraceSource` (open
    loop) and :class:`repro.memsys.processor.CoreCluster` (closed
    loop).
    """

    def next_arrival_ns(self) -> float:
        """Earliest time a new request becomes available (inf if none
        is currently scheduled)."""
        raise NotImplementedError

    def pop_arrivals(self, now_ns: float) -> List[LlcRequest]:
        """Remove and return every request with arrival <= now."""
        raise NotImplementedError

    def on_complete(self, request: LlcRequest, now_ns: float) -> None:
        """Completion callback (closed-loop sources update state here)."""

    def exhausted(self) -> bool:
        """True once no further request will ever arrive."""
        raise NotImplementedError


class ForkPathController:
    """Timed Fork Path / Path ORAM controller over a DRAM model."""

    def __init__(
        self,
        config: SystemConfig,
        source: ArrivalSource,
        rng: Optional[random.Random] = None,
        cipher: Optional[BucketCipher] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.source = source
        self.rng = rng if rng is not None else random.Random(config.seed)
        #: Observability hooks. The shared disabled tracer is the
        #: default; every hook site is guarded by ``self._trace`` so an
        #: untraced run pays one boolean check per site and nothing else.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled

        oram = config.oram
        if config.recursion.enabled:
            self.space: Optional[RecursiveAddressSpace] = RecursiveAddressSpace(
                num_data_blocks=oram.num_blocks,
                labels_per_block=config.recursion.labels_per_block,
                label_bytes=config.recursion.label_bytes,
                onchip_bytes=config.recursion.onchip_posmap_bytes,
            )
            self.geometry = TreeGeometry.for_capacity(
                self.space.total_blocks, oram.bucket_slots, oram.utilization
            )
        else:
            self.space = None
            self.geometry = TreeGeometry(oram.levels)

        self.memory = UntrustedMemory(self.geometry, oram.bucket_slots, cipher)
        self.posmap = PositionMap(self.geometry, self.rng)
        self.stash = Stash(self.geometry, oram.stash_capacity)
        self.fork = ForkState(self.geometry, enabled=config.scheduler.enable_merging)
        self.label_queue = LabelQueue(
            self.geometry, config.scheduler, self.rng, tracer=self.tracer
        )
        # Static super blocks: all blocks of a group share a leaf, so
        # in-flight exclusivity must hold per group (data addresses
        # only; internal PosMap addresses stay ungrouped).
        if oram.super_block_log2 > 0:
            data_blocks = oram.num_blocks

            def hazard_key(addr: int) -> int:
                if addr < data_blocks:
                    return oram.group_of(addr)
                return addr

            self.address_queue = AddressQueue(config.scheduler, hazard_key)
        else:
            self.address_queue = AddressQueue(config.scheduler)
        self.cache = make_cache(
            config.cache, oram, self.geometry, config.scheduler.label_queue_size
        )
        #: With no ORAM data cache the per-level coverage probes can be
        #: skipped wholesale — the common timing-experiment configuration.
        self._no_cache = isinstance(self.cache, NoCache)
        self.energy = EnergyModel(channels=config.dram.channels)
        self.dram = DramModel(
            self.geometry,
            config.dram,
            oram.bucket_bytes,
            self.energy,
            tracer=self.tracer,
        )
        self.metrics = ControllerMetrics()
        self.plb: Optional[PosMapLookasideBuffer] = None
        if config.recursion.enabled and config.recursion.plb_entries > 0:
            self.plb = PosMapLookasideBuffer(config.recursion.plb_entries)

        # Per-access config scalars, resolved once — the config is not
        # mutated after construction.
        self._issue_period_ns = config.issue_period_ns
        self._idle_gap_ns = config.idle_gap_ns
        self._bucket_slots = oram.bucket_slots
        self._allow_takeover = config.scheduler.enable_dummy_replacing

        self.clock_ns = 0.0
        self.current_leaf: Optional[int] = None
        #: Entry already selected as the next access (scheduled during
        #: the previous access's write phase).
        self._next_entry: Optional[LabelEntry] = None
        self._written_addrs: set[int] = set()
        #: Scratch buffer for the read phase's DRAM node list, reused
        #: across accesses to avoid per-access allocation.
        self._dram_nodes_scratch: List[int] = []
        #: Persistent stash occupancy high-water mark (tracing only).
        self._stash_high_water = 0

    # ------------------------------------------------------------- run loop

    def run(
        self,
        max_requests: Optional[int] = None,
        max_time_ns: Optional[float] = None,
        max_accesses: Optional[int] = None,
    ) -> ControllerMetrics:
        """Process accesses until the workload drains or a cap is hit."""
        while True:
            self._admit(self.clock_ns)
            if max_requests is not None and self.metrics.real_completed >= max_requests:
                break
            if max_time_ns is not None and self.clock_ns >= max_time_ns:
                break
            if max_accesses is not None and self.metrics.total_accesses >= max_accesses:
                break
            if not self._has_pending_real_work():
                if self.source.exhausted():
                    break
                next_arrival = self.source.next_arrival_ns()
                if next_arrival == _INFINITY:
                    break
                if next_arrival > self.clock_ns and not self.config.nonstop:
                    self.clock_ns = next_arrival
                    continue
            self._process_one_access()
        self.metrics.end_time_ns = self.clock_ns
        self.energy.account_background(self.clock_ns)
        return self.metrics

    def _has_pending_real_work(self) -> bool:
        return (
            not self.address_queue.is_empty()
            or self.address_queue.has_inflight()
            or (
                self._next_entry is not None
                and self._next_entry.target_addr is not None
            )
        )

    # ------------------------------------------------------------ admission

    def _admit(self, now_ns: float) -> None:
        """Pull arrivals into the address queue and drain issuable
        requests into the label queue — "as soon as possible" (§3.4)."""
        progressed = True
        while progressed:
            progressed = False
            for request in self.source.pop_arrivals(now_ns):
                self._submit(request, now_ns)
                progressed = True
            while self.label_queue.has_room_for_real():
                request = self.address_queue.pop_issuable()
                if request is None:
                    break
                self._issue(request, now_ns)
                progressed = True

    def _submit(self, request: LlcRequest, now_ns: float) -> None:
        """One request arrives at the controller boundary."""
        if self._trace and request.kind == "data":
            self.tracer.counters.inc("requests.admitted")
            self.tracer.emit(
                RequestAdmitted(
                    ts_ns=now_ns,
                    request_id=request.request_id,
                    addr=request.addr,
                    is_write=request.is_write,
                    core_id=request.core_id,
                )
            )
        queued, completed_now = self.address_queue.push(request, now_ns)
        for done in completed_now:
            self._propagate_completion(done, now_ns)
        if not queued:
            return
        if request.ready and request.ready_ns is None:
            # Requests with no PosMap chain are posmap-ready on arrival
            # (chained requests get theirs in _advance_chain).
            request.ready_ns = now_ns
        if (
            self.space is not None
            and self.space.depth > 0
            and request.kind == "data"
        ):
            # With super blocks the PosMap is indexed by group, so the
            # chain serves the group's label entry.
            chain = self.space.chain_for(self._posmap_key(request.addr))
            if self.plb is not None:
                # Freecursive PLB: skip chain levels whose PosMap block
                # is still on chip.
                chain = self.plb.plan_chain(chain)
            posmap_part = chain[:-1]
            if not posmap_part:
                return  # whole PosMap chain short-circuited by the PLB
            # The data request waits while its PosMap chain runs.
            request.ready = False
            request.ready_ns = None
            first = LlcRequest(
                addr=posmap_part[0],
                is_write=False,
                arrival_ns=now_ns,
                core_id=request.core_id,
                kind="posmap",
                parent=request,
                chain_rest=posmap_part[1:],
            )
            self._submit(first, now_ns)

    def _issue(self, request: LlcRequest, now_ns: float) -> None:
        """Address queue → position map → label queue (or an on-chip
        hit that completes the request outright)."""
        addr = request.addr
        request.issue_ns = now_ns
        block = self.stash.get(addr)
        if block is not None:
            self._finish_with_block(request, block, now_ns, "stash")
            return
        block = self.cache.take_block(addr)
        if block is not None:
            self.energy.on_cache_access()
            self.stash.add(block)
            self._finish_with_block(request, block, now_ns, "cache")
            return
        old_leaf, new_leaf = self.posmap.remap(self._posmap_key(addr))
        self.energy.on_controller_op()
        entry = LabelEntry(
            leaf=old_leaf,
            target_addr=addr,
            new_leaf=new_leaf,
            request=request,
            enqueue_ns=now_ns,
        )
        self.label_queue.insert_real(entry)
        if self._trace:
            self.tracer.counters.inc("requests.issued")
            self.tracer.emit(
                RequestIssued(
                    ts_ns=now_ns,
                    request_id=request.request_id,
                    addr=addr,
                    leaf=old_leaf,
                )
            )

    def _posmap_key(self, addr: int) -> int:
        """Position-map index: the super-block id for grouped data
        addresses, the address itself otherwise."""
        oram = self.config.oram
        if oram.super_block_log2 > 0 and addr < oram.num_blocks:
            return oram.group_of(addr)
        return addr

    # ------------------------------------------------------------ completion

    def _finish_with_block(
        self, request: LlcRequest, block: Block, now_ns: float, via: str
    ) -> None:
        """Complete a request whose block is on chip."""
        if request.is_write:
            block.payload = request.payload
            self._written_addrs.add(request.addr)
        elif self.config.strict and request.kind == "data":
            if request.addr not in self._written_addrs:
                raise ProtocolError(
                    f"strict mode: read of never-written address {request.addr}"
                )
        request.value = block.payload
        request.complete_ns = now_ns
        request.served_by = via
        self._propagate_completion(request, now_ns)

    def _propagate_completion(self, request: LlcRequest, now_ns: float) -> None:
        """Book-keep one completed request and everything it unblocks."""
        if request.kind == "posmap":
            self._advance_chain(request, now_ns)
        else:
            self.metrics.on_request_complete(
                now_ns - request.arrival_ns, request.served_by
            )
            self.source.on_complete(request, now_ns)
            if self._trace:
                self._emit_completion(request, now_ns)
        for waiter in self.address_queue.on_complete(request):
            if waiter.served_by == "group":
                # Super-block sibling: the primary's path load brought
                # the whole group into the stash — serve from there.
                block = self.stash.get(waiter.addr)
                if block is None:
                    block = self.cache.take_block(waiter.addr)
                    if block is not None:
                        self.stash.add(block)
                if block is None and waiter.addr in self._written_addrs:
                    # The sibling exists but is not on chip (the primary
                    # completed without a path load): give the waiter
                    # its own access instead of a wrong answer.
                    waiter.served_by = ""
                    self._submit(waiter, now_ns)
                    continue
                waiter.value = block.payload if block is not None else None
            else:
                waiter.value = request.value
            waiter.complete_ns = now_ns
            self._propagate_completion(waiter, now_ns)

    def _emit_completion(self, request: LlcRequest, now_ns: float) -> None:
        """Emit the completion event with its per-phase breakdown.

        The phases are deltas of the monotone timestamp chain
        ``arrival <= ready <= issue <= schedule <= complete``; stages a
        request skipped (e.g. a coalesced read is never issued) collapse
        to the completion time, so the components always partition the
        end-to-end latency.
        """
        t0 = request.arrival_ns
        t1 = request.ready_ns if request.ready_ns is not None else t0
        t2 = request.issue_ns if request.issue_ns is not None else now_ns
        t3 = request.schedule_ns if request.schedule_ns is not None else now_ns
        phases = {
            "posmap_ns": t1 - t0,
            "queue_wait_ns": t2 - t1,
            "sched_wait_ns": t3 - t2,
            "service_ns": now_ns - t3,
        }
        tracer = self.tracer
        tracer.counters.inc("requests.completed")
        via = request.served_by or "unknown"
        tracer.counters.inc(f"requests.served.{via}")
        tracer.observe_phases(now_ns - t0, phases)
        tracer.emit(
            RequestCompleted(
                ts_ns=now_ns,
                request_id=request.request_id,
                addr=request.addr,
                served_by=via,
                latency_ns=now_ns - t0,
                phases=phases,
            )
        )

    def _advance_chain(self, posmap_request: LlcRequest, now_ns: float) -> None:
        if self.plb is not None:
            self.plb.insert(posmap_request.addr)
        parent = posmap_request.parent
        if parent is None:
            raise ProtocolError("posmap request without a parent")
        if parent.complete_ns is not None:
            return  # parent was cancelled (WAW) while the chain ran
        if posmap_request.chain_rest:
            follow = LlcRequest(
                addr=posmap_request.chain_rest[0],
                is_write=False,
                arrival_ns=now_ns,
                core_id=parent.core_id,
                kind="posmap",
                parent=parent,
                chain_rest=posmap_request.chain_rest[1:],
            )
            self._submit(follow, now_ns)
        else:
            parent.ready = True
            parent.ready_ns = now_ns

    # ----------------------------------------------------------- the access

    def _process_one_access(self) -> None:
        period = self._issue_period_ns
        if period > 0.0:
            # Static timing protection: access start times sit on a
            # fixed grid, independent of the data (Figure 1c).
            slots = int(self.clock_ns // period)
            if self.clock_ns > slots * period:
                slots += 1
            self.clock_ns = slots * period
            self._admit(self.clock_ns)
        entry = self._next_entry
        self._next_entry = None
        if entry is None:  # bootstrap: nothing was pre-scheduled
            entry = self.label_queue.select_next(self.current_leaf, self.clock_ns)
        leaf = entry.leaf
        record = AccessRecord(leaf=leaf, was_dummy=entry.target_addr is None)
        trace = self._trace
        if trace:
            self.tracer.counters.inc(
                "accesses.dummy" if entry.target_addr is None else "accesses.real"
            )
            if entry.request is not None:
                entry.request.schedule_ns = self.clock_ns
                self.tracer.emit(
                    RequestScheduled(
                        ts_ns=self.clock_ns,
                        request_id=entry.request.request_id,
                        addr=entry.request.addr,
                        leaf=leaf,
                        queue_wait_ns=self.clock_ns - entry.enqueue_ns,
                    )
                )

        # ---- read phase: fetch the non-resident part of the path.
        record.read_start_ns = self.clock_ns
        read_nodes = self.fork.read_set(leaf)
        no_cache = self._no_cache
        if no_cache:
            # Without an ORAM data cache every read-set node goes to
            # DRAM — skip the per-node coverage probes entirely.
            dram_nodes = read_nodes
        else:
            dram_nodes = self._dram_nodes_scratch
            dram_nodes.clear()
            covers_level = self.cache.covers_level
            for node_id in read_nodes:
                level = (node_id + 1).bit_length() - 1
                fetched = None
                if covers_level(level):
                    self.energy.on_cache_access()
                    fetched = self.cache.lookup_bucket(node_id)
                    if trace:
                        if fetched is not None:
                            self.tracer.counters.inc("cache.read_hits")
                            self.tracer.emit(
                                MacHit(
                                    ts_ns=self.clock_ns,
                                    node_id=node_id,
                                    level=level,
                                )
                            )
                        else:
                            self.tracer.counters.inc("cache.read_misses")
                            self.tracer.emit(
                                MacMiss(
                                    ts_ns=self.clock_ns,
                                    node_id=node_id,
                                    level=level,
                                )
                            )
                if fetched is not None:
                    self.stash.add_all(fetched.take_all())
                    record.cache_read_hits += 1
                else:
                    dram_nodes.append(node_id)
        read_end = self.clock_ns
        if dram_nodes:
            read_end = self.dram.access_many(dram_nodes, False, self.clock_ns)
            # Memory-side (adversary-visible) timestamps carry the DRAM
            # completion time of the burst, matching the timing model.
            self.stash.add_all(
                self.memory.read_many_blocks(dram_nodes, read_end)
            )
        record.read_nodes = len(read_nodes)
        record.dram_read_nodes = len(dram_nodes)
        record.read_end_ns = read_end
        self.clock_ns = read_end
        if trace:
            self.tracer.emit(
                PathRead(
                    ts_ns=read_end,
                    leaf=leaf,
                    nodes=len(read_nodes),
                    dram_nodes=len(dram_nodes),
                    cache_hits=record.cache_read_hits,
                    start_ns=record.read_start_ns,
                    end_ns=read_end,
                )
            )

        # ---- serve the request this access was for.
        if entry.target_addr is not None:  # real
            self._serve_entry(entry)

        self.clock_ns += self._idle_gap_ns
        self._admit(self.clock_ns)

        # ---- schedule the next access (defines the fork point).
        next_entry = self.label_queue.select_next(leaf, self.clock_ns)
        scheduled_at = self.clock_ns

        # ---- write phase: refill leaf -> fork point, with takeover.
        # The refill walks ``level`` from the leaf down-counting toward
        # the fork point — an integer countdown, no per-access deque.
        retain = self.fork.retain_depth(leaf, next_entry.leaf)
        if trace:
            self.tracer.emit(
                ForkPointChosen(
                    ts_ns=scheduled_at,
                    leaf=leaf,
                    next_leaf=next_entry.leaf,
                    retain_depth=retain,
                    next_is_real=next_entry.target_addr is not None,
                )
            )
        record.write_start_ns = self.clock_ns
        finish = self.clock_ns
        geometry = self.geometry
        lowest_written = geometry.levels + 1
        z = self._bucket_slots
        allow_takeover = self._allow_takeover
        path = geometry.path_tuple(leaf)
        stash = self.stash
        # Bypass the indexed/scan dispatch layer — rebound every access
        # so differential tests may still toggle ``stash.indexed``.
        collect_for_node = (
            stash._collect_indexed if stash.indexed else stash._collect_scan
        )
        write_blocks = self.memory.write_blocks
        dram_access = self.dram.access
        covers_level = self.cache.covers_level
        written_nodes = 0
        dram_written_nodes = 0
        level = geometry.levels
        if (
            no_cache
            and level >= retain
            and not (allow_takeover and next_entry.target_addr is None)
        ):
            # Segment refill: when the next scheduled access is real, no
            # dummy takeover can interrupt the countdown (the per-node
            # loop's mid-refill _admit/_find_replacement only run when
            # the next entry is a dummy), so the whole segment collapses
            # into one eviction sweep, one chained DRAM walk and one
            # memory write batch — identical events, times and counters.
            nodes = path[retain : level + 1][::-1]
            block_lists = stash.collect_path(leaf, retain, z)
            issue_times, finish = self.dram.access_chain(nodes, finish)
            self.memory.write_many_blocks(nodes, block_lists, issue_times)
            written_nodes = len(nodes)
            dram_written_nodes = written_nodes
            lowest_written = retain
            level = retain - 1
        while level >= retain:
            node_id = path[level]
            # collect_for_node honours the z cap, so the list can back
            # the written bucket directly — no per-block validation.
            blocks = collect_for_node(leaf, level, z)
            written_nodes += 1
            if no_cache:
                write_blocks(node_id, blocks, finish)
                finish = dram_access(node_id, True, finish)
                dram_written_nodes += 1
            elif covers_level(level):
                self.energy.on_cache_access()
                for victim_node, victim_bucket in self.cache.insert_bucket(
                    node_id, Bucket.of(z, blocks)
                ):
                    # Capacity-eviction write-backs drain through a
                    # write buffer: they occupy channel bandwidth (the
                    # DRAM model serialises them per channel) but do
                    # not extend this refill's critical path.
                    self.memory.write_bucket(victim_node, victim_bucket, finish)
                    dram_access(victim_node, True, finish)
                    dram_written_nodes += 1
            else:
                write_blocks(node_id, blocks, finish)
                finish = dram_access(node_id, True, finish)
                dram_written_nodes += 1
            lowest_written = level
            level -= 1

            if level >= retain and allow_takeover and next_entry.target_addr is None:
                self._admit(finish)
                replacement = self._find_replacement(
                    leaf, lowest_written, record.write_start_ns
                )
                if replacement is not None:
                    if trace:
                        self.tracer.counters.inc("scheduler.dummy_takeovers")
                        self.tracer.emit(
                            DummyTakeover(
                                ts_ns=finish,
                                dummy_leaf=next_entry.leaf,
                                real_leaf=replacement.leaf,
                                at_level=lowest_written,
                            )
                        )
                    next_entry = replacement
                    record.replaced_dummy = True
                    retain = self.fork.retain_depth(leaf, replacement.leaf)
                    if trace:
                        # The fork point moved: re-announce it so the
                        # trace reflects the path actually retained.
                        self.tracer.emit(
                            ForkPointChosen(
                                ts_ns=finish,
                                leaf=leaf,
                                next_leaf=replacement.leaf,
                                retain_depth=retain,
                                next_is_real=True,
                            )
                        )
                    level = lowest_written - 1

        self.clock_ns = max(self.clock_ns, finish)
        record.written_nodes = written_nodes
        record.dram_written_nodes = dram_written_nodes
        record.write_end_ns = self.clock_ns
        record.retained_depth = retain
        self.fork.commit_write(leaf, retain)
        occupancy = self.stash.sample_occupancy()
        self.stash.check_persistent_occupancy(slack=z * retain)
        self.metrics.on_access(record)
        if trace:
            tracer = self.tracer
            tracer.emit(
                PathWriteback(
                    ts_ns=record.write_end_ns,
                    leaf=leaf,
                    written_nodes=written_nodes,
                    dram_nodes=dram_written_nodes,
                    retained_depth=retain,
                    start_ns=record.write_start_ns,
                    end_ns=record.write_end_ns,
                )
            )
            if occupancy > self._stash_high_water:
                self._stash_high_water = occupancy
                tracer.emit(
                    StashHighWater(
                        ts_ns=record.write_end_ns, occupancy=occupancy
                    )
                )
            tracer.timeline_probe(
                self.clock_ns,
                stash_blocks=occupancy,
                queue_real=self.label_queue.pending_real,
                queue_fill=len(self.label_queue),
                overlap_depth=retain,
            )
        self.clock_ns += self._idle_gap_ns
        self.current_leaf = leaf
        self._next_entry = next_entry

    def _serve_entry(self, entry: LabelEntry) -> None:
        """The target block is now in the stash: adopt the new leaf and
        complete the owning request."""
        addr = entry.target_addr
        assert addr is not None and entry.new_leaf is not None
        block = self.stash.get(addr)
        if block is None:
            # First-ever touch of this address: materialise the block.
            block = Block(addr, entry.leaf, None)
            self.stash.add(block)
        self.stash.relabel(addr, entry.new_leaf)
        # Static super blocks: every group sibling rides the same leaf;
        # siblings just loaded into the stash adopt the new label too
        # (they must stay co-located for the shared PosMap entry).
        oram = self.config.oram
        if oram.super_block_log2 > 0 and addr < oram.num_blocks:
            base = oram.group_base(addr)
            for sibling in range(base, base + oram.super_block_size):
                self.stash.relabel(sibling, entry.new_leaf)
        request = entry.request
        if request is None:
            raise ProtocolError("real label entry without a request")
        request.served_by = "oram"
        self._finish_with_block(request, block, self.clock_ns, "oram")

    def _find_replacement(
        self, current_leaf: int, lowest_written: int, write_start_ns: float
    ) -> Optional[LabelEntry]:
        """Best takeover candidate for a scheduled dummy (Figure 5).

        With the default ``replacement_scope="queue"``, any queued real
        request qualifies while the Case-3 condition holds for its fork
        point — the pending dummy has not been revealed, so the swap is
        invisible (the paper's Section 3.6 argument). Without this, a
        real that once lost the overlap contest could trail an idle
        system's dummy stream for tens of accesses. The paper-literal
        ``"arrival"`` scope admits only requests that arrived during
        the current write phase (Algorithm 1's incoming-request swap).
        """
        arrival_scope = self.config.scheduler.replacement_scope == "arrival"
        best: Optional[LabelEntry] = None
        best_overlap = -1
        for candidate in self.label_queue.entries:
            if not candidate.is_real:
                continue
            if arrival_scope and candidate.enqueue_ns <= write_start_ns:
                continue
            if not can_replace_dummy(
                self.geometry,
                current_leaf,
                candidate.leaf,
                lowest_written,
                refill_done=False,
            ):
                continue
            overlap = self.geometry.divergence_level(current_leaf, candidate.leaf)
            if overlap > best_overlap:
                best_overlap = overlap
                best = candidate
        if best is not None:
            self.label_queue.entries.remove(best)
        return best

    # ------------------------------------------------------------ inspection

    def pending_real_requests(self) -> int:
        return self.label_queue.real_count() + len(self.address_queue)
