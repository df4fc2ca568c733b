"""Benchmark-owned probes: span tracer, layer hooks, counting backends.

Everything the ledger observes about the program is observed from here,
by wrapping calls into each layer's entry points — the program itself
carries no ledger code. Two kinds of probe exist:

* **always on** (both passes): the counting storage backends below, two
  integer adds per batch call, which give ``buckets_per_op`` at the
  storage boundary;
* **traced pass only**: :class:`SpanTracer` plus the wrappers
  :func:`install_hooks` puts around the functions listed in
  :data:`HOOKS`. The untraced pass runs the unmodified program.

Time accounting is a partition, not a sum of overlapping spans: at any
instant exactly one bucket is charged — the innermost *running* span's
layer, ``idle`` while the event loop blocks in ``select``, or the
remainder when no span runs (loop machinery, socket transports). The
buckets therefore add up to the traced wall exactly. A coroutine span
is charged only while it runs; the time it spends suspended is reported
separately as that layer's awaited wall (``serve.backends.wait``).
"""

from __future__ import annotations

import asyncio
import contextvars
import importlib
import itertools
import json
import random
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransientBackendError
from repro.serve.backends import FileBackend, InMemoryBackend

_now = time.perf_counter_ns

#: Span at the root of the current task (-1 = none); asyncio copies the
#: context into tasks it spawns, so a backend call that ``wait_for``
#: moves into its own task still knows the access that caused it.
_task_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
    "ledger_task_parent", default=-1
)

IDLE = "loop.idle"
#: The tracer's own bookkeeping inside enter/exit, charged to a bucket
#: of its own so it inflates no layer (always layer id 0).
OVERHEAD = "trace.overhead"
OVERHEAD_ID = 0


class SpanTracer:
    """In-memory span store with exclusive (self) time per layer."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Exclusive running time per layer id.
        self.self_ns: List[int] = []
        #: Free-form integer counters and running maxima set by probes.
        self.counters: Dict[str, int] = {}
        # Span columns; index = span id.
        self.s_layer = array("h")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_op = array("q")
        #: Operation id stamped on new spans (set by root wrappers).
        self.op = -1
        #: Time with no span running and the loop not blocked in select.
        self.remainder_ns = 0
        #: The timed window's spans are ``[first, last)``.
        self.window_first_span = self.window_last_span = 0
        self.window_start_ns = self.window_end_ns = _now()
        #: HOOKS entries whose attribute no longer exists.
        self.missing_hooks: List[str] = []
        assert self.layer(OVERHEAD) == OVERHEAD_ID
        self._build_hot_path()
        self.idle_id = self.layer(IDLE)

    def layer(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_ns.append(0)
        return ident

    # ---------------------------------------------------------- accounting

    def _build_hot_path(self) -> None:
        """``enter``/``exit``/``pause``/``resume`` as closures: they run
        twice per span, and closure cells are cheaper than attributes.

        Every one of them first charges the time since the previous
        event to whoever was running (top of the stack, else the
        remainder), then its own bookkeeping to ``trace.overhead`` —
        that is what makes the buckets a partition.
        """
        now_ns = _now
        self_ns = self.self_ns
        stack: List[int] = []  # running spans, innermost last
        running: List[int] = []  # their layers, in step
        push, pop = stack.append, stack.pop
        push_layer, pop_layer = running.append, running.pop
        add_layer, add_start = self.s_layer.append, self.s_start.append
        add_end, add_parent = self.s_end.append, self.s_parent.append
        add_op = self.s_op.append
        s_start, s_end = self.s_start, self.s_end
        task_parent = _task_parent.get
        last = now_ns()

        def enter(layer: int) -> int:
            nonlocal last
            now = now_ns()
            if running:
                self_ns[running[-1]] += now - last
                add_parent(stack[-1])
            else:
                self.remainder_ns += now - last
                add_parent(task_parent())
            index = len(s_start)
            add_layer(layer)
            add_start(now)
            add_end(0)
            add_op(self.op)
            push(index)
            push_layer(layer)
            last = now_ns()
            self_ns[OVERHEAD_ID] += last - now
            return index

        def leave(index: int) -> None:
            nonlocal last
            now = now_ns()
            self_ns[pop_layer()] += now - last
            assert pop() == index, "span stack out of order"
            s_end[index] = now
            last = now_ns()
            self_ns[OVERHEAD_ID] += last - now

        def pause(index: int) -> None:
            nonlocal last
            now = now_ns()
            self_ns[pop_layer()] += now - last
            assert pop() == index, "span stack out of order"
            last = now_ns()
            self_ns[OVERHEAD_ID] += last - now

        def resume(index: int, layer: int) -> None:
            nonlocal last
            now = now_ns()
            if running:
                self_ns[running[-1]] += now - last
            else:
                self.remainder_ns += now - last
            push(index)
            push_layer(layer)
            last = now_ns()
            self_ns[OVERHEAD_ID] += last - now

        def wrap_sync(
            name: str, fn: Callable, probe: Optional[Callable] = None
        ) -> Callable:
            """Span around a plain function. ``probe(tracer, index, args,
            result)`` runs after a successful call, on the tracer's time.

            ``enter`` and ``leave`` are repeated inline: every call saved
            here is time that would otherwise be charged to the layers
            (the caller's up to the first clock read, the callee's after
            the last), and most spans are this kind.
            """
            layer = self.layer(name)

            def traced(*args, **kwargs):
                nonlocal last
                now = now_ns()
                if running:
                    self_ns[running[-1]] += now - last
                    add_parent(stack[-1])
                else:
                    self.remainder_ns += now - last
                    add_parent(task_parent())
                index = len(s_start)
                add_layer(layer)
                add_start(now)
                add_end(0)
                add_op(self.op)
                push(index)
                push_layer(layer)
                last = now_ns()
                self_ns[OVERHEAD_ID] += last - now
                try:
                    result = fn(*args, **kwargs)
                    if probe is not None:
                        now = now_ns()
                        self_ns[layer] += now - last
                        probe(self, index, args, result)
                        last = now_ns()
                        self_ns[OVERHEAD_ID] += last - now
                    return result
                finally:
                    now = now_ns()
                    self_ns[pop_layer()] += now - last
                    assert pop() == index, "span stack out of order"
                    s_end[index] = now
                    last = now_ns()
                    self_ns[OVERHEAD_ID] += last - now

            traced.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced

        def begin_window() -> None:
            nonlocal last
            last = now_ns()
            self.window_start_ns = last
            self.window_first_span = len(s_start)
            self.remainder_ns = 0
            self.counters.clear()
            for ident in range(len(self_ns)):
                self_ns[ident] = 0

        def end_window() -> "WindowTotals":
            nonlocal last
            now = now_ns()
            if running:
                self_ns[running[-1]] += now - last
            else:
                self.remainder_ns += now - last
            last = now
            self.window_end_ns = now
            self.window_last_span = len(s_start)
            return WindowTotals(self)

        self.enter, self.exit = enter, leave
        self.wrap_sync = wrap_sync
        self._pause, self._resume = pause, resume
        #: Zero the accumulators: the timed window starts now.
        self.begin_window = begin_window
        #: Close the window and snapshot its accounting.
        self.end_window = end_window

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def high_water(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # ------------------------------------------------------------ wrappers

    def wrap_async(
        self,
        name: str,
        fn: Callable,
        probe: Optional[Callable] = None,
    ) -> Callable:
        """Span around a coroutine function, charged only while it runs."""
        layer = self.layer(name)

        async def traced(*args, **kwargs):
            result = await self._drive(layer, fn(*args, **kwargs))
            if probe is not None:
                probe(self, -1, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @types.coroutine
    def _drive(self, layer: int, coro):
        """Step ``coro`` by hand so every suspension pauses its span."""
        index = self.enter(layer)
        token = _task_parent.set(index)
        try:
            try:
                yielded = coro.send(None)
            except StopIteration as stop:
                return stop.value
            while True:
                self._pause(index)
                try:
                    value = yield yielded
                except GeneratorExit:
                    self._resume(index, layer)
                    coro.close()
                    raise
                except BaseException as exc:  # forwarded, never swallowed
                    self._resume(index, layer)
                    try:
                        yielded = coro.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                else:
                    self._resume(index, layer)
                    try:
                        yielded = coro.send(value)
                    except StopIteration as stop:
                        return stop.value
        finally:
            _task_parent.reset(token)
            self.exit(index)

    def watch_loop(self) -> None:
        """Charge the running loop's blocking ``select`` calls to
        ``loop.idle`` (a zero-timeout poll is not a wait and stays with
        the remainder)."""
        selector = asyncio.get_running_loop()._selector  # type: ignore[attr-defined]
        select = selector.select
        idle = self.idle_id

        def traced_select(timeout=None):
            if timeout == 0:
                return select(timeout)
            index = self.enter(idle)
            try:
                return select(timeout)
            finally:
                self.exit(index)

        selector.select = traced_select

    # -------------------------------------------------------------- output

    def write_spans(self, path: str) -> int:
        """Write the timed window's spans as JSON lines; returns count.

        The first line names the layers and columns; every other line is
        one span ``[id, layer, start_ns, end_ns, parent, op]`` with times
        relative to the window start. ``parent`` is a span id or -1; a
        parent opened during set-up is not in the file.
        """
        first = self.window_first_span
        start, end = self.s_start, self.s_end
        layer, parent, op = self.s_layer, self.s_parent, self.s_op
        origin = self.window_start_ns
        still_open = self.window_end_ns
        header = {
            "layers": self.layers,
            "columns": ["id", "layer", "start_ns", "end_ns", "parent", "op"],
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(
                f"[{index},{layer[index]},{start[index] - origin},"
                f"{(end[index] or still_open) - origin},"
                f"{parent[index]},{op[index]}]\n"
                for index in range(first, self.window_last_span)
            )
        return self.window_last_span - first


class WindowTotals:
    """Snapshot of one timed window's accounting."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.wall_ns = tracer.window_end_ns - tracer.window_start_ns
        self.self_ns = dict(zip(tracer.layers, tracer.self_ns))
        #: Spans opened in the window, per layer.
        self.calls = dict.fromkeys(tracer.layers, 0)
        self.remainder_ns = tracer.remainder_ns
        self.counters = dict(tracer.counters)
        self.spans = tracer.window_last_span - tracer.window_first_span
        self.missing_hooks = list(tracer.missing_hooks)
        #: Σ(end − start) over each layer's outermost spans in the window.
        self.awaited_ns: Dict[str, int] = {}
        first = tracer.window_first_span
        layer, parent = tracer.s_layer, tracer.s_parent
        start, end = tracer.s_start, tracer.s_end
        for index in range(first, tracer.window_last_span):
            ident = layer[index]
            name = tracer.layers[ident]
            self.calls[name] += 1
            up = parent[index]
            if up >= 0 and layer[up] == ident:
                continue
            stop = end[index] or tracer.window_end_ns
            self.awaited_ns[name] = (
                self.awaited_ns.get(name, 0) + stop - start[index]
            )

    def self_of(self, *prefixes: str) -> int:
        """Self time of every layer whose name starts with a prefix."""
        return sum(
            ns
            for name, ns in self.self_ns.items()
            if name.startswith(prefixes)
        )

    def calls_of(self, *prefixes: str) -> int:
        return sum(
            n for name, n in self.calls.items() if name.startswith(prefixes)
        )


# --------------------------------------------------------------- layer hooks

def _probe_select_next(tracer: SpanTracer, index: int, args, entry) -> None:
    queue, now_ns = args[0], args[2]
    # The chosen entry has already left the queue: add it back to get
    # the fill the selection saw.
    real = entry.target_addr is not None
    tracer.count("scheduling.real_fill_sum", queue.pending_real + real)
    tracer.count("scheduling.selects")
    if real:
        tracer.count("scheduling.queue_wait_ns", int(now_ns - entry.enqueue_ns))
        tracer.count("scheduling.real_selected")


def _probe_retain_depth(tracer: SpanTracer, index: int, args, depth) -> None:
    tracer.count("merging.retained_levels_sum", depth)
    tracer.count("merging.retains")


def _probe_occupancy(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.high_water("stash.occupancy_max", len(args[0]))


def _cipher_probe(direction: str, sealed_is_result: bool) -> Callable:
    def probe(tracer: SpanTracer, index: int, args, result) -> None:
        up = tracer.s_parent[index]
        if up >= 0 and tracer.s_layer[up] == tracer.s_layer[index]:
            return  # seal_blocks -> seal: count the bucket once
        sealed = result if sealed_is_result else args[1]
        tracer.count(f"encryption.{direction}.buckets")
        tracer.count(f"encryption.{direction}.bytes", len(sealed))

    return probe


def _probe_request_id(tracer: SpanTracer, index: int, args, result) -> None:
    message = result if isinstance(result, dict) else args[0]
    ident = message.get("id")
    if isinstance(ident, int):
        tracer.s_op[index] = ident


def _probe_log_access(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.count("wal.records")


def _probe_save_blob(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.count("checkpoint.count")
    tracer.count("checkpoint.bytes", len(args[2]))


def _probe_real_chain(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.count("posmap.real_chains")


def _probe_dummy_chain(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.count("posmap.dummy_chains")


def _probe_put_bytes(tracer: SpanTracer, index: int, args, result) -> None:
    tracer.count("backends.bytes_written", sum(len(s) for _n, s in args[1]))


_SEAL = _cipher_probe("seal", sealed_is_result=True)
_OPEN = _cipher_probe("open", sealed_is_result=False)

#: ``(layer, module, class or None, attribute, kind, probe)``. A layer's
#: entry points are the functions other layers call O(1-20) times per
#: access; per-block helpers (``Stash.get``) are deliberately left out.
#: Names that a later refactor removes are skipped and reported in
#: the result's ``missing_hooks`` instead of failing the run.
HOOKS: Tuple[tuple, ...] = (
    ("serve.protocol", "repro.serve.protocol", None, "encode_frame", "sync", _probe_request_id),
    ("serve.protocol", "repro.serve.protocol", None, "decode_body", "sync", _probe_request_id),
    ("serve.service", "repro.serve.service", "ServiceFrontEnd", "_handle_session", "async", None),
    ("serve.service", "repro.serve.service", "ServiceFrontEnd", "_respond", "async", None),
    ("serve.service", "repro.serve.service", "OramService", "_work_loop", "async", None),
    ("serve.service", "repro.serve.service", "OramService", "_drain_ready", "sync", None),
    ("serve.engine", "repro.serve.engine", "ObliviousEngine", "submit", "sync", None),
    ("serve.engine", "repro.serve.engine", "ObliviousEngine", "run_access", "access", None),
    ("serve.engine", "repro.serve.engine", "ObliviousEngine", "capture_state", "sync", None),
    ("serve.engine", "repro.serve.engine", "ObliviousEngine", "flush_durability", "sync", None),
    ("serve.engine", "repro.serve.engine", "AsyncBucketStore", "read_many_sealed", "async", None),
    ("serve.engine", "repro.serve.engine", "AsyncBucketStore", "write_many_blocks", "async", None),
    ("serve.engine", "repro.serve.engine", "AsyncBucketStore", "write_many_sealed", "async", None),
    ("core.scheduling", "repro.core.scheduling", "LabelQueue", "top_up", "sync", None),
    ("core.scheduling", "repro.core.scheduling", "LabelQueue", "insert_real", "sync", None),
    ("core.scheduling", "repro.core.scheduling", "LabelQueue", "select_next", "sync", _probe_select_next),
    ("core.merging", "repro.core.merging", "ForkState", "read_set", "sync", None),
    ("core.merging", "repro.core.merging", "ForkState", "retain_depth", "sync", _probe_retain_depth),
    ("core.merging", "repro.core.merging", "ForkState", "write_levels", "sync", None),
    ("core.merging", "repro.core.merging", "ForkState", "commit_write", "sync", None),
    ("core.merging", "repro.core.merging", "ForkState", "reset", "sync", None),
    ("oram.stash", "repro.oram.stash", "Stash", "add_all", "sync", None),
    ("oram.stash", "repro.oram.stash", "Stash", "collect_for_node", "sync", None),
    ("oram.stash", "repro.oram.stash", "Stash", "collect_path", "sync", None),
    # The controller binds the two dispatch targets directly.
    ("oram.stash", "repro.oram.stash", "Stash", "_collect_indexed", "sync", None),
    ("oram.stash", "repro.oram.stash", "Stash", "_collect_scan", "sync", None),
    ("oram.stash", "repro.oram.stash", "Stash", "check_persistent_occupancy", "sync", _probe_occupancy),
    ("oram.records", "repro.oram.records", None, "pack", "sync", None),
    ("oram.records", "repro.oram.records", None, "pack_into", "sync", None),
    ("oram.records", "repro.oram.records", None, "pack_many", "sync", None),
    ("oram.records", "repro.oram.records", None, "unpack_from", "sync", None),
    # NullCipher is left alone: it overrides all four methods with
    # pass-throughs to oram.records, and a span around each of its ~14-75
    # buckets per request would read as 2-4 % of "cipher" wall that is
    # only the wrappers' own cost.
    ("oram.encryption.seal", "repro.oram.encryption", "BucketCipher", "seal_blocks", "sync", _SEAL),
    ("oram.encryption.seal", "repro.oram.encryption", "CounterModeCipher", "seal", "sync", _SEAL),
    ("oram.encryption.open", "repro.oram.encryption", "BucketCipher", "open_blocks", "sync", _OPEN),
    ("oram.encryption.open", "repro.oram.encryption", "CounterModeCipher", "open", "sync", _OPEN),
    ("posmap", "repro.posmap.hierarchical", "HierarchicalPositionMap", "run_real_chain", "async", _probe_real_chain),
    ("posmap", "repro.posmap.hierarchical", "HierarchicalPositionMap", "run_dummy_chain", "async", _probe_dummy_chain),
    ("replica.wal", "repro.replica.replicator", "Replicator", "log_access", "sync", _probe_log_access),
    ("replica.wal", "repro.replica.wal", "WriteAheadLog", "append", "sync", None),
    ("replica.wal", "repro.replica.wal", "WriteAheadLog", "sync", "sync", None),
    ("replica.checkpoint", "repro.replica.replicator", "Replicator", "maybe_checkpoint", "sync", None),
    ("replica.checkpoint", "repro.replica.checkpoint", "CheckpointStore", "seal", "sync", None),
    ("replica.checkpoint", "repro.replica.checkpoint", "CheckpointStore", "save_blob", "sync", _probe_save_blob),
    ("replica.fsync", "os", None, "fsync", "sync", None),
    # Every callback the event loop runs (task steps, transport reads,
    # timers): what no layer span inside it claims is loop machinery.
    ("loop.callbacks", "asyncio.events", "Handle", "_run", "sync", None),
    ("core.controller", "repro.core.controller", "ForkPathController", "run", "sync", None),
    # Called once at the end of every simulated access: numbers the ops.
    ("core.controller", "repro.core.metrics", "ControllerMetrics", "on_access", "tick", None),
    ("core.address_queue", "repro.core.address_queue", "AddressQueue", "push", "sync", None),
    ("core.address_queue", "repro.core.address_queue", "AddressQueue", "pop_issuable", "sync", None),
    ("core.address_queue", "repro.core.address_queue", "AddressQueue", "on_complete", "sync", None),
    ("oram.posmap", "repro.oram.posmap", "PositionMap", "lookup", "sync", None),
    ("oram.posmap", "repro.oram.posmap", "PositionMap", "remap", "sync", None),
    ("oram.posmap", "repro.oram.posmap", "PositionMap", "assign", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "read_bucket", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "read_blocks", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "read_many_blocks", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "write_bucket", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "write_blocks", "sync", None),
    ("oram.memory", "repro.oram.memory", "UntrustedMemory", "write_many_blocks", "sync", None),
    ("dram.model", "repro.dram.model", "DramModel", "access", "sync", None),
    ("dram.model", "repro.dram.model", "DramModel", "access_many", "sync", None),
    ("dram.model", "repro.dram.model", "DramModel", "access_chain", "sync", None),
    # The benchmark's own counting mixin fronts every backend it builds.
    ("serve.backends", __name__, "_CountingBatches", "aget_many", "async", None),
    ("serve.backends", __name__, "_CountingBatches", "aput_many", "async", _probe_put_bytes),
)


def _wrap_access(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    """Span around the engine's access coroutine that also numbers the
    operations: the spans below an access inherit its op id."""
    inner = tracer.wrap_async(name, fn)
    count = itertools.count()

    async def traced_access(*args, **kwargs):
        tracer.op = next(count)
        return await inner(*args, **kwargs)

    return traced_access


def _wrap_tick(tracer: SpanTracer, fn: Callable) -> Callable:
    """No span: the call marks the end of one operation."""

    def ticked(*args, **kwargs):
        tracer.op += 1
        return fn(*args, **kwargs)

    return ticked


def install_hooks(tracer: SpanTracer) -> Callable[[], None]:
    """Wrap every entry in :data:`HOOKS`; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []
    for name, module_name, class_name, attr, kind, probe in HOOKS:
        owner: object = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            tracer.missing_hooks.append(
                ".".join(filter(None, (module_name, class_name, attr)))
            )
            continue
        if kind == "sync":
            traced = tracer.wrap_sync(name, original, probe)
        elif kind == "async":
            traced = tracer.wrap_async(name, original, probe)
        elif kind == "access":
            traced = _wrap_access(tracer, name, original)
        else:
            traced = _wrap_tick(tracer, original)
        setattr(owner, attr, traced)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ------------------------------------------------------- counting backends

class _CountingBatches:
    """Counts round trips and buckets at the storage boundary."""

    batch_calls = 0
    bucket_reads = 0
    bucket_writes = 0

    async def aget_many(self, node_ids):
        self.batch_calls += 1
        self.bucket_reads += len(node_ids)
        return await super().aget_many(node_ids)  # type: ignore[misc]

    async def aput_many(self, pairs):
        self.batch_calls += 1
        self.bucket_writes += len(pairs)
        return await super().aput_many(pairs)  # type: ignore[misc]

    def counts(self) -> Dict[str, int]:
        return {
            "calls": self.batch_calls,
            "reads": self.bucket_reads,
            "writes": self.bucket_writes,
        }


class LedgerMemoryBackend(_CountingBatches, InMemoryBackend):
    """The in-memory backend, counted."""


class LedgerFileBackend(_CountingBatches, FileBackend):
    """The append-log file backend, counted."""


class _RoundTrip:
    """One ``rtt_s`` sleep per batch; of every ``fault_every``
    consecutive batches exactly one, at a seeded position, then fails
    transiently (after the storage server saw it, so a failed attempt is
    counted like a served one). The fault *count* is conditioned, as the
    arrival count of ``client.uniform_arrivals_ns`` is: a free-running
    1 % coin injected 32-45 faults into 1 600 requests depending on the
    seed; this way every seed injects the same number and moves only
    where they fall."""

    rtt_s = 0.0
    fault_every = 0
    errors_injected = 0
    _faults: random.Random
    _batch = 0
    _fault_at = -1

    async def _round_trip(self) -> None:
        await asyncio.sleep(self.rtt_s)
        position = self._batch % self.fault_every
        if position == 0:
            self._fault_at = self._faults.randrange(self.fault_every)
        self._batch += 1
        if position == self._fault_at:
            self.errors_injected += 1
            raise TransientBackendError("injected transient round-trip error")

    async def aget_many(self, node_ids):
        await self._round_trip()
        return await super().aget_many(node_ids)  # type: ignore[misc]

    async def aput_many(self, pairs):
        await self._round_trip()
        return await super().aput_many(pairs)  # type: ignore[misc]


class RttBackend(_CountingBatches, _RoundTrip, InMemoryBackend):
    """A remote in-memory store behind a fixed round-trip time."""

    def __init__(self, rtt_s: float, fault_every: int, seed: int) -> None:
        super().__init__()
        self.rtt_s = rtt_s
        self.fault_every = fault_every
        self._faults = random.Random(seed)
