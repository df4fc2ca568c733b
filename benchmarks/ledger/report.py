"""Metric vocabulary, summaries, per-layer derivation and comparison.

``BENCHMARK.json`` at the repository root is the one place where metric
names, units, directions and bounds are written down; this module reads
them from there. The driver wants every end-to-end metric from every
workload, so three that are zero or undefined somewhere cannot be listed
in that file: they are added here, for the ledger's own report and for
``--compare``.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

CONTRACT = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline median by which the metric may worsen
    #: before it counts as a regression (0 = must repeat exactly).
    bound: Optional[float] = None
    #: Workloads the metric is defined on (None = every workload).
    workloads: Optional[Tuple[str, ...]] = None

    def defined_on(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(**entry) for entry in CONTRACT["end_to_end"]
) + (
    Metric("failed_fraction", "ratio", "lower", 0.0),
    Metric("sim_latency_ns", "ns", "lower", 0.0, ("sim-fork",)),
    Metric("disk_bytes_per_op", "B", "lower", 0.10, ("engine-durable",)),
)

PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(**entry) for entry in CONTRACT["per_layer"]
)

#: ``(workload, metric)`` pairs that are deterministic counts and must
#: repeat exactly between two runs with the same seed, whatever the
#: metric's bound on the other workloads.
EXACT = {("sim-fork", "buckets_per_op")}


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Exact nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[min(len(ordered), rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values: Sequence[float]) -> Dict[str, object]:
    q1, _q2, q3 = quartiles(values)
    return {
        "median": statistics.median(values) if values else 0.0,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def spread(summary: Dict[str, object]) -> float:
    """Interquartile range as a share of the median."""
    median = summary["median"]
    if not median:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)  # type: ignore[operator]


# ---------------------------------------------------------------- per layer

def layer_metrics(traced, base, owner: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of one traced repeat and the untraced repeat
    that ran before it in the same process, and the exact partition of
    the traced wall time (ns per bucket, remainder included).

    Times, and the counts only the tracer's probes can see (``totals``),
    come from the traced repeat and are divided by its operations. What
    the program and the counting backends count themselves (``facts``,
    ``extra``, sender lateness) comes from the **untraced** repeat:
    tracing doubles the CPU cost of an operation, and on ``kv-open`` —
    fixed offered rate, dummy accesses whenever the engine has nothing
    better to do — that is a different load regime (1.5 accesses per
    request traced against 4 untraced).
    """
    totals = traced.totals
    counters = totals.counters
    ops = max(1, traced.ops)
    wall = max(1, totals.wall_ns)
    facts = base.facts
    base_ops = max(1, base.ops)

    def us(*prefixes: str) -> float:
        return totals.self_of(*prefixes) / 1e3 / ops

    def per_op(value: float) -> float:
        return value / ops

    def fact_per_op(key: str) -> float:
        return facts.get(key, 0) / base_ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # Loop machinery no layer span claims goes to the workload's owner
    # of the event loop (the service, or the benchmark's own driver).
    remainder_us = (
        totals.remainder_ns + totals.self_ns.get("loop.callbacks", 0)
    ) / 1e3 / ops
    busy_ns = totals.self_of("serve.backends")
    accesses = facts.get("accesses", 0)
    chains = counters.get("posmap.real_chains", 0) + counters.get(
        "posmap.dummy_chains", 0
    )
    late = sorted(base.late_ns)
    seals = counters.get("encryption.seal.buckets", 0)
    opens = counters.get("encryption.open.buckets", 0)
    checkpoints = facts.get("checkpoint.count", 0)
    values = {
        "loadgen.self_us_per_op": us("loadgen")
        + (remainder_us if owner == "loadgen" else 0.0),
        "loadgen.late_p99_ms": percentile(late, 0.99) / 1e6,
        "serve.protocol.calls_per_op": per_op(totals.calls_of("serve.protocol")),
        "serve.protocol.self_us_per_op": us("serve.protocol"),
        # Measured spans plus the remainder no span covers (event-loop
        # and socket-transport work the service rests on).
        "serve.service.self_us_per_op": us("serve.service")
        + (remainder_us if owner == "serve.service" else 0.0),
        "serve.engine.self_us_per_op": us("serve.engine"),
        "serve.engine.accesses_per_op": fact_per_op("accesses"),
        "serve.engine.dummy_fraction": 1.0
        - ratio(facts.get("real_accesses", 0), accesses)
        if accesses
        else 0.0,
        "serve.engine.onchip_fraction": 1.0
        - ratio(facts.get("real_accesses", 0), base.ops)
        if accesses
        else 0.0,
        "serve.engine.failed_accesses": facts.get("failed_accesses", 0),
        "serve.engine.underfull_rounds": facts.get("underfull_rounds", 0),
        "core.scheduling.calls_per_op": per_op(totals.calls_of("core.scheduling")),
        "core.scheduling.self_us_per_op": us("core.scheduling"),
        "core.scheduling.real_fill_mean": ratio(
            counters.get("scheduling.real_fill_sum", 0),
            counters.get("scheduling.selects", 0),
        ),
        "core.merging.self_us_per_op": us("core.merging"),
        "core.merging.retained_levels_mean": ratio(
            counters.get("merging.retained_levels_sum", 0),
            counters.get("merging.retains", 0),
        ),
        "oram.stash.calls_per_op": per_op(totals.calls_of("oram.stash")),
        "oram.stash.self_us_per_op": us("oram.stash"),
        "oram.stash.occupancy_max": max(
            counters.get("stash.occupancy_max", 0),
            facts.get("stash.occupancy_max", 0),
        ),
        "oram.records.self_us_per_op": us("oram.records"),
        "oram.encryption.seal_us_per_op": us("oram.encryption.seal"),
        "oram.encryption.open_us_per_op": us("oram.encryption.open"),
        "oram.encryption.buckets_per_op": per_op(seals + opens),
        "oram.encryption.bytes_per_op": per_op(
            counters.get("encryption.seal.bytes", 0)
            + counters.get("encryption.open.bytes", 0)
        ),
        "serve.backends.calls_per_op": fact_per_op("calls"),
        "serve.backends.busy_us_per_op": busy_ns / 1e3 / ops,
        "serve.backends.wait_us_per_op": max(
            0, totals.awaited_ns.get("serve.backends", 0) - busy_ns
        )
        / 1e3
        / ops,
        "serve.backends.read_buckets_per_op": fact_per_op("reads"),
        "serve.backends.write_buckets_per_op": fact_per_op("writes"),
        "serve.backends.bytes_written_per_op": per_op(
            counters.get("backends.bytes_written", 0)
        ),
        "serve.backends.retries_per_op": fact_per_op("retries"),
        "posmap.chains_per_op": per_op(chains),
        "posmap.self_us_per_op": us("posmap"),
        "posmap.dummy_chain_fraction": ratio(
            counters.get("posmap.dummy_chains", 0), chains
        ),
        "posmap.resident_bytes": facts.get("posmap.resident_bytes", 0),
        "replica.wal.self_us_per_op": us("replica.wal"),
        "replica.wal.bytes_per_op": fact_per_op("wal.bytes"),
        "replica.checkpoint.count": checkpoints,
        "replica.checkpoint.self_us_per_op": us("replica.checkpoint"),
        "replica.checkpoint.bytes_mean": ratio(
            facts.get("checkpoint.bytes", 0), checkpoints
        ),
        "replica.fsync_us_per_op": us("replica.fsync"),
        "replica.disk_bytes_per_op": base.extra.get("disk_bytes_per_op", 0.0),
        "core.controller.self_us_per_op": us("core.controller"),
        "dram.model.calls_per_op": per_op(totals.calls_of("dram.model")),
        "dram.model.self_us_per_op": us("dram.model"),
        "dram.model.row_hit_rate": facts.get("dram.row_hit_rate", 0.0),
        "oram.memory.self_us_per_op": us("oram.memory"),
        "oram.posmap.self_us_per_op": us("oram.posmap"),
        "core.address_queue.self_us_per_op": us("core.address_queue"),
        "sim.dummy_fraction": facts.get("sim.dummy_fraction", 0.0),
        "sim.queue_wait_ns_mean": ratio(
            counters.get("scheduling.queue_wait_ns", 0),
            counters.get("scheduling.real_selected", 0),
        )
        if "sim.dummy_fraction" in facts
        else 0.0,
        "sim.latency_ns": base.extra.get("sim_latency_ns", 0.0),
        "trace.spans": totals.spans,
        "trace.overhead_ratio": ratio(wall / ops, base.wall_ns / base_ops),
        "trace.unattributed_fraction": totals.remainder_ns / wall,
    }
    partition = dict(totals.self_ns)
    partition["remainder"] = totals.remainder_ns
    return {name: float(value) for name, value in values.items()}, partition


# ------------------------------------------------------------------ compare

def verdict(
    metric: Metric,
    base: Dict[str, object],
    new: Dict[str, object],
    workload: str = "",
) -> str:
    """``improved`` / ``within bound`` / ``regressed`` / ``unresolved``
    for one workload x end-to-end metric, by the benchmark's own bound."""
    a, b = base["median"], new["median"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b - a)  # > 0: the new side is worse
    bound = 0.0 if (workload, metric.name) in EXACT else metric.bound or 0.0
    if bound == 0.0:
        if worse_by > 0:
            return "regressed"
        return "improved" if worse_by < 0 else "within bound"
    scale = abs(a) if a else 1.0
    noisy = max(spread(base), spread(new)) > bound
    if noisy:
        a_values, b_values = base["values"], new["values"]
        all_better = all(
            sign * (y - x) < 0 for x in a_values for y in b_values  # type: ignore[union-attr]
        )
        return "improved" if all_better else "unresolved"
    if worse_by / scale > bound:
        return "regressed"
    if -worse_by / scale > bound:
        return "improved"
    return "within bound"


def compare(base: dict, new: dict) -> List[Tuple[str, str, float, float, str]]:
    rows = []
    for workload, result in base["workloads"].items():
        a = result.get("end_to_end", {})
        b = new["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in END_TO_END:
            if metric.name not in a:
                continue
            before = a[metric.name]
            after = b.get(metric.name)  # absent: that run did not finish
            rows.append(
                (
                    workload,
                    metric.name,
                    before["median"],
                    after["median"] if after else math.nan,
                    verdict(metric, before, after, workload)
                    if after
                    else "unresolved",
                )
            )
    return rows


# ------------------------------------------------------------------- tables

def _number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def format_workload(name: str, result: dict) -> Iterable[str]:
    yield f"== {name} =="
    for metric in END_TO_END:
        summary = result["end_to_end"].get(metric.name)
        if summary is None:
            continue
        flag = "  NOISY" if metric.name in result.get("noisy", ()) else ""
        yield (
            f"  {metric.name:<24}{_number(summary['median']):>12} {metric.unit:<6}"
            f" [q1 {_number(summary['q1'])}, q3 {_number(summary['q3'])}]"
            f" n={summary['n']}{flag}"
        )
    samples = result.get("latency_samples")
    if samples:
        yield f"  (latency percentiles over {samples} samples per repeat)"
    layers = result.get("per_layer")
    if layers:
        yield "  -- per layer (one traced repeat; counts from the untraced one before it) --"
        for metric in PER_LAYER:
            yield (
                f"  {metric.name:<38}{_number(layers[metric.name]):>12} "
                f"{metric.unit}"
            )
