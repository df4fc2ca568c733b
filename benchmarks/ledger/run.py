"""Cost ledger: one command, six workloads, end-to-end and per-layer metrics.

Usage::

    python3 benchmarks/ledger/run.py                   # all six workloads
    python3 benchmarks/ledger/run.py --out A.json      # ... saved as A.json
    python3 benchmarks/ledger/run.py --smoke           # sizes / 20, 1 repeat
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --workload kv-mem --seed 41 \\
        --seconds 10 --trace 0                         # one run, driver form

Without ``--workload`` every workload runs in two fresh subprocesses of
this same file — an untraced one for the end-to-end metrics and a traced
one for the per-layer metrics — and the report is printed and saved
under ``benchmarks/ledger/out/``.

With ``--workload`` a single process measures that workload and prints,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics (``--trace 0``: fresh-instance
repeats of a fixed operation count until ``--seconds`` of timed window
have accumulated, medians reported) or the per-layer metrics
(``--trace 1``: one untraced repeat for the overhead base, then one
traced repeat). See README.md next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import probes  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 41
DEFAULT_SECONDS = 10
MIN_REPEATS, MAX_REPEATS = 3, 8
#: A single-workload process that is still alive after this long is
#: killed outright (the contract's ceiling is 180 s).
HARD_DEADLINE_S = 150.0
SMOKE_SCALE = 20
DETAIL_PREFIX = "LEDGER-DETAIL "


# ------------------------------------------------------------- one workload

def _end_to_end_values(repeat: workloads.Repeat) -> dict:
    ordered = sorted(repeat.latencies_ns)
    seconds = repeat.wall_ns / 1e9
    ops = max(1, repeat.ops)
    values = {
        "ops_per_s": repeat.ops / seconds if seconds else 0.0,
        "latency_p50_ms": report.percentile(ordered, 0.50) / 1e6,
        "latency_p99_ms": report.percentile(ordered, 0.99) / 1e6,
        "failed_fraction": repeat.failed / max(1, repeat.attempted),
        "buckets_per_op": repeat.buckets / ops,
        "setup_s": repeat.setup_ns / 1e9,
    }
    values.update(repeat.extra)
    return values


def _pin_to_one_cpu() -> int:
    """Keep the (single-threaded) run on one CPU: a process that
    migrates mid-repeat loses 15-20 % on the loopback workloads. The
    highest allowed CPU is the least likely to field interrupts.
    Returns the CPU, or -1 where the platform cannot pin."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return -1
    return cpu


def _keep_freed_heap() -> bool:
    """Stop glibc handing freed heap back to the OS (no trimming, no
    per-object ``mmap``, a padded top). Otherwise some repeats re-fault
    tens of thousands of pages, and a minor fault costs ~15 us inside
    the reference microVM: whole repeats ran 15-25 % slow, in no pattern
    a median could remove. Returns False where there is no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return all(
        (
            mallopt(m_mmap_threshold, 32 << 20),  # glibc's maximum
            mallopt(m_trim_threshold, 1 << 30),
            mallopt(m_top_pad, 64 << 20),
        )
    )


def _host_facts(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: int) -> dict:
    """Measure one workload in this process; returns the detail record."""
    workload = workloads.WORKLOADS[name].sized(scale)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    host = _host_facts(seed)
    host["pinned_cpu"] = _pin_to_one_cpu()
    host["heap_kept"] = _keep_freed_heap()
    repeats = []
    problems: list = workload.verify()
    if trace:
        base = asyncio.run(workload.repeat(workload, seed, None))
        tracer = probes.SpanTracer()
        uninstall = probes.install_hooks(tracer)
        try:
            traced = asyncio.run(workload.repeat(workload, seed, tracer))
        finally:
            uninstall()
        repeats = [base, traced]
    else:
        timed_ns = 0
        while len(repeats) < (1 if scale > 1 else MAX_REPEATS):
            repeats.append(asyncio.run(workload.repeat(workload, seed, None)))
            timed_ns += repeats[-1].wall_ns
            if repeats[-1].problems:
                break  # a hung or failing program is not worth repeating
            if len(repeats) >= MIN_REPEATS and timed_ns >= seconds * 1e9:
                break
    for index, repeat in enumerate(repeats):
        problems.extend(f"repeat {index}: {text}" for text in repeat.problems)
        if repeat.failed:
            problems.append(
                f"repeat {index}: {repeat.failed} of {repeat.attempted} "
                f"operations failed"
            )
    per_repeat = [_end_to_end_values(repeat) for repeat in repeats]
    fingerprints = {
        (values.get("sim_latency_ns"), values["buckets_per_op"])
        for values in per_repeat
    }
    if name == "sim-fork" and len(fingerprints) != 1:
        problems.append(f"simulated fingerprint differs across repeats: {fingerprints}")
    detail = {
        "workload": name,
        "why": next(
            w["why"] for w in report.CONTRACT["workloads"] if w["name"] == name
        ),
        "ops_per_repeat": workload.ops,
        "warmup_ops": workload.warmup,
        "latency_samples": len(repeats[0].latencies_ns),
        "attempted": sum(repeat.attempted for repeat in repeats),
        "failed": sum(repeat.failed for repeat in repeats),
        "problems": problems,
        "host": host,
    }
    if trace:
        base, traced = repeats
        metrics, partition = report.layer_metrics(
            traced, base, workload.remainder_owner
        )
        spans_path = os.path.join(workloads.OUT_DIR, f"{name}.spans.jsonl")
        tracer.write_spans(spans_path)
        detail["per_layer"] = metrics
        detail["partition_ns"] = partition
        detail["traced_wall_ns"] = traced.totals.wall_ns
        detail["traced_ops"] = max(1, traced.ops)
        detail["buckets_per_op"] = {
            "untraced": base.buckets / max(1, base.ops),
            "traced": traced.buckets / max(1, traced.ops),
        }
        detail["missing_hooks"] = traced.totals.missing_hooks
        detail["spans_file"] = os.path.relpath(spans_path, REPO_ROOT)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summaries = {
            metric.name: report.summarise(
                [values[metric.name] for values in per_repeat]
            )
            for metric in report.END_TO_END
            if metric.defined_on(name) and metric.name != "peak_rss_mb"
        }
        summaries["peak_rss_mb"] = report.summarise([peak_rss_mb])
        detail["end_to_end"] = summaries
        detail["noisy"] = [
            metric.name
            for metric in report.END_TO_END
            if metric.bound
            and metric.name in summaries
            and report.spread(summaries[metric.name]) > metric.bound
        ]
    host["loadavg_after"] = list(os.getloadavg())
    host["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return detail


def _driver_line(detail: dict) -> dict:
    """The contract's result object for one ``--workload`` run."""
    if "per_layer" in detail:
        values = detail["per_layer"]
        listed = report.CONTRACT["per_layer"]
    else:
        values = {
            name: summary["median"]
            for name, summary in detail["end_to_end"].items()
        }
        listed = report.CONTRACT["end_to_end"]
    return {
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        },
    }


def _watchdog() -> None:
    def expire() -> None:
        sys.stderr.write(
            f"ledger: still running after {HARD_DEADLINE_S:.0f} s; killed\n"
        )
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(HARD_DEADLINE_S, expire)
    timer.daemon = True
    timer.start()


def main_single(args: argparse.Namespace) -> int:
    _watchdog()
    detail = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        SMOKE_SCALE if args.smoke else 1,
    )
    for problem in detail["problems"]:
        print(f"PROBLEM {args.workload}: {problem}", file=sys.stderr)
    for hook in detail.get("missing_hooks", ()):
        print(f"NOTE {args.workload}: no such entry point: {hook}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(_driver_line(detail)), flush=True)
    return 1 if detail["problems"] else 0


# ------------------------------------------------------------ all workloads

def _child(name: str, args: argparse.Namespace, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=HARD_DEADLINE_S + 20,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"{name}: subprocess killed at its deadline"]}
    sys.stderr.write(done.stderr)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    return {"problems": [f"{name}: no result (exit code {done.returncode})"]}


def main_all(args: argparse.Namespace) -> int:
    started = time.time()
    results: dict = {}
    failed = False
    for name in workloads.WORKLOADS:
        untraced = _child(name, args, 0)
        traced = _child(name, args, 1)
        problems = untraced.get("problems", []) + traced.get("problems", [])
        result = dict(untraced)
        result["problems"] = problems
        for key in ("per_layer", "partition_ns", "traced_wall_ns",
                    "traced_ops", "missing_hooks", "spans_file"):
            if key in traced:
                result[key] = traced[key]
        if "end_to_end" in result and "per_layer" in result:
            # Overhead against the untraced median of all repeats rather
            # than the traced process's single untraced repeat.
            result["per_layer"]["trace.overhead_ratio"] = (
                traced["traced_wall_ns"] / 1e9 / traced["traced_ops"]
            ) * result["end_to_end"]["ops_per_s"]["median"]
        results[name] = result
        if "end_to_end" in result:
            for line in report.format_workload(name, result):
                print(line)
        for problem in problems:
            failed = True
            print(f"  PROBLEM: {problem}")
        sys.stdout.flush()
    document = {
        "ledger": 1,
        "command": "python3 benchmarks/ledger/run.py",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "elapsed_s": time.time() - started,
        "workloads": results,
    }
    print(f"ledger: {len(results)} workloads in {document['elapsed_s']:.0f} s")
    if not args.smoke:
        out = pathlib.Path(args.out) if args.out else (
            pathlib.Path(workloads.OUT_DIR) / "ledger.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {out}")
    return 1 if failed else 0


def main_compare(base_path: str, new_path: str) -> int:
    base = json.loads(pathlib.Path(base_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    rows = report.compare(base, new)
    regressed = False
    print(f"{'workload':<16}{'metric':<22}{'A':>14}{'B':>14}  verdict")
    for workload, metric, a, b, verdict in rows:
        regressed = regressed or verdict == "regressed"
        print(f"{workload:<16}{metric:<22}{a:>14.6g}{b:>14.6g}  {verdict}")
    counts = {v: sum(1 for r in rows if r[4] == v) for v in
              ("improved", "within bound", "regressed", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="operation counts / 20, one repeat, no file written")
    parser.add_argument("--out", help="where the all-workloads run saves its JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if args.workload:
        return main_single(args)
    return main_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
