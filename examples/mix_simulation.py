#!/usr/bin/env python3
"""Full-system run of a Table 2 mix: traditional vs Fork Path.

Reproduces, at laptop scale, the per-mix story behind Figures 12-15:
four out-of-order cores run a SPEC 2006 mix stand-in closed-loop
against the ORAM memory system, and the script reports ORAM latency,
execution-time slowdown versus an insecure processor, DRAM traffic and
energy for each controller configuration.

Usage::

    python examples/mix_simulation.py [Mix1 .. Mix10]
"""

from __future__ import annotations

import sys

from repro import (
    CacheConfig,
    OramConfig,
    Simulation,
    SystemConfig,
    fork_path_scheduler,
    traditional_scheduler,
)
from repro.analysis.report import format_table
from repro.workloads.mixes import mix_benchmarks, mix_names


def main(mix: str) -> None:
    base = SystemConfig(
        oram=OramConfig(levels=15, stash_capacity=300),
        scheduler=fork_path_scheduler(64),
        cache=CacheConfig(policy="none"),
    )
    variants = [
        ("Traditional ORAM", base.replace(scheduler=traditional_scheduler())),
        ("Merge only", base),
        (
            "Merge+256K MAC",
            base.replace(
                cache=CacheConfig(policy="mac", capacity_bytes=256 * 1024)
            ),
        ),
        (
            "Merge+1M MAC",
            base.replace(cache=CacheConfig(policy="mac", capacity_bytes=1 << 20)),
        ),
    ]

    benchmarks = mix_benchmarks(mix)
    print(f"{mix}: " + ", ".join(spec.name for spec in benchmarks))
    print()

    rows = []
    for name, config in variants:
        result = Simulation(config).run_system(
            benchmarks,
            instructions_per_core=200_000,
            seed=1,
            footprint_cap=15_000,
        )
        metrics = result.metrics
        rows.append(
            [
                name,
                f"{metrics.avg_latency_ns:.0f}",
                f"{result.slowdown:.2f}x",
                metrics.dram_read_nodes + metrics.dram_written_nodes,
                f"{result.energy.total_mj:.2f}",
                f"{metrics.dummy_fraction:.1%}",
            ]
        )
    print(
        format_table(
            f"Full-system comparison on {mix} (4 OoO cores, 200k instr/core)",
            [
                "config",
                "ORAM latency (ns)",
                "slowdown",
                "DRAM buckets",
                "energy (mJ)",
                "dummies",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    requested = sys.argv[1] if len(sys.argv) > 1 else "Mix3"
    if requested not in mix_names():
        raise SystemExit(f"unknown mix {requested!r}; choose from {mix_names()}")
    main(requested)
