"""Full-system pieces: the insecure DRAM baseline and result types.

A closed-loop core cluster runs against a configured (Fork Path or
traditional) ORAM controller and, with the same benchmark parameters,
against a plain DRAM memory system with no ORAM. The ratio of
makespans is the paper's Figure 14 slowdown; the controller's energy
model supplies Figure 15.

The front door for these runs is :meth:`repro.Simulation.run_system`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from repro.config import SystemConfig
from repro.core.controller import ArrivalSource
from repro.core.metrics import ControllerMetrics
from repro.core.requests import LlcRequest
from repro.dram.energy import EnergyBreakdown
from repro.errors import ConfigError
from repro.workloads.spec import BenchmarkSpec


class InsecureMemorySystem:
    """Plain DRAM service for LLC misses — the insecure baseline.

    Each miss occupies one channel briefly (64 B burst + command
    overhead) and completes after a row access; no path traversal, no
    dummies. Channel choice is least-loaded, approximating bank-level
    parallelism.
    """

    def __init__(
        self,
        channels: int = 2,
        access_latency_ns: float = 45.0,
        channel_occupancy_ns: float = 6.0,
    ) -> None:
        if channels < 1:
            raise ConfigError("channels must be >= 1")
        self.channels = channels
        self.access_latency_ns = access_latency_ns
        self.channel_occupancy_ns = channel_occupancy_ns
        self._channel_free = [0.0] * channels
        self.served = 0

    def service_time(self, arrival_ns: float) -> float:
        channel = min(range(self.channels), key=lambda c: self._channel_free[c])
        start = max(arrival_ns, self._channel_free[channel])
        self._channel_free[channel] = start + self.channel_occupancy_ns
        self.served += 1
        return start + self.access_latency_ns

    def run(self, source: ArrivalSource) -> float:
        """Drive a closed-loop source to completion; returns makespan."""
        clock = 0.0
        completions: List[tuple[float, int, LlcRequest]] = []
        sequence = 0
        finish = 0.0
        while True:
            for request in source.pop_arrivals(clock):
                done = self.service_time(request.arrival_ns)
                request.complete_ns = done
                request.served_by = "dram"
                heapq.heappush(completions, (done, sequence, request))
                sequence += 1
            next_arrival = source.next_arrival_ns()
            next_completion = completions[0][0] if completions else float("inf")
            if next_completion <= next_arrival:
                if not completions:
                    if source.exhausted():
                        break
                    raise ConfigError("insecure run stalled with no events")
                done, _, request = heapq.heappop(completions)
                clock = max(clock, done)
                finish = max(finish, done)
                source.on_complete(request, done)
            else:
                clock = next_arrival
        return finish


@dataclass
class FullSystemResult:
    """Everything Figures 14-19 need from one full-system run."""

    config: SystemConfig
    metrics: ControllerMetrics
    energy: EnergyBreakdown
    #: makespan with the ORAM memory system, ns.
    finish_ns: float
    #: makespan of the same workload on plain DRAM, ns.
    insecure_finish_ns: float

    @property
    def slowdown(self) -> float:
        if self.insecure_finish_ns <= 0:
            return 0.0
        return self.finish_ns / self.insecure_finish_ns

    @property
    def avg_oram_latency_ns(self) -> float:
        return self.metrics.avg_latency_ns


def _required_blocks(
    benchmarks: List[BenchmarkSpec],
    footprint_cap: Optional[int],
    shared_footprint: bool,
) -> int:
    footprints = []
    for benchmark in benchmarks:
        footprint = benchmark.footprint_blocks
        if footprint_cap is not None:
            footprint = min(footprint, footprint_cap)
        footprints.append(footprint)
    return max(footprints) if shared_footprint else sum(footprints)
