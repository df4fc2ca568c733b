"""The ``Simulation`` façade: one front door to every kind of run.

Every kind of run — CLI, experiments, benchmarks — goes through
:class:`Simulation`::

    from repro import Simulation, SystemConfig

    result = Simulation(SystemConfig()).run(trace)          # open loop
    result = Simulation(config).run_system(benchmarks, ...)  # closed loop

Both return a :class:`RunResult` bundling metrics, the energy
breakdown, per-access records and the trace handle. Observability
attaches in exactly one place — pass ``tracer=`` and every instrumented
subsystem (controller, scheduler, stash, MAC cache, DRAM model, system
runner) reports through it::

    from repro.obs import Tracer, JsonlSink

    tracer = Tracer(sinks=[JsonlSink("run.jsonl")])
    result = Simulation(config).run(trace, tracer=tracer)
    print(result.trace.render_summary())
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.config import SystemConfig
from repro.core.controller import ArrivalSource, ForkPathController
from repro.core.metrics import ControllerMetrics
from repro.core.requests import AccessRecord, LlcRequest
from repro.dram.energy import EnergyBreakdown
from repro.errors import ConfigError
from repro.obs.events import RunFinished, RunStarted
from repro.obs.tracer import Tracer
from repro.oram.encryption import BucketCipher

#: Anything `Simulation.run` accepts as a workload: an arrival source
#: (open or closed loop) or a pre-built request trace.
Workload = Union[ArrivalSource, Sequence[LlcRequest]]


@dataclass
class RunResult:
    """Everything one simulation run produced.

    ``full_system`` is populated by :meth:`Simulation.run_system` and
    carries the insecure-baseline makespan that the paper's slowdown
    figures divide by; open-loop :meth:`Simulation.run` leaves it None.
    """

    config: SystemConfig
    metrics: ControllerMetrics
    energy: EnergyBreakdown
    #: The tracer used for the run (None when tracing was disabled) —
    #: counters, histograms, timeline and ring-buffer sinks hang off it.
    trace: Optional[Tracer] = None
    #: Slowdown/makespan context for closed-loop system runs.
    full_system: Optional["FullSystemResult"] = None  # noqa: F821
    #: The controller that ran — the escape hatch for inspection
    #: (stash, caches, DRAM stats) without widening this dataclass.
    controller: Optional[ForkPathController] = field(default=None, repr=False)

    @property
    def records(self) -> List[AccessRecord]:
        """Per-access records (truncated at ``metrics.max_records``;
        ``metrics.records_dropped`` says by how much)."""
        return self.metrics.records

    @property
    def slowdown(self) -> float:
        """Makespan ratio vs. the insecure baseline (0.0 for open-loop
        runs, which have no baseline)."""
        if self.full_system is None:
            return 0.0
        return self.full_system.slowdown

    def summary(self) -> Dict[str, object]:
        """Metrics summary, extended with tracer output when traced."""
        data: Dict[str, object] = dict(self.metrics.summary())
        if self.full_system is not None:
            data["slowdown"] = self.full_system.slowdown
            data["insecure_finish_ns"] = self.full_system.insecure_finish_ns
        data["energy_mj"] = self.energy.total_mj
        if self.trace is not None:
            data["observability"] = self.trace.summary()
        return data


class Simulation:
    """Configured simulator factory: build controllers, run workloads.

    One instance is cheap and stateless between runs — each
    :meth:`run` / :meth:`run_system` call builds a fresh controller, so
    repeated calls with the same seeds reproduce identical behaviour.
    """

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()

    # ------------------------------------------------------------- plumbing

    @staticmethod
    def _as_source(workload: Workload) -> ArrivalSource:
        if isinstance(workload, ArrivalSource):
            return workload
        from repro.workloads.trace import TraceSource

        return TraceSource(workload)

    def controller(
        self,
        workload: Workload,
        *,
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        cipher: Optional[BucketCipher] = None,
    ) -> ForkPathController:
        """Build (but do not run) a controller over ``workload`` — the
        escape hatch for callers that manage the run loop themselves
        (e.g. the throughput benchmark's warmup/timed split)."""
        return ForkPathController(
            self.config,
            self._as_source(workload),
            rng=rng,
            cipher=cipher,
            tracer=tracer,
        )

    def _emit_run_started(self, tracer: Optional[Tracer], ts_ns: float) -> None:
        if tracer is None or not tracer.enabled:
            return
        config = self.config
        tracer.emit(
            RunStarted(
                ts_ns=ts_ns,
                levels=config.oram.levels,
                label_queue_size=config.scheduler.label_queue_size,
                cache_policy=config.cache.policy,
                channels=config.dram.channels,
                seed=config.seed,
            )
        )

    @staticmethod
    def _emit_run_finished(
        tracer: Optional[Tracer], metrics: ControllerMetrics
    ) -> None:
        if tracer is None or not tracer.enabled:
            return
        tracer.emit(
            RunFinished(
                ts_ns=metrics.end_time_ns,
                requests=metrics.real_completed,
                accesses=metrics.total_accesses,
                end_time_ns=metrics.end_time_ns,
            )
        )
        tracer.close()

    # ----------------------------------------------------------------- runs

    def run(
        self,
        workload: Workload,
        *,
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        cipher: Optional[BucketCipher] = None,
        max_requests: Optional[int] = None,
        max_time_ns: Optional[float] = None,
        max_accesses: Optional[int] = None,
    ) -> RunResult:
        """Run one workload through the ORAM controller.

        ``workload`` is an :class:`ArrivalSource` (open- or closed-loop)
        or a request trace (any sequence of :class:`LlcRequest`). The
        tracer, when given, is closed (sinks flushed) before returning.
        """
        controller = self.controller(
            workload, tracer=tracer, rng=rng, cipher=cipher
        )
        self._emit_run_started(tracer, 0.0)
        metrics = controller.run(
            max_requests=max_requests,
            max_time_ns=max_time_ns,
            max_accesses=max_accesses,
        )
        self._emit_run_finished(tracer, metrics)
        return RunResult(
            config=self.config,
            metrics=metrics,
            energy=controller.energy.breakdown,
            trace=tracer,
            controller=controller,
        )

    def run_system(
        self,
        benchmarks: Iterable,
        *,
        tracer: Optional[Tracer] = None,
        requests_per_core: int = 0,
        seed: int = 0,
        footprint_cap: Optional[int] = None,
        shared_footprint: bool = False,
        run_insecure: bool = True,
        instructions_per_core: int = 0,
    ) -> RunResult:
        """Closed-loop full-system run: cores + ORAM vs. insecure DRAM.

        Give each core either a fixed miss count (``requests_per_core``)
        or an instruction budget (``instructions_per_core``, the paper's
        slowdown methodology). ``footprint_cap`` (blocks per core) lets
        small-tree experiments run the big-footprint benchmarks;
        per-core regions are laid out back-to-back unless
        ``shared_footprint`` (multi-threaded runs).
        """
        from repro.memsys.processor import CoreCluster, build_cluster
        from repro.memsys.system import (
            FullSystemResult,
            InsecureMemorySystem,
            _required_blocks,
        )

        config = self.config
        benchmarks = list(benchmarks)
        total_footprint = _required_blocks(
            benchmarks, footprint_cap, shared_footprint
        )
        if total_footprint > config.oram.num_blocks:
            raise ConfigError(
                f"workload footprint {total_footprint} blocks exceeds ORAM "
                f"capacity {config.oram.num_blocks}; raise levels or cap "
                f"the footprint"
            )

        def new_cluster(cluster_seed: int) -> CoreCluster:
            return build_cluster(
                benchmarks,
                config.processor,
                random.Random(cluster_seed),
                requests_per_core=requests_per_core,
                footprint_cap=footprint_cap,
                shared_footprint=shared_footprint,
                instructions_per_core=instructions_per_core,
            )

        cluster = new_cluster(seed)
        controller = ForkPathController(
            config, cluster, rng=random.Random(seed + 1), tracer=tracer
        )
        self._emit_run_started(tracer, 0.0)
        metrics = controller.run()
        if not cluster.done():
            raise ConfigError(
                f"ORAM run ended with "
                f"{cluster.total_issued() - cluster.total_completed()} "
                f"requests unserved"
            )
        finish = cluster.makespan_ns()
        if tracer is not None and tracer.enabled:
            counters = tracer.counters
            counters.inc("cores.count", len(cluster.cores))
            counters.inc("cores.issued", cluster.total_issued())
            counters.inc("cores.completed", cluster.total_completed())
            counters.inc("cores.makespan_ns", finish)

        insecure_finish = 0.0
        if run_insecure:
            insecure_cluster = new_cluster(seed)
            memory = InsecureMemorySystem(channels=config.dram.channels)
            memory.run(insecure_cluster)
            if not insecure_cluster.done():
                raise ConfigError("insecure run ended with unserved requests")
            insecure_finish = insecure_cluster.makespan_ns()

        self._emit_run_finished(tracer, metrics)
        full = FullSystemResult(
            config=config,
            metrics=metrics,
            energy=controller.energy.breakdown,
            finish_ns=finish,
            insecure_finish_ns=insecure_finish,
        )
        return RunResult(
            config=config,
            metrics=metrics,
            energy=full.energy,
            trace=tracer,
            full_system=full,
            controller=controller,
        )
