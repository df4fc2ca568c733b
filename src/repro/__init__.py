"""Fork Path ORAM — a full reproduction of Zhang et al., MICRO 2015.

"Fork Path: Improving Efficiency of ORAM by Removing Redundant Memory
Accesses" observes that consecutive Path ORAM accesses write and then
immediately re-read the buckets their paths share, and removes that
redundancy with three techniques: path merging, ORAM request scheduling
over a dummy-padded label queue, and merging-aware caching.

Public API tour
---------------
* :class:`repro.Simulation` — the front door: configure once, then
  :meth:`~repro.Simulation.run` a trace (open loop) or
  :meth:`~repro.Simulation.run_system` benchmarks against an insecure
  baseline (closed loop); both return a :class:`repro.RunResult`.
* :mod:`repro.obs` — structured observability: pass
  ``tracer=repro.obs.Tracer(...)`` to any run for typed events,
  counters, latency histograms and timeline samples.
* :class:`repro.SystemConfig` and friends — all tunables, defaulting to
  the paper's Table 1; :meth:`~repro.SystemConfig.from_overrides`
  applies dotted-key overrides (``{"scheduler.label_queue_size": 128}``).
* :class:`repro.PathOram` — the functional baseline protocol.
* :class:`repro.ForkPathController` — the timed Fork Path controller
  (set ``SchedulerConfig(enable_merging=False, enable_scheduling=False,
  label_queue_size=1)`` for traditional Path ORAM on the same stack).
* :mod:`repro.workloads` — SPEC/PARSEC stand-ins and the Table 2 mixes.
* :mod:`repro.experiments` — one module per paper figure (10-19).
"""

from repro.config import (
    CacheConfig,
    ClusterConfig,
    DramConfig,
    DramTimingConfig,
    OramConfig,
    PosmapConfig,
    ProcessorConfig,
    RecursionConfig,
    ReplicaConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    levels_for_capacity,
    small_test_config,
    table1_oram_config,
    table1_processor_config,
)
from repro.core.controller import ArrivalSource, ForkPathController
from repro.core.metrics import ControllerMetrics
from repro.errors import (
    BackendError,
    ConfigError,
    InvariantViolationError,
    ProtocolError,
    ReproError,
    StashOverflowError,
    TransientBackendError,
)
from repro.memsys.system import FullSystemResult
from repro.obs import (
    JsonlSink,
    NullTracer,
    RingBufferSink,
    TerminalSummarySink,
    Tracer,
    tracer_for_jsonl,
)
from repro.oram.path_oram import PathOram
from repro.oram.recursion import RecursiveOram
from repro.oram.tree import TreeGeometry
from repro.simulation import RunResult, Simulation
from repro.workloads.trace import TraceSource, make_trace

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "ClusterConfig",
    "DramConfig",
    "DramTimingConfig",
    "OramConfig",
    "PosmapConfig",
    "ProcessorConfig",
    "RecursionConfig",
    "ReplicaConfig",
    "SchedulerConfig",
    "ServiceConfig",
    "SystemConfig",
    "levels_for_capacity",
    "small_test_config",
    "table1_oram_config",
    "table1_processor_config",
    "ArrivalSource",
    "ForkPathController",
    "ControllerMetrics",
    "BackendError",
    "ConfigError",
    "InvariantViolationError",
    "ProtocolError",
    "ReproError",
    "StashOverflowError",
    "TransientBackendError",
    "FullSystemResult",
    "Simulation",
    "RunResult",
    "Tracer",
    "NullTracer",
    "JsonlSink",
    "RingBufferSink",
    "TerminalSummarySink",
    "tracer_for_jsonl",
    "PathOram",
    "RecursiveOram",
    "TreeGeometry",
    "TraceSource",
    "make_trace",
    "__version__",
    "traditional_scheduler",
    "fork_path_scheduler",
]


def traditional_scheduler() -> SchedulerConfig:
    """Scheduler settings that turn the controller into traditional
    (baseline) Path ORAM: no merging, no reordering, queue of one."""
    return SchedulerConfig(
        label_queue_size=1,
        enable_merging=False,
        enable_scheduling=False,
        enable_dummy_replacing=False,
    )


def fork_path_scheduler(label_queue_size: int = 64) -> SchedulerConfig:
    """The paper's default Fork Path scheduler (queue of 64)."""
    return SchedulerConfig(label_queue_size=label_queue_size)
