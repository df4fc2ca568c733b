"""Timing-channel smoke test: pacing closes what pace-off leaks.

End-to-end drill of the fixed-temporal-distribution service mode
(``repro.pace``) and the temporal security verifier
(``repro.security.temporal``), in one process against real sockets:

1. **Paced accept** — run a jittered-pace service twice, once idle
   (zero client load: pure-dummy slots only) and once under bursty
   open-loop load; the temporal verifier must PASS: inter-access gaps
   match the load-free baseline and the issue timeline does not
   correlate with arrivals.
2. **Teeth** — the same two profiles with ``pace.mode="off"`` must make
   the verifier FAIL (the idle run issues almost no accesses and the
   bursty run's issue times chase arrivals). A verifier that accepts
   the unpaced service would be vacuous; this smoke proves it has
   teeth.
3. **Coexistence** — with pacing on, the established security
   verifiers still hold: the bucket trace a backend observes during a
   paced (mostly-dummy) run equals the label-sequence reconstruction,
   and the emitted JSONL trace validates against the event schema.

Exit 0 = all three held. Used by CI; also runnable by hand::

    PYTHONPATH=src python scripts/timing_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import (  # noqa: E402
    CacheConfig,
    PaceConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.obs.schema import validate_lines  # noqa: E402
from repro.obs.sinks import RingBufferSink  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.security.adversary import verify_engine_trace  # noqa: E402
from repro.security.temporal import (  # noqa: E402
    verify_temporal_independence,
)
from repro.serve.backends import (  # noqa: E402
    FaultPlan,
    FaultyBackend,
    InMemoryBackend,
)
from repro.serve.loadgen import run_loadgen  # noqa: E402
from repro.serve.service import OramService  # noqa: E402

IDLE_SECONDS = 0.5
CLIENTS = 3
REQUESTS = 40
RATE_PER_CLIENT = 250.0

PACED = PaceConfig(
    mode="jittered",
    interval_ns=3_000_000.0,
    jitter_ns=2_000_000.0,
    seed=101,
    adaptive=False,
)


def system(pace: PaceConfig) -> SystemConfig:
    return SystemConfig(
        oram=small_test_config(6, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        pace=pace,
    )


async def run_profiles(config: SystemConfig):
    """One idle run and one bursty open-loop run of ``config``.

    Returns (baseline issue times, loaded issue times, loaded arrival
    times), all on comparable nanosecond clocks.
    """
    idle = OramService(config)
    await idle.start()
    await asyncio.sleep(IDLE_SECONDS)
    await idle.stop()
    baseline = list(idle.engine.access_times_ns)

    busy = OramService(config)
    host, port = await busy.start()
    result = await run_loadgen(
        host,
        port,
        clients=CLIENTS,
        requests=REQUESTS,
        num_blocks=config.oram.num_blocks,
        seed=29,
        arrival="burst",
        rate=RATE_PER_CLIENT,
        tenants=4,
        tenant_skew=1.0,
    )
    await busy.stop()
    if result.lost or result.mismatches or result.failed:
        raise AssertionError(
            f"loadgen unhealthy: lost={result.lost} failed={result.failed} "
            f"mismatches={result.mismatches}"
        )
    issues = list(busy.engine.access_times_ns)
    # The loadgen stamps absolute perf_counter_ns; the engine clock is
    # relative to service start. Re-base arrivals onto the issue span.
    offset = (min(result.send_times_ns) - issues[0]) if issues else 0.0
    arrivals = [t - offset for t in result.send_times_ns]
    return baseline, issues, arrivals


async def act_1_paced_accepts() -> int:
    baseline, issues, arrivals = await run_profiles(system(PACED))
    verdict = verify_temporal_independence(baseline, issues, arrivals)
    print(f"paced: {verdict.summary()}")
    if not verdict.ok:
        print("FAIL: the paced service should be temporally indistinguishable")
        return 1
    return 0


async def act_2_unpaced_rejected() -> int:
    baseline, issues, arrivals = await run_profiles(system(PaceConfig()))
    verdict = verify_temporal_independence(baseline, issues, arrivals)
    print(f"pace off: {verdict.summary()}")
    if verdict.ok:
        print("FAIL: the verifier accepted an unpaced service — no teeth")
        return 1
    return 0


async def act_3_existing_verifiers_still_hold() -> int:
    ring = RingBufferSink(capacity=1 << 18)
    tracer = Tracer(sinks=[ring])
    backend = FaultyBackend(InMemoryBackend(), FaultPlan(error_rate=0.0))
    service = OramService(system(PACED), backend=backend, tracer=tracer)
    host, port = await service.start()
    result = await run_loadgen(
        host,
        port,
        clients=2,
        requests=15,
        num_blocks=service.config.oram.num_blocks,
        seed=31,
        arrival="onoff",
        rate=RATE_PER_CLIENT,
    )
    await asyncio.sleep(0.1)  # pure-dummy tail after the load
    await service.stop()
    if result.lost or result.mismatches or result.failed:
        print(f"FAIL: loadgen unhealthy under pacing: {result.summary()}")
        return 1
    try:
        accesses = verify_engine_trace(
            service.engine, service.engine.store.backend.trace.events
        )
    except Exception as exc:  # ConfigError carries the divergence point
        print(f"FAIL: paced bucket trace diverges from reconstruction: {exc}")
        return 1
    events = [event.to_dict() for event in ring.events]
    errors = validate_lines([json.dumps(event) for event in events])
    if errors:
        print(f"FAIL: paced trace schema-invalid: {errors[:3]}")
        return 1
    dummies = sum(1 for e in events if e["kind"] == "pace_dummy_issued")
    print(
        f"coexistence: {accesses} accesses reconstructed "
        f"({dummies} pure-dummy slots), {len(events)} events schema-valid"
    )
    return 0


def main() -> int:
    status = 0
    for act in (act_1_paced_accepts, act_2_unpaced_rejected,
                act_3_existing_verifiers_still_hold):
        status |= asyncio.run(act())
    print("timing smoke: " + ("OK" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
