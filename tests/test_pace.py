"""Tests for ``repro.pace`` — fixed-temporal-distribution serving.

The load-bearing guarantees under test:

* ``pace.*`` configuration validates its invariants and rejects
  unknown keys like every other namespace;
* the :class:`~repro.pace.Pacer` deadline chain never accelerates —
  an overrun slot re-anchors at *now* instead of issuing catch-up
  bursts — and its jitter stream is seeded and traffic-independent;
* the :class:`~repro.pace.AdaptiveDummyController` only moves the
  cadence at epoch boundaries, by the configured rules, inside the
  hard floor/ceiling bounds;
* a paced service keeps issuing pure-dummy accesses at zero load, and
  the resulting backend trace still equals the label-sequence
  reconstruction (the paper's security argument survives pacing).

No pytest-asyncio in the CI image: async tests run via ``asyncio.run``
inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

import repro.pace
from repro.config import (
    CacheConfig,
    PaceConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.errors import ConfigError
from repro.obs.schema import validate_lines
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.pace import AdaptiveDummyController, Pacer
from repro.security.adversary import verify_engine_trace
from repro.serve import protocol
from repro.serve.backends import FaultPlan, FaultyBackend, InMemoryBackend
from repro.serve.service import OramService


def pace_config(**kwargs: object) -> PaceConfig:
    merged: dict = dict(mode="fixed", interval_ns=1_000.0)
    merged.update(kwargs)
    return PaceConfig(**merged)  # type: ignore[arg-type]


def paced_system(interval_ns: float = 500_000.0, **pace_kwargs: object):
    return SystemConfig(
        oram=small_test_config(6, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        pace=pace_config(interval_ns=interval_ns, **pace_kwargs),
    )


# ----------------------------------------------------------------- validation


class TestPaceConfig:
    def test_default_is_off(self):
        assert SystemConfig().pace.mode == "off"

    def test_overrides_reach_pace_namespace(self):
        config = SystemConfig.from_overrides(
            {
                "pace.mode": "jittered",
                "pace.interval_ns": "250000",
                "pace.jitter_ns": "50000",
                "pace.adaptive": "true",
                "pace.epoch_slots": "32",
            }
        )
        assert config.pace.mode == "jittered"
        assert config.pace.interval_ns == 250_000.0
        assert config.pace.jitter_ns == 50_000.0
        assert config.pace.adaptive is True
        assert config.pace.epoch_slots == 32

    def test_unknown_pace_key_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_overrides({"pace.cadence_ns": "100"})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            PaceConfig(mode="periodic", interval_ns=100.0)

    def test_on_mode_requires_interval(self):
        with pytest.raises(ConfigError):
            PaceConfig(mode="fixed")

    def test_jittered_requires_jitter(self):
        with pytest.raises(ConfigError):
            PaceConfig(mode="jittered", interval_ns=100.0)

    def test_interval_must_lie_inside_explicit_bounds(self):
        with pytest.raises(ConfigError):
            pace_config(interval_ns=100.0, min_interval_ns=200.0,
                        max_interval_ns=400.0)

    def test_watermarks_and_factor_validated(self):
        with pytest.raises(ConfigError):
            pace_config(high_watermark=0)
        with pytest.raises(ConfigError):
            pace_config(low_watermark=5, high_watermark=5)
        with pytest.raises(ConfigError):
            pace_config(adjust_factor=1.0)

    def test_default_bounds_are_eightfold(self):
        assert pace_config(interval_ns=800.0).interval_bounds() == (
            100.0,
            6_400.0,
        )


# ---------------------------------------------------------------------- pacer


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _clock_advancing_sleep(clock: _ManualClock):
    """Stand-in for the pacer's sleep that advances a manual clock, so
    the deadline-grid arithmetic is tested deterministically."""

    async def sleep(seconds: float) -> None:
        clock.t += seconds * 1e9

    return sleep


class TestPacer:
    def test_refuses_off_mode(self):
        with pytest.raises(ConfigError):
            Pacer(PaceConfig())

    def test_fixed_chain_and_overrun_reanchor(self, monkeypatch):
        """An overrun no longer re-anchors the chain at "now": it skips
        whole slots and stays on the seed-determined grid."""
        clock = _ManualClock()
        monkeypatch.setattr(repro.pace, "_sleep", _clock_advancing_sleep(clock))
        pacer = Pacer(pace_config(interval_ns=1_000.0), clock=clock)

        async def scenario():
            first = await pacer.wait_for_slot()
            assert first == 1_000.0  # anchored at start, slept one gap
            assert pacer.pending_deadline_ns() == 2_000.0
            assert pacer.overruns == 0
            # The access overruns the 2000, 3000 and 4000 deadlines...
            clock.t = 4_250.0
            second = await pacer.wait_for_slot()
            # ...so those three slots are skipped whole and the pacer
            # sleeps on to the next grid point: the slot is issued at
            # 5000, not at the load-dependent 4250 (no re-anchoring),
            # and not three times in a row (no catch-up burst).
            assert pacer.overruns == 3
            assert clock.t == 5_000.0
            assert second == 750.0
            assert pacer.pending_deadline_ns() == 6_000.0
            third = await pacer.wait_for_slot()
            assert third == 1_000.0
            assert pacer.pending_deadline_ns() == 7_000.0
            # Arriving exactly on a deadline is on time, not an overrun.
            clock.t = 7_000.0
            assert await pacer.wait_for_slot() == 0.0
            assert pacer.overruns == 3
            assert pacer.pending_deadline_ns() == 8_000.0

        asyncio.run(scenario())
        assert pacer.waited_ns == 2_750.0

    def test_jittered_grid_is_seed_determined_under_overruns(self, monkeypatch):
        """Every deadline — issued or skipped — is a prefix sum of the
        seeded gap stream, however long the accesses in between ran."""
        config = pace_config(
            mode="jittered", interval_ns=1_000.0, jitter_ns=300.0, seed=11
        )
        reference = Pacer(config)
        grid, total = [], 0.0
        for _ in range(64):
            total += reference.next_gap_ns()
            grid.append(total)
        clock = _ManualClock()
        monkeypatch.setattr(repro.pace, "_sleep", _clock_advancing_sleep(clock))
        pacer = Pacer(config, clock=clock)
        access_ns = random.Random(5)

        async def scenario():
            issued = []
            for _ in range(20):
                await pacer.wait_for_slot()
                issued.append(clock.t)
                clock.t += access_ns.choice((100.0, 900.0, 2_700.0))
            return issued

        issued = asyncio.run(scenario())
        assert pacer.overruns > 0
        for when in issued:
            assert any(when == pytest.approx(point) for point in grid)
        assert len(set(issued)) == len(issued)  # never two slots at once

    def test_jitter_stream_is_seeded_and_bounded(self):
        config = pace_config(
            mode="jittered", interval_ns=1_000.0, jitter_ns=300.0, seed=11
        )
        first = Pacer(config)
        second = Pacer(config)
        gaps = [first.next_gap_ns() for _ in range(64)]
        assert gaps == [second.next_gap_ns() for _ in range(64)]
        assert all(1_000.0 <= gap <= 1_300.0 for gap in gaps)
        assert len(set(gaps)) > 1
        other = Pacer(pace_config(
            mode="jittered", interval_ns=1_000.0, jitter_ns=300.0, seed=12
        ))
        assert gaps != [other.next_gap_ns() for _ in range(64)]

    def test_note_slot_counts_and_syncs_adaptive_interval(self):
        pacer = Pacer(pace_config(adaptive=True, epoch_slots=4))
        for _ in range(4):
            assert pacer.interval_ns == 1_000.0
            pacer.note_slot(queue_depth=0, real=False)
        # An all-idle epoch slows the cadence down (x adjust_factor).
        assert pacer.interval_ns == 2_000.0
        assert pacer.slots == 4
        assert pacer.dummy_slots == 4


# ----------------------------------------------------------------- controller


class TestAdaptiveDummyController:
    def controller(self, **kwargs: object) -> AdaptiveDummyController:
        merged: dict = dict(
            adaptive=True, epoch_slots=4, high_watermark=2, adjust_factor=2.0
        )
        merged.update(kwargs)
        return AdaptiveDummyController(pace_config(**merged))

    def test_requires_adaptive_flag(self):
        with pytest.raises(ConfigError):
            AdaptiveDummyController(pace_config())

    def test_majority_high_speeds_up(self):
        controller = self.controller()
        for depth in (5, 5, 5, 0):
            outcome = controller.observe(depth)
        assert outcome is not None and outcome.changed
        assert outcome.high_marks == 3
        assert controller.interval_ns == 500.0

    def test_all_low_slows_down(self):
        controller = self.controller()
        for _ in range(4):
            outcome = controller.observe(0)
        assert outcome is not None and outcome.low_only
        assert controller.interval_ns == 2_000.0

    def test_mixed_epoch_leaves_cadence_alone(self):
        controller = self.controller()
        for depth in (1, 0, 0, 0):
            outcome = controller.observe(depth)
        assert outcome is not None and not outcome.changed
        assert controller.interval_ns == 1_000.0

    def test_never_adjusts_before_the_boundary(self):
        controller = self.controller()
        assert [controller.observe(9) for _ in range(3)] == [None] * 3
        assert controller.interval_ns == 1_000.0

    def test_bounds_clamp_both_directions(self):
        fast = self.controller(min_interval_ns=600.0, max_interval_ns=8_000.0)
        for _ in range(4):
            fast.observe(9)
        assert fast.interval_ns == 600.0
        slow = self.controller(min_interval_ns=600.0, max_interval_ns=1_500.0)
        for _ in range(4):
            slow.observe(0)
        assert slow.interval_ns == 1_500.0

    def test_epochs_count_and_counters_reset(self):
        controller = self.controller()
        outcomes = [controller.observe(9) for _ in range(8)]
        boundaries = [outcome for outcome in outcomes if outcome is not None]
        assert [outcome.epoch for outcome in boundaries] == [0, 1]
        assert all(outcome.slots == 4 for outcome in boundaries)


# -------------------------------------------------------------- paced service


class TestPacedService:
    def test_zero_load_service_issues_pure_dummies(self):
        """The paced service at zero load is first-class: slots keep
        firing, every one a pure-dummy access, and the emitted trace
        validates and reconstructs the public timeline."""
        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])

        async def scenario():
            service = OramService(
                paced_system(interval_ns=500_000.0), tracer=tracer
            )
            await service.start()
            await asyncio.sleep(0.03)
            await service.stop()
            return service

        service = asyncio.run(scenario())
        assert service.pacer is not None
        assert service.pacer.slots >= 16
        assert service.pacer.dummy_slots == service.pacer.slots
        assert service.engine.completed_requests == 0
        assert service.engine.accesses == service.pacer.slots

        events = [event.to_dict() for event in ring.events]
        ticks = [e for e in events if e["kind"] == "pacer_tick"]
        dummies = [e for e in events if e["kind"] == "pace_dummy_issued"]
        assert len(ticks) == service.pacer.slots
        assert len(dummies) == service.pacer.slots
        assert all(not tick["real"] for tick in ticks)
        assert all(tick["queue_depth"] == 0 for tick in ticks)
        # The public timeline is reconstructible from the tick stream:
        # slot numbers are gapless and timestamps strictly increase.
        assert [tick["slot"] for tick in ticks] == list(range(len(ticks)))
        stamps = [tick["ts_ns"] for tick in ticks]
        assert stamps == sorted(stamps)
        assert validate_lines([json.dumps(e) for e in events]) == []

    def test_idle_paced_trace_matches_label_reconstruction(self):
        """Dummy-slot accesses are real fork-path accesses: the bucket
        trace a paced-idle backend observes still equals the
        deterministic reconstruction from the label sequence."""
        backend = FaultyBackend(InMemoryBackend(), FaultPlan(error_rate=0.0))

        async def scenario():
            service = OramService(
                paced_system(interval_ns=400_000.0), backend=backend
            )
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            for sequence in range(3):
                await protocol.write_message(
                    writer,
                    {"id": sequence, "op": "put", "addr": sequence,
                     "value": f"v{sequence}"},
                )
                assert (await protocol.read_message(reader))["ok"]
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.02)  # pure-dummy tail
            await service.stop()
            return service

        service = asyncio.run(scenario())
        assert service.pacer is not None
        assert service.pacer.dummy_slots > service.engine.real_accesses
        assert verify_engine_trace(
            service.engine, service.engine.store.backend.trace.events
        ) == len(service.engine.records)

    def test_cluster_inline_paced_round_covers_every_shard(self):
        from repro.cluster.service import ClusterService

        ring = RingBufferSink(capacity=100_000)
        tracer = Tracer(sinks=[ring])
        config = SystemConfig.from_overrides(
            {
                "cluster.shards": 2,
                "pace.mode": "fixed",
                "pace.interval_ns": "500000",
            },
            base=SystemConfig(
                oram=small_test_config(6, block_bytes=64),
                cache=CacheConfig(policy="none"),
            ),
        )

        async def scenario():
            service = ClusterService(config, tracer=tracer)
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            await protocol.write_message(
                writer, {"id": 0, "op": "put", "addr": 1, "value": "x"}
            )
            assert (await protocol.read_message(reader))["ok"]
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.02)
            await service.stop()
            return service

        service = asyncio.run(scenario())
        assert service.pacer is not None
        assert service.pacer.slots >= 8
        # One pace slot drives one full dispatch round: every shard is
        # visited once per slot, so the K timelines stay in lockstep.
        assert service.router.rounds == service.pacer.slots
        assert service.router.total_accesses() == 2 * service.router.rounds
        events = [event.to_dict() for event in ring.events]
        assert validate_lines([json.dumps(e) for e in events]) == []
