"""Extensions: PosMap Lookaside Buffer and replacement scope."""

from __future__ import annotations

import random

import pytest

from repro.config import (
    CacheConfig,
    RecursionConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)
from repro.core.controller import ForkPathController
from repro.errors import ConfigError
from repro.extensions.plb import PosMapLookasideBuffer
from repro.workloads.synthetic import hotspot_trace
from repro.workloads.trace import TraceSource


class TestPlbUnit:
    def test_probe_insert_lru(self):
        plb = PosMapLookasideBuffer(2)
        plb.insert(1)
        plb.insert(2)
        assert plb.probe(1)
        plb.insert(3)  # evicts 2 (1 was refreshed)
        assert 1 in plb and 3 in plb and 2 not in plb

    def test_plan_chain_truncates_at_shallowest_hit(self):
        plb = PosMapLookasideBuffer(8)
        chain = [100, 50, 7]  # posmap2, posmap1, data
        assert plb.plan_chain(chain) == chain  # cold
        plb.insert(50)  # posmap1 cached -> only data remains
        assert plb.plan_chain(chain) == [7]
        assert plb.stats.accesses_saved == 2

    def test_plan_chain_deep_hit_keeps_shallow_levels(self):
        plb = PosMapLookasideBuffer(8)
        plb.insert(100)  # only the deepest level cached
        assert plb.plan_chain([100, 50, 7]) == [50, 7]

    def test_plan_chain_data_only(self):
        plb = PosMapLookasideBuffer(8)
        assert plb.plan_chain([7]) == [7]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            PosMapLookasideBuffer(0)
        with pytest.raises(ConfigError):
            PosMapLookasideBuffer(4).plan_chain([])

    def test_hit_rate(self):
        plb = PosMapLookasideBuffer(4)
        plb.insert(1)
        plb.probe(1)
        plb.probe(2)
        assert plb.stats.hit_rate == pytest.approx(0.5)


class TestPlbInController:
    def make_config(self, plb_entries: int) -> SystemConfig:
        return SystemConfig(
            oram=small_test_config(10),
            scheduler=SchedulerConfig(label_queue_size=8),
            cache=CacheConfig(policy="none"),
            recursion=RecursionConfig(
                enabled=True,
                labels_per_block=8,
                onchip_posmap_bytes=256,
                plb_entries=plb_entries,
            ),
        )

    def run(self, plb_entries: int):
        trace = hotspot_trace(300, 100, 150.0, random.Random(5))
        controller = ForkPathController(
            self.make_config(plb_entries),
            TraceSource(trace),
            rng=random.Random(11),
        )
        metrics = controller.run()
        return controller, metrics

    def test_plb_reduces_tree_accesses(self):
        _, without = self.run(plb_entries=0)
        controller, with_plb = self.run(plb_entries=64)
        assert controller.plb is not None
        assert controller.plb.stats.accesses_saved > 0
        total_without = without.real_accesses + without.dummy_accesses
        total_with = with_plb.real_accesses + with_plb.dummy_accesses
        assert with_plb.real_accesses < without.real_accesses

    def test_plb_preserves_values(self):
        trace = hotspot_trace(400, 100, 150.0, random.Random(9))
        controller = ForkPathController(
            self.make_config(64), TraceSource(trace), rng=random.Random(1)
        )
        source = controller.source
        controller.run()
        latest: dict[int, object] = {}
        for request in sorted(source.completed, key=lambda r: r.arrival_ns):
            if request.is_write:
                latest[request.addr] = request.payload
            else:
                assert request.value == latest.get(request.addr)

    def test_plb_disabled_without_recursion(self):
        config = SystemConfig(
            oram=small_test_config(8),
            recursion=RecursionConfig(enabled=False, plb_entries=64),
        )
        controller = ForkPathController(config, TraceSource([]))
        assert controller.plb is None


class TestReplacementScope:
    def run_scope(self, scope: str):
        config = SystemConfig(
            oram=small_test_config(10),
            scheduler=SchedulerConfig(
                label_queue_size=16, replacement_scope=scope
            ),
            cache=CacheConfig(policy="none"),
        )
        # Bursty arrivals: long quiet gaps force committed dummies.
        events = []
        t = 0.0
        rng = random.Random(4)
        for burst in range(60):
            t += 6_000.0
            for i in range(3):
                events.append((t + i * 100.0, rng.randrange(300), False))
        from repro.workloads.trace import make_trace

        controller = ForkPathController(
            config, TraceSource(make_trace(events)), rng=random.Random(2)
        )
        return controller.run()

    def test_queue_scope_executes_fewer_dummies(self):
        queue_scope = self.run_scope("queue")
        arrival_scope = self.run_scope("arrival")
        assert queue_scope.dummy_accesses <= arrival_scope.dummy_accesses
        assert queue_scope.avg_latency_ns <= arrival_scope.avg_latency_ns * 1.2

    def test_unknown_scope_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(replacement_scope="psychic")
