"""Processor-side memory system: caches, cores, full-system plumbing."""

from __future__ import annotations

import random

import pytest

from repro.config import CacheConfig, OramConfig, ProcessorConfig, SystemConfig
from repro.errors import ConfigError
from repro.memsys.cache import CacheHierarchy, SetAssociativeCache
from repro.memsys.processor import Core, CoreCluster, build_cluster
from repro.memsys.system import FullSystemResult, InsecureMemorySystem
from repro.workloads.spec import spec_benchmark
from repro import Simulation, fork_path_scheduler, traditional_scheduler


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(1024, ways=2, line_bytes=64)
        hit, _ = cache.access(5, False)
        assert not hit
        hit, _ = cache.access(5, False)
        assert hit

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(2 * 64, ways=2, line_bytes=64)  # 1 set
        cache.access(0, False)
        cache.access(1, False)
        cache.access(0, False)  # refresh 0
        _, victim = cache.access(2, False)
        assert victim is None  # victim 1 was clean
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_dirty_eviction_reports_writeback(self):
        cache = SetAssociativeCache(2 * 64, ways=2, line_bytes=64)
        cache.access(0, True)
        cache.access(1, False)
        _, victim = cache.access(2, False)
        assert victim == 0
        assert cache.stats.writebacks == 1

    def test_flush_returns_dirty_lines(self):
        cache = SetAssociativeCache(1024, ways=2, line_bytes=64)
        cache.access(1, True)
        cache.access(2, False)
        assert cache.flush() == [1]
        assert not cache.contains(1)

    def test_miss_rate(self):
        cache = SetAssociativeCache(1024, ways=2)
        cache.access(1, False)
        cache.access(1, False)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(100, ways=2, line_bytes=64)
        with pytest.raises(ConfigError):
            SetAssociativeCache(3 * 64, ways=2, line_bytes=64)
        with pytest.raises(ConfigError):
            SetAssociativeCache(1024, ways=0)


class TestCacheHierarchy:
    def test_l1_hit_never_reaches_l2(self):
        hierarchy = CacheHierarchy(ProcessorConfig(num_cores=1))
        hierarchy.access(0, 1, False)
        l2_misses = hierarchy.l2.stats.misses
        miss, requests = hierarchy.access(0, 1, False)
        assert not miss
        assert requests == []
        assert hierarchy.l2.stats.misses == l2_misses

    def test_llc_miss_generates_fill_request(self):
        hierarchy = CacheHierarchy(ProcessorConfig(num_cores=1))
        miss, requests = hierarchy.access(0, 42, False)
        assert miss
        assert (42, False) in requests

    def test_private_l1_shared_l2(self):
        hierarchy = CacheHierarchy(ProcessorConfig(num_cores=2))
        hierarchy.access(0, 7, False)   # core 0 warms L1.0 and L2
        miss, _ = hierarchy.access(1, 7, False)  # core 1: L1 miss, L2 hit
        assert not miss
        assert hierarchy.l1s[1].stats.misses == 1

    def test_calibrated_mpki(self):
        hierarchy = CacheHierarchy(ProcessorConfig(num_cores=1))
        rng = random.Random(1)
        for _ in range(4000):
            hierarchy.access(0, rng.randrange(1 << 16), False)
        mpki = hierarchy.calibrated_mpki(instructions=4_000_000)
        assert 0 < mpki < 1.2

    def test_core_id_bounds(self):
        hierarchy = CacheHierarchy(ProcessorConfig(num_cores=1))
        with pytest.raises(ConfigError):
            hierarchy.access(3, 0, False)


class TestCore:
    def make_core(self, core_type="ooo", n=10, mlp=4) -> Core:
        processor = ProcessorConfig(num_cores=1, core_type=core_type, mlp=mlp)
        return Core(
            core_id=0,
            benchmark=spec_benchmark("429.mcf"),
            processor=processor,
            rng=random.Random(3),
            num_requests=n,
            footprint_cap=1000,
        )

    def test_window_limits_outstanding(self):
        core = self.make_core(mlp=2)
        issued = core.pop_arrivals(1e9)
        assert len(issued) == 2
        assert core.next_arrival_ns() == float("inf")

    def test_completion_reopens_window(self):
        core = self.make_core(mlp=2)
        issued = core.pop_arrivals(1e9)
        core.on_complete(issued[0], 500.0)
        assert core.next_arrival_ns() < float("inf")
        more = core.pop_arrivals(1e9)
        assert len(more) == 1

    def test_inorder_blocks_on_each_miss(self):
        core = self.make_core(core_type="inorder")
        assert len(core.pop_arrivals(1e9)) == 1

    def test_done_after_all_complete(self):
        core = self.make_core(n=3, mlp=8)
        requests = core.pop_arrivals(1e9)
        assert core.exhausted()
        assert not core.done()
        for request in requests:
            core.on_complete(request, 100.0)
        assert core.done()
        assert core.finish_ns == 100.0

    def test_exec_time_includes_compute(self):
        core = self.make_core(n=1)
        core.instructions = 1_000_000
        request = core.pop_arrivals(1e9)[0]
        core.on_complete(request, 10.0)
        # mcf: 1M instr / ipc 0.3 / 2 GHz ≈ 1.67 ms of compute.
        assert core.exec_time_ns() > 1e6

    def test_spurious_completion_rejected(self):
        core = self.make_core(core_type="inorder")
        request = core.pop_arrivals(1e9)[0]
        core.on_complete(request, 1.0)
        with pytest.raises(ConfigError):
            core.on_complete(request, 2.0)


class TestCluster:
    def test_build_cluster_private_regions(self):
        cluster = build_cluster(
            [spec_benchmark("429.mcf")] * 2,
            ProcessorConfig(num_cores=2),
            random.Random(1),
            requests_per_core=5,
            footprint_cap=100,
        )
        addrs = {0: set(), 1: set()}
        for request in cluster.pop_arrivals(1e12):
            addrs[request.core_id].add(request.addr)
        assert all(addr < 100 for addr in addrs[0])
        assert all(100 <= addr < 200 for addr in addrs[1])

    def test_shared_footprint(self):
        cluster = build_cluster(
            [spec_benchmark("429.mcf")] * 2,
            ProcessorConfig(num_cores=2),
            random.Random(1),
            requests_per_core=5,
            footprint_cap=100,
            shared_footprint=True,
        )
        for request in cluster.pop_arrivals(1e12):
            assert request.addr < 100

    def test_instruction_budget_scales_misses_by_mpki(self):
        cluster = build_cluster(
            [spec_benchmark("429.mcf"), spec_benchmark("453.povray")],
            ProcessorConfig(num_cores=2),
            random.Random(1),
            instructions_per_core=100_000,
            footprint_cap=100,
        )
        mcf, povray = cluster.cores
        assert mcf.num_requests == 3200  # 32 MPKI
        assert povray.num_requests == 5  # 0.05 MPKI

    def test_exactly_one_budget_kind(self):
        with pytest.raises(ConfigError):
            build_cluster(
                [spec_benchmark("429.mcf")],
                ProcessorConfig(num_cores=1),
                random.Random(1),
                requests_per_core=5,
                instructions_per_core=100,
            )
        with pytest.raises(ConfigError):
            build_cluster(
                [spec_benchmark("429.mcf")],
                ProcessorConfig(num_cores=1),
                random.Random(1),
            )

    def test_benchmark_count_must_match_cores(self):
        with pytest.raises(ConfigError):
            build_cluster(
                [spec_benchmark("429.mcf")],
                ProcessorConfig(num_cores=2),
                random.Random(1),
                requests_per_core=5,
            )


class TestInsecureMemory:
    def test_serves_closed_loop_to_completion(self):
        cluster = build_cluster(
            [spec_benchmark("429.mcf")] * 2,
            ProcessorConfig(num_cores=2),
            random.Random(1),
            requests_per_core=200,
            footprint_cap=1000,
        )
        memory = InsecureMemorySystem(channels=2)
        finish = memory.run(cluster)
        assert cluster.done()
        assert finish > 0
        assert memory.served == 400

    def test_latency_is_tens_of_ns(self):
        memory = InsecureMemorySystem()
        assert memory.service_time(100.0) == pytest.approx(145.0)


def run_full_system(config, benchmarks, **kwargs) -> FullSystemResult:
    result = Simulation(config).run_system(benchmarks, **kwargs)
    assert result.full_system is not None
    return result.full_system


class TestSimulateSystem:
    def make_config(self, scheduler) -> SystemConfig:
        return SystemConfig(
            oram=OramConfig(levels=12, stash_capacity=300),
            scheduler=scheduler,
            cache=CacheConfig(policy="none"),
            processor=ProcessorConfig(num_cores=2),
        )

    def test_slowdown_greater_than_one(self):
        result = run_full_system(
            self.make_config(traditional_scheduler()),
            [spec_benchmark("429.mcf"), spec_benchmark("462.libquantum")],
            requests_per_core=300,
            footprint_cap=2000,
        )
        assert result.slowdown > 2.0
        assert result.metrics.real_completed == 600

    def test_fork_beats_traditional_on_memory_bound_mix(self):
        benchmarks = [spec_benchmark("429.mcf"), spec_benchmark("462.libquantum")]
        fork = run_full_system(
            self.make_config(fork_path_scheduler(32)),
            benchmarks,
            requests_per_core=400,
            footprint_cap=2000,
            seed=3,
        )
        trad = run_full_system(
            self.make_config(traditional_scheduler()),
            benchmarks,
            requests_per_core=400,
            footprint_cap=2000,
            seed=3,
        )
        assert fork.metrics.avg_latency_ns < trad.metrics.avg_latency_ns

    def test_footprint_must_fit_tree(self):
        with pytest.raises(ConfigError):
            run_full_system(
                self.make_config(traditional_scheduler()),
                [spec_benchmark("429.mcf"), spec_benchmark("470.lbm")],
                requests_per_core=10,
                footprint_cap=None,
            )

    def test_run_insecure_optional(self):
        result = run_full_system(
            self.make_config(traditional_scheduler()),
            [spec_benchmark("453.povray"), spec_benchmark("444.namd")],
            requests_per_core=20,
            footprint_cap=500,
            run_insecure=False,
        )
        assert result.insecure_finish_ns == 0.0
        assert result.slowdown == 0.0
