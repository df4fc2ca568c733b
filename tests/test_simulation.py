"""The ``Simulation`` façade, config overrides, and the CLI glue."""

from __future__ import annotations

import random

import pytest

from repro import (
    CacheConfig,
    ConfigError,
    ForkPathController,
    RunResult,
    Simulation,
    SystemConfig,
    TraceSource,
    fork_path_scheduler,
    small_test_config,
)
from repro.obs import RingBufferSink, Tracer
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.synthetic import uniform_trace


def config() -> SystemConfig:
    from repro import ProcessorConfig

    return SystemConfig(
        oram=small_test_config(8),
        scheduler=fork_path_scheduler(16),
        cache=CacheConfig(policy="none"),
        processor=ProcessorConfig(num_cores=2, mlp=4),
    )


def trace(requests: int = 120):
    return uniform_trace(
        requests, 200, 40.0, random.Random(3), write_fraction=0.3
    )


def tiny_benchmarks():
    spec = BenchmarkSpec(
        name="toy",
        suite="synthetic",
        group="HG",
        mpki=30.0,
        footprint_blocks=40,
        write_fraction=0.3,
    )
    return [spec, spec]


class TestRun:
    def test_defaults_to_default_config(self):
        assert Simulation().config == SystemConfig()

    def test_matches_hand_built_controller(self):
        """The façade is sugar — same seeds, same simulation."""
        facade = Simulation(config()).run(trace(), rng=random.Random(4))
        manual = ForkPathController(
            config(), TraceSource(trace()), rng=random.Random(4)
        ).run()
        assert facade.metrics.summary() == manual.summary()

    def test_result_shape(self):
        result = Simulation(config()).run(trace())
        assert isinstance(result, RunResult)
        assert result.full_system is None
        assert result.slowdown == 0.0
        assert result.records is result.metrics.records
        assert result.controller is not None
        assert result.energy.total_mj > 0
        assert result.trace is None
        assert "energy_mj" in result.summary()

    def test_accepts_arrival_source_and_sequence(self):
        from_sequence = Simulation(config()).run(trace(),
                                                 rng=random.Random(4))
        from_source = Simulation(config()).run(
            TraceSource(trace()), rng=random.Random(4)
        )
        assert (from_sequence.metrics.summary()
                == from_source.metrics.summary())

    def test_run_caps_forwarded(self):
        result = Simulation(config()).run(trace(), max_requests=10)
        assert result.metrics.real_completed >= 10
        assert result.metrics.real_completed < 120

    def test_tracer_closed_after_run(self):
        tracer = Tracer(sinks=[RingBufferSink()])
        result = Simulation(config()).run(trace(), tracer=tracer)
        assert result.trace is tracer
        assert tracer._closed
        assert "observability" in result.summary()


class TestRunSystem:
    def test_populates_full_system(self):
        result = Simulation(config()).run_system(
            tiny_benchmarks(), requests_per_core=25
        )
        assert result.full_system is not None
        assert result.slowdown > 0
        summary = result.summary()
        assert summary["slowdown"] == result.slowdown
        assert "insecure_finish_ns" in summary

    def test_footprint_checked_eagerly(self):
        big = BenchmarkSpec(
            name="big",
            suite="synthetic",
            group="HG",
            mpki=30.0,
            footprint_blocks=10**9,
            write_fraction=0.3,
        )
        with pytest.raises(ConfigError):
            Simulation(config()).run_system([big, big], requests_per_core=5)

    def test_traced_system_run_brackets_and_core_counters(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        Simulation(config()).run_system(
            tiny_benchmarks(), tracer=tracer, requests_per_core=25
        )
        assert ring.events[0].kind == "run_started"
        assert ring.events[-1].kind == "run_finished"
        assert tracer.counters.get("cores.count") == 2
        assert tracer.counters.get("cores.issued") == 50


class TestFromOverrides:
    def test_dotted_and_kwarg_forms(self):
        built = SystemConfig.from_overrides(
            {"scheduler.label_queue_size": 128, "dram.timing.t_cas_ns": 12.5},
            nonstop=False,
            cache__policy="treetop",
        )
        assert built.scheduler.label_queue_size == 128
        assert built.dram.timing.t_cas_ns == 12.5
        assert built.nonstop is False
        assert built.cache.policy == "treetop"

    def test_string_values_coerced(self):
        built = SystemConfig.from_overrides(
            {
                "scheduler.label_queue_size": "0x20",
                "idle_gap_ns": "2.5",
                "nonstop": "false",
                "cache.policy": "none",
            }
        )
        assert built.scheduler.label_queue_size == 32
        assert built.idle_gap_ns == 2.5
        assert built.nonstop is False
        assert built.cache.policy == "none"

    def test_unknown_key_raises_and_lists_valid(self):
        with pytest.raises(ConfigError, match="label_queue_size"):
            SystemConfig.from_overrides({"scheduler.labelqueue": 1})
        with pytest.raises(ConfigError, match="unknown config key"):
            SystemConfig.from_overrides({"bogus": 1})

    def test_section_requires_leaf(self):
        with pytest.raises(ConfigError, match="config section"):
            SystemConfig.from_overrides({"scheduler": 5})
        with pytest.raises(ConfigError, match="plain value"):
            SystemConfig.from_overrides({"seed.x": 1})

    def test_bad_value_type_raises(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            SystemConfig.from_overrides({"oram.levels": "many"})
        with pytest.raises(ConfigError, match="bool"):
            SystemConfig.from_overrides({"nonstop": "perhaps"})

    def test_section_validation_still_eager(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_overrides({"scheduler.label_queue_size": 0})

    def test_levels_override_rederives_num_blocks(self):
        smaller = SystemConfig.from_overrides({"oram.levels": 8})
        assert smaller.oram.levels == 8
        assert smaller.oram.num_blocks == smaller.oram.max_data_blocks()

    def test_pinned_num_blocks_survives(self):
        base = SystemConfig.from_overrides(
            {"oram.levels": 10, "oram.num_blocks": 64}
        )
        shrunk = SystemConfig.from_overrides({"oram.levels": 8}, base=base)
        assert shrunk.oram.num_blocks == 64

    def test_base_untouched(self):
        base = SystemConfig()
        SystemConfig.from_overrides({"seed": 99}, base=base)
        assert base.seed == 0


class TestCliSet:
    def test_parse_overrides(self):
        from repro.cli import _parse_overrides

        assert _parse_overrides(["a.b=1", "c=x=y"]) == {
            "a.b": "1", "c": "x=y"
        }
        assert _parse_overrides(None) == {}
        with pytest.raises(SystemExit):
            _parse_overrides(["novalue"])

    def test_demo_accepts_set_and_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.schema import validate_file

        target = tmp_path / "demo.jsonl"
        code = main([
            "demo",
            "--set", "oram.levels=8",
            "--set", "scheduler.label_queue_size=8",
            "--trace", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fork path" in out
        for slug in ("traditional", "forkpath"):
            path = tmp_path / f"demo.{slug}.jsonl"
            assert path.exists()
            assert validate_file(str(path)) == []

    def test_bad_set_key_fails_fast(self):
        from repro.cli import main

        with pytest.raises(ConfigError, match="unknown config key"):
            main(["demo", "--set", "oram.bogus=1"])
