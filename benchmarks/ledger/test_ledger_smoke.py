"""Smoke test of the cost ledger (not part of tier-1: ``testpaths = tests``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py

Each workload is run through the driver form of the command at 1/20 of
its size, untraced and traced; the test checks that every named metric
is emitted, that the traced wall time is partitioned exactly, and that
tracing does not change what the closed-loop workloads do.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

import report  # noqa: E402
import run as ledger  # noqa: E402
import workloads  # noqa: E402

CONTRACT = report.CONTRACT


def _run(name: str, trace: int):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--workload", name, "--seed", "7", "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2][len(ledger.DETAIL_PREFIX):])
    return detail, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    detail, line = _run(name, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    for entry in CONTRACT["end_to_end"]:
        value = line["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"] and value["value"] > 0, entry
    defined = {m.name for m in report.END_TO_END if m.defined_on(name)}
    assert set(detail["end_to_end"]) == defined
    assert detail["end_to_end"]["failed_fraction"]["median"] == 0
    for key in ("cpu_count", "python", "commit", "seed",
                "loadavg_before", "loadavg_after"):
        assert key in detail["host"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_partitions_the_wall_exactly(name):
    detail, line = _run(name, 1)
    assert line["correct"]
    assert list(line["metrics"]) == [m.name for m in report.PER_LAYER]
    assert sum(detail["partition_ns"].values()) == detail["traced_wall_ns"]
    assert detail["missing_hooks"] == []
    layers = detail["per_layer"]
    assert layers["serve.engine.underfull_rounds"] == 0
    assert layers["trace.spans"] > 0 and layers["trace.overhead_ratio"] > 0
    if name != "kv-recursive":
        assert layers["posmap.self_us_per_op"] == 0
    if name != "engine-durable":  # NullCipher's work is oram.records
        assert layers["oram.encryption.seal_us_per_op"] == 0
        assert layers["oram.encryption.open_us_per_op"] == 0
    if name != "kv-open":
        # Closed loop: the traced repeat moves exactly the buckets the
        # untraced one does (open loop depends on how fast the host is).
        buckets = detail["buckets_per_op"]
        assert buckets["traced"] == buckets["untraced"]
    if name not in ("sim-fork", "engine-durable"):
        assert layers["serve.protocol.calls_per_op"] == 2
    spans = (REPO_ROOT / detail["spans_file"]).read_text().splitlines()
    assert len(spans) == layers["trace.spans"] + 1
    assert json.loads(spans[0])["columns"][1] == "layer"


def test_contract_file_names_the_command_and_the_workloads():
    assert CONTRACT["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_a_changed_simulator_fingerprint_is_reported(monkeypatch):
    assert workloads.WORKLOADS["sim-fork"].verify() == []
    monkeypatch.setattr(workloads, "FINGERPRINT", (1.0, 1.0))
    (problem,) = workloads.WORKLOADS["sim-fork"].verify()
    assert "fingerprint" in problem


def test_compare_verdicts():
    metric = report.END_TO_END[0]  # ops_per_s, higher is better, 10 %
    base = report.summarise([100.0, 101.0, 99.0, 100.5, 99.5])
    assert report.verdict(metric, base, base) == "within bound"
    assert report.verdict(
        metric, base, report.summarise([80.0, 81.0, 79.0, 80.5, 79.5])
    ) == "regressed"
    assert report.verdict(
        metric, base, report.summarise([120.0, 121.0, 119.0, 120.5, 119.5])
    ) == "improved"
    assert report.verdict(
        metric, base, report.summarise([60.0, 140.0, 95.0, 100.0, 105.0])
    ) == "unresolved"
    exact = next(m for m in report.END_TO_END if m.name == "sim_latency_ns")
    one = report.summarise([5.0] * 3)
    assert report.verdict(exact, one, one) == "within bound"
    assert report.verdict(exact, one, report.summarise([5.1] * 3)) == "regressed"
