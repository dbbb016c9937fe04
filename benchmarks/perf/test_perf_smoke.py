"""Smoke test of the benchmark itself.

Run with ``python -m pytest benchmarks/perf -q`` (outside the tier-1
``testpaths``).  Everything runs at ``--quick`` scale in this process.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from benchmarks.perf.floor import E2E_UNITS
from benchmarks.perf.run import LAYER_UNITS, run_traced, run_untraced
from benchmarks.perf.scenarios import WORKLOADS
from benchmarks.perf.trace import BOUNDARIES

ROOT = Path(__file__).resolve().parents[2]


def quick(work: Path, seed: int = 12) -> dict:
    return {
        name: run_untraced(name, seed, seconds=20, quick=True, workdir=work)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def first(tmp_path_factory) -> dict:
    return quick(tmp_path_factory.mktemp("first"))


def test_every_end_to_end_metric_is_finite_named_and_has_its_unit(first):
    for name, detail in first.items():
        assert detail["failed"] == 0, (name, detail["notes"])
        assert detail["attempted"] == detail["passes"] * detail["cycles"]
        assert list(detail["metrics"]) == list(E2E_UNITS)
        for metric, reading in detail["metrics"].items():
            assert reading["unit"] == E2E_UNITS[metric]
            assert math.isfinite(reading["value"]) and reading["value"] > 0


def test_second_run_reproduces_digests_and_another_seed_does_not(first, tmp_path):
    again = quick(tmp_path)
    other = quick(tmp_path, seed=13)
    for name in WORKLOADS:
        assert again[name]["digest"] == first[name]["digest"]
        assert again[name]["cycles"] == first[name]["cycles"]
        assert other[name]["digest"] != first[name]["digest"]
        assert other[name]["failed"] == 0, (name, other[name]["notes"])


# Layers whose boundaries must have run on each workload.
EXPECTED_LAYERS = {
    "paper20-sim": ("core", "cluster", "workloads", "powercap"),
    "decide100k-mixed": ("core",),
    "decide100k-stress": ("core",),
    "guarded1k-sim": (
        "core", "cluster", "workloads", "powercap",
        "safety", "recovery", "telemetry",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_resolves_every_boundary_and_reports_its_layers(name, tmp_path):
    detail = run_traced(name, 12, quick=True, workdir=tmp_path)
    assert detail["trace_unresolved"] == []
    assert detail["failed"] == 0, detail["notes"]
    assert list(detail["metrics"]) == list(LAYER_UNITS)
    timed = {
        metric: reading["value"]
        for metric, reading in detail["metrics"].items()
        if metric.endswith("_ms") and not metric.startswith("shard.")
    }
    for metric, value in timed.items():
        layer = metric.split(".")[0]
        if layer in EXPECTED_LAYERS[name]:
            assert value is not None and value >= 0.0, metric
        else:
            assert value is None, metric
    assert detail["metrics"]["trace.coverage_pct"]["value"] > 80.0
    if name.startswith("decide100k-"):
        assert detail["metrics"]["core.stress_over_mixed"]["value"] > 0
        assert "core.priority" in detail["stress_gap_ms"]


def test_a_broken_boundary_name_reads_null_and_does_not_crash(tmp_path):
    broken = tuple(
        (dotted.replace("KalmanBank.update", "KalmanBank.renamed"), span)
        for dotted, span in BOUNDARIES
    )
    detail = run_traced(
        "decide100k-mixed", 12, quick=True, workdir=tmp_path, boundaries=broken
    )
    assert detail["trace_unresolved"] == ["repro.core.kalman.KalmanBank.renamed"]
    assert detail["metrics"]["core.kalman_ms"]["value"] is None
    assert detail["metrics"]["core.step_ms"]["value"] > 0
    assert detail["failed"] == 0


def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
