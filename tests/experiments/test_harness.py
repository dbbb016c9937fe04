"""Experiment harness: references, baselines, normalization, caching."""

import pytest

from repro.experiments.engine import ResultCache
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentHarness,
    PairOutcome,
)
from tests.experiments.test_engine import _count_sim_runs


class TestConfig:
    def test_derive_seed_deterministic(self):
        cfg = ExperimentConfig(seed=5)
        assert cfg.derive_seed("a", "b") == cfg.derive_seed("a", "b")
        assert cfg.derive_seed("a", "b") != cfg.derive_seed("b", "a")
        assert (
            ExperimentConfig(seed=6).derive_seed("a", "b")
            != cfg.derive_seed("a", "b")
        )

    def test_make_manager_applies_configs(self):
        from repro.core.config import DPSConfig

        cfg = ExperimentConfig(dps=DPSConfig(use_kalman=False))
        mgr = cfg.make_manager("dps")
        assert not mgr.config.use_kalman  # type: ignore[attr-defined]

    def test_make_manager_baselines(self):
        cfg = ExperimentConfig()
        assert cfg.make_manager("constant").name == "constant"
        assert cfg.make_manager("oracle").name == "oracle"


class TestReferences:
    def test_uncapped_reference_cached(self, fast_config):
        harness = ExperimentHarness(fast_config)
        first = harness.uncapped_reference("sort")
        second = harness.uncapped_reference("sort")
        assert first is second
        assert first.mean_power_w > 0
        assert first.mean_duration_s > 0

    def test_constant_baseline_cached(self, fast_config):
        harness = ExperimentHarness(fast_config)
        b1 = harness.constant_baseline("sort", "wordcount")
        b2 = harness.constant_baseline("sort", "wordcount")
        assert b1 is b2
        assert b1.manager == "constant"


class TestRunPair:
    def test_outcome_fields(self, fast_config):
        harness = ExperimentHarness(fast_config)
        outcome = harness.run_pair("sort", "wordcount", "slurm")
        assert isinstance(outcome, PairOutcome)
        assert len(outcome.times_a_s) >= fast_config.repeats
        assert outcome.max_caps_sum_w <= (
            fast_config.cluster.budget_w * (1 + 1e-6)
        )

    def test_self_pair_reports_each_half(self, fast_config):
        # The high-utility group pairs every demanding workload with
        # itself too; half 1 used to come back as a copy of half 0.
        harness = ExperimentHarness(fast_config)
        outcome, result = harness.run_pair(
            "linear", "linear", "dps", record_telemetry=True
        )
        assert (outcome.workload_a, outcome.workload_b) == ("linear", "linear")
        half_a, half_b = result.executions
        assert half_a.spec.name != half_b.spec.name
        assert outcome.times_a_s == tuple(
            r.duration_s for r in half_a.records
        )
        assert outcome.times_b_s == tuple(
            r.duration_s for r in half_b.records
        )
        assert outcome.power_b_w == half_b.mean_power_w()
        assert outcome.power_a_w != outcome.power_b_w
        assert len(result.events.of_kind("run_completed")) == (
            half_a.runs_completed + half_b.runs_completed
        )

    def test_telemetry_variant(self, fast_config):
        harness = ExperimentHarness(fast_config)
        outcome, result = harness.run_pair(
            "sort", "wordcount", "slurm", record_telemetry=True
        )
        assert result.telemetry is not None
        assert isinstance(outcome, PairOutcome)


class TestTruncation:
    def test_step_limit_raises_with_guidance(self, fast_config):
        import dataclasses

        from repro.core.config import SimulationConfig

        cramped = dataclasses.replace(
            fast_config,
            sim=SimulationConfig(
                time_scale=0.05, max_steps=3, inter_run_gap_s=2.0
            ),
        )
        harness = ExperimentHarness(cramped)
        with pytest.raises(RuntimeError, match="max_steps"):
            harness.run_pair("kmeans", "gmm", "constant")


class TestEvaluatePair:
    def test_constant_is_unity(self, fast_config):
        harness = ExperimentHarness(fast_config)
        ev = harness.evaluate_pair("sort", "wordcount", "constant")
        assert ev.speedup_a == pytest.approx(1.0)
        assert ev.speedup_b == pytest.approx(1.0)
        assert ev.hmean_speedup == pytest.approx(1.0)

    def test_metrics_in_range(self, fast_config):
        harness = ExperimentHarness(fast_config)
        ev = harness.evaluate_pair("sort", "wordcount", "dps")
        assert 0 <= ev.satisfaction_a <= 1
        assert 0 <= ev.satisfaction_b <= 1
        assert 0 <= ev.fairness <= 1
        assert ev.speedup_a > 0 and ev.speedup_b > 0

    def test_evaluate_managers_keys(self, fast_config):
        harness = ExperimentHarness(fast_config)
        out = harness.evaluate_managers(
            "sort", "wordcount", ("slurm", "dps")
        )
        assert set(out) == {"slurm", "dps"}


class TestEnginePath:
    def test_each_job_runs_once_then_comes_from_the_cache(
        self, fast_config, tmp_path, monkeypatch
    ):
        calls = _count_sim_runs(monkeypatch)
        managers = ("slurm", "dps")
        cold = ExperimentHarness(
            fast_config, cache=ResultCache(tmp_path)
        ).evaluate_managers("kmeans", "gmm", managers)
        # Two references, one baseline and two pairs.
        assert len(calls) == 5
        warm_cache = ResultCache(tmp_path)
        warm = ExperimentHarness(
            fast_config, cache=warm_cache
        ).evaluate_managers("kmeans", "gmm", managers)
        assert len(calls) == 5
        assert warm_cache.hits == 5
        assert warm == cold
