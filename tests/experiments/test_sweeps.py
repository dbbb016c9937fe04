"""Budget and noise sweeps."""

import pytest

from repro.experiments.engine import ResultCache
from repro.experiments.sweeps import budget_sweep, noise_sweep
from tests.experiments.test_engine import _count_sim_runs


class TestBudgetSweep:
    def test_points_per_fraction_and_manager(self, fast_config):
        points = budget_sweep(
            fast_config,
            pair=("bayes", "sort"),
            budget_fractions=(0.6, 0.8),
            managers=("constant", "slurm"),
        )
        assert len(points) == 4
        assert {p.parameter for p in points} == {0.6, 0.8}
        assert {p.manager for p in points} == {"constant", "slurm"}

    def test_constant_is_unity_at_every_budget(self, fast_config):
        points = budget_sweep(
            fast_config,
            pair=("bayes", "sort"),
            budget_fractions=(0.6, 0.9),
            managers=("constant",),
        )
        for p in points:
            assert p.hmean_speedup == pytest.approx(1.0)

    def test_rejects_bad_fraction(self, fast_config):
        with pytest.raises(ValueError, match="fractions"):
            budget_sweep(fast_config, budget_fractions=(1.5,))

    def test_rejects_empty(self, fast_config):
        with pytest.raises(ValueError, match="non-empty"):
            budget_sweep(fast_config, budget_fractions=())


class TestNoiseSweep:
    def test_points_generated(self, fast_config):
        points = noise_sweep(
            fast_config,
            pair=("bayes", "sort"),
            noise_stds_w=(0.0, 4.0),
            managers=("dps",),
        )
        assert len(points) == 2
        for p in points:
            assert 0 <= p.fairness <= 1
            assert p.hmean_speedup > 0

    def test_rejects_negative_noise(self, fast_config):
        with pytest.raises(ValueError, match=">= 0"):
            noise_sweep(fast_config, noise_stds_w=(-1.0,))


class TestEnginePath:
    def test_parallel_budget_sweep_matches_inline(self, fast_config):
        kwargs = dict(
            pair=("bayes", "sort"),
            budget_fractions=(0.6, 0.8),
            managers=("constant", "slurm"),
        )
        assert budget_sweep(fast_config, jobs=2, **kwargs) == budget_sweep(
            fast_config, jobs=1, **kwargs
        )

    def test_parallel_noise_sweep_matches_inline(self, fast_config):
        kwargs = dict(
            pair=("bayes", "sort"), noise_stds_w=(0.0, 4.0), managers=("dps",)
        )
        assert noise_sweep(fast_config, jobs=2, **kwargs) == noise_sweep(
            fast_config, jobs=1, **kwargs
        )

    def test_warm_cache_sweep_runs_no_simulation(
        self, fast_config, tmp_path, monkeypatch
    ):
        kwargs = dict(
            pair=("bayes", "sort"),
            budget_fractions=(0.6, 0.8),
            managers=("constant", "slurm"),
        )
        cold = budget_sweep(fast_config, cache=ResultCache(tmp_path), **kwargs)
        calls = _count_sim_runs(monkeypatch)
        warm_cache = ResultCache(tmp_path)
        warm = budget_sweep(fast_config, cache=warm_cache, **kwargs)
        assert calls == []
        assert warm == cold
        assert warm_cache.misses == warm_cache.invalid == 0
