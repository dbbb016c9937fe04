"""Validation behaviour of every configuration dataclass."""

import sys

import pytest

from repro.core.config import (
    ClusterSpec,
    DPSConfig,
    KalmanConfig,
    PerfModelConfig,
    PriorityConfig,
    RaplConfig,
    ReadjustConfig,
    SimulationConfig,
    StatelessConfig,
)


class TestStatelessConfig:
    def test_defaults_valid(self):
        cfg = StatelessConfig()
        assert 0 < cfg.dec_threshold < cfg.inc_threshold <= 1

    def test_rejects_dec_threshold_above_inc(self):
        with pytest.raises(ValueError, match="dec_threshold"):
            StatelessConfig(inc_threshold=0.8, dec_threshold=0.9)

    def test_rejects_inc_factor_not_above_one(self):
        with pytest.raises(ValueError, match="inc_factor"):
            StatelessConfig(inc_factor=1.0)

    def test_rejects_dec_factor_out_of_range(self):
        with pytest.raises(ValueError, match="dec_factor"):
            StatelessConfig(dec_factor=1.0)
        with pytest.raises(ValueError, match="dec_factor"):
            StatelessConfig(dec_factor=0.0)

    def test_rejects_threshold_above_one(self):
        with pytest.raises(ValueError, match="inc_threshold"):
            StatelessConfig(inc_threshold=1.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StatelessConfig().inc_factor = 2.0  # type: ignore[misc]


class TestKalmanConfig:
    def test_defaults_valid(self):
        cfg = KalmanConfig()
        assert cfg.process_var > 0 and cfg.measurement_var > 0

    @pytest.mark.parametrize(
        "field", ["process_var", "measurement_var", "initial_var"]
    )
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            KalmanConfig(**{field: 0.0})


class TestPriorityConfig:
    def test_defaults_valid(self):
        cfg = PriorityConfig()
        assert cfg.deriv_window <= cfg.history_len

    def test_rejects_short_history(self):
        with pytest.raises(ValueError, match="history_len"):
            PriorityConfig(history_len=2)

    def test_rejects_window_beyond_history(self):
        with pytest.raises(ValueError, match="deriv_window"):
            PriorityConfig(history_len=5, deriv_window=6)

    def test_rejects_positive_dec_threshold(self):
        with pytest.raises(ValueError, match="deriv_dec_threshold"):
            PriorityConfig(deriv_dec_threshold=1.0)

    def test_rejects_zero_pp_threshold(self):
        with pytest.raises(ValueError, match="pp_threshold"):
            PriorityConfig(pp_threshold=0)

    def test_rejects_nonpositive_prominence(self):
        with pytest.raises(ValueError, match="peak_prominence"):
            PriorityConfig(peak_prominence=0.0)


class TestReadjustConfig:
    def test_defaults_valid(self):
        cfg = ReadjustConfig()
        assert 0 < cfg.restore_threshold <= 1

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="budget_epsilon"):
            ReadjustConfig(budget_epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -0.0, 5e-324, float("nan")])
    def test_rejects_an_epsilon_the_water_fill_can_stall_under(self, epsilon):
        with pytest.raises(ValueError, match="budget_epsilon must be >= 2.2"):
            ReadjustConfig(budget_epsilon=epsilon)

    def test_accepts_the_smallest_normal_epsilon(self):
        assert ReadjustConfig(budget_epsilon=sys.float_info.min)

    def test_rejects_zero_restore_threshold(self):
        with pytest.raises(ValueError, match="restore_threshold"):
            ReadjustConfig(restore_threshold=0.0)


class TestDPSConfig:
    def test_composes_defaults(self):
        cfg = DPSConfig()
        assert cfg.use_kalman and cfg.use_frequency

    def test_replace_switches(self):
        cfg = DPSConfig().replace(use_kalman=False)
        assert not cfg.use_kalman
        assert DPSConfig().use_kalman  # Original untouched.


class TestClusterSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.n_units == 20
        assert spec.budget_w == pytest.approx(20 * 165 * 2 / 3)
        assert spec.constant_cap_w == pytest.approx(110.0)

    def test_rejects_budget_fraction_above_one(self):
        with pytest.raises(ValueError, match="budget_fraction"):
            ClusterSpec(budget_fraction=1.5)

    def test_rejects_min_cap_at_tdp(self):
        with pytest.raises(ValueError, match="min_cap_w"):
            ClusterSpec(min_cap_w=165.0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="n_nodes"):
            ClusterSpec(n_nodes=0)

    def test_rejects_idle_above_tdp(self):
        with pytest.raises(ValueError, match="idle_power_w"):
            ClusterSpec(idle_power_w=200.0)


class TestPerfModelConfig:
    def test_defaults_valid(self):
        cfg = PerfModelConfig()
        assert cfg.theta >= 1

    def test_rejects_theta_below_one(self):
        with pytest.raises(ValueError, match="theta"):
            PerfModelConfig(theta=0.5)

    def test_rejects_min_rate_out_of_range(self):
        with pytest.raises(ValueError, match="min_rate"):
            PerfModelConfig(min_rate=0.0)
        with pytest.raises(ValueError, match="min_rate"):
            PerfModelConfig(min_rate=1.5)


class TestRaplConfig:
    def test_defaults_valid(self):
        cfg = RaplConfig()
        assert cfg.counter_wrap_uj > 0

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std_w"):
            RaplConfig(noise_std_w=-1.0)

    def test_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError, match="lag_tau_s"):
            RaplConfig(lag_tau_s=0.0)


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.dt_s == 1.0

    def test_rejects_nonpositive_time_scale(self):
        with pytest.raises(ValueError, match="time_scale"):
            SimulationConfig(time_scale=0.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError, match="inter_run_gap_s"):
            SimulationConfig(inter_run_gap_s=-1.0)
