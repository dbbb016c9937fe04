"""Fault injection and manager robustness under corrupted telemetry."""

import numpy as np
import pytest

from repro.core.config import RaplConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig, FaultyMeter
from repro.powercap.rapl import PowerMeter, RaplDomain


def make_meter(seed=0):
    domain = RaplDomain(
        "pkg", 165.0, 30.0, RaplConfig(noise_std_w=0.0),
        initial_power_w=100.0,
    )
    return domain, PowerMeter(domain, np.random.default_rng(seed))


class TestFaultConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="stuck_prob"):
            FaultConfig(stuck_prob=1.5)

    def test_rejects_sum_above_one(self):
        with pytest.raises(ValueError, match="sum"):
            FaultConfig(stuck_prob=0.6, dropout_prob=0.6)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError, match="spike_gain"):
            FaultConfig(spike_gain=0.0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_rejects_non_finite_gain(self, gain):
        # A non-finite gain would pass here and poison the first spiked
        # reading the manager sees.
        with pytest.raises(ValueError, match="spike_gain must be finite"):
            FaultConfig(spike_prob=0.05, spike_gain=gain)


class TestFaultyMeter:
    def test_no_faults_passthrough(self):
        domain, meter = make_meter()
        faulty = FaultyMeter(meter, FaultConfig(), np.random.default_rng(1))
        domain.step(100.0, 1.0)
        assert faulty.read_power_w(1.0) == pytest.approx(100.0, abs=0.5)
        assert faulty.faults_injected == 0

    def test_dropout_returns_zero(self):
        domain, meter = make_meter()
        faulty = FaultyMeter(
            meter, FaultConfig(dropout_prob=1.0), np.random.default_rng(1)
        )
        domain.step(100.0, 1.0)
        assert faulty.read_power_w(1.0) == 0.0
        assert faulty.faults_injected == 1

    def test_stuck_repeats_previous(self):
        domain, meter = make_meter()
        cfg = FaultConfig(stuck_prob=0.0)
        faulty = FaultyMeter(meter, cfg, np.random.default_rng(1))
        domain.step(100.0, 1.0)
        first = faulty.read_power_w(1.0)
        faulty.config = FaultConfig(stuck_prob=1.0)  # type: ignore[misc]
        domain.step(150.0, 1.0)
        assert faulty.read_power_w(1.0) == first

    def test_spike_scales_reading(self):
        domain, meter = make_meter()
        faulty = FaultyMeter(
            meter,
            FaultConfig(spike_prob=1.0, spike_gain=2.0),
            np.random.default_rng(1),
        )
        domain.step(100.0, 1.0)
        assert faulty.read_power_w(1.0) == pytest.approx(200.0, abs=1.0)

    def test_fault_rate_statistical(self):
        domain, meter = make_meter()
        faulty = FaultyMeter(
            meter,
            FaultConfig(dropout_prob=0.2),
            np.random.default_rng(2),
        )
        for _ in range(500):
            domain.step(100.0, 1.0)
            faulty.read_power_w(1.0)
        assert 60 < faulty.faults_injected < 140  # ~100 expected.


class TestManagerRobustness:
    """Managers fed corrupted telemetry must keep their invariants."""

    @pytest.mark.parametrize("manager_name", ["slurm", "dps", "dps+"])
    def test_budget_held_under_faults(self, manager_name):
        mgr = create_manager(manager_name)
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        fault_rng = np.random.default_rng(4)
        caps = np.asarray(mgr.caps)
        for _ in range(60):
            demand = rng.uniform(20, 160, 4)
            power = np.minimum(demand, caps)
            # Corrupt ~20 % of readings with dropouts and spikes.
            roll = fault_rng.random(4)
            power = np.where(roll < 0.1, 0.0, power)
            power = np.where(
                (roll >= 0.1) & (roll < 0.2),
                np.minimum(power * 3.0, 400.0),
                power,
            )
            caps = mgr.step(power)
            assert np.all(np.isfinite(caps))
            assert caps.sum() <= 440.0 + 1e-6

    def test_dps_recovers_after_fault_burst(self):
        """A stuck-at-zero burst on one unit must not permanently strand
        its cap: once readings return, the unit regains budget."""
        mgr = create_manager("dps")
        mgr.bind(2, 240.0, 165.0, 0.0, rng=np.random.default_rng(0))
        caps = np.asarray(mgr.caps)
        demand = np.array([150.0, 150.0])
        # Healthy warm-up.
        for _ in range(10):
            caps = mgr.step(np.minimum(demand, caps))
        # Unit 0's meter reads zero for 10 steps (dropout burst).
        for _ in range(10):
            power = np.minimum(demand, caps)
            power[0] = 0.0
            caps = mgr.step(power)
        assert caps[0] < 60.0  # Budget was reclaimed, as it should be.
        # Readings return; unit 0's rising power re-earns its share.
        for _ in range(25):
            caps = mgr.step(np.minimum(demand, caps))
        assert caps[0] > 100.0
