"""RAPL domain: cap enforcement, lag, energy counter, meter."""

import numpy as np
import pytest

from repro.core.config import RaplConfig
from repro.powercap.rapl import RaplBank, RaplDomain

QUIET = RaplConfig(noise_std_w=0.0, lag_tau_s=0.8)


def domain(config=QUIET, initial_power_w=12.0, rng=None):
    """The view of a one-unit bank; with ``rng``, its meter attached."""
    bank = RaplBank(1, 165.0, 30.0, config, initial_power_w)
    if rng is not None:
        bank.attach_meter(0, rng)
    return RaplDomain.of_bank(bank, 0, "pkg")


def metered(config=QUIET, initial_power_w=12.0, seed=0):
    """A domain and its meter's reader (one reading per call)."""
    d = domain(config, initial_power_w, np.random.default_rng(seed))
    return d, lambda dt_s: d.bank.read_powers_w(dt_s).item()


class TestConstruction:
    def test_rejects_nonpositive_max(self):
        with pytest.raises(ValueError, match="max_power_w"):
            RaplDomain("x", max_power_w=0.0)

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError, match="min_power_w"):
            RaplDomain("x", max_power_w=100.0, min_power_w=150.0)

    def test_rejects_initial_above_max(self):
        with pytest.raises(ValueError, match="initial_power_w"):
            RaplDomain("x", max_power_w=100.0, initial_power_w=150.0)

    def test_cap_starts_at_max(self):
        assert domain().cap_w == 165.0


class TestCapSetting:
    def test_clamps_to_range(self):
        d = domain()
        assert d.set_cap_w(500.0) == 165.0
        assert d.set_cap_w(1.0) == 30.0
        assert d.set_cap_w(110.0) == 110.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            domain().set_cap_w(float("nan"))


class TestPhysics:
    def test_power_approaches_demand(self):
        d = domain()
        for _ in range(10):
            d.step(150.0, 1.0)
        assert d.power_w == pytest.approx(150.0, abs=1.0)

    def test_power_never_exceeds_cap(self):
        d = domain()
        d.set_cap_w(90.0)
        for _ in range(10):
            p = d.step(160.0, 1.0)
            assert p <= 90.0 + 1e-12

    def test_lag_slows_transition(self):
        d = domain()
        p1 = d.step(160.0, 1.0)
        assert 12.0 < p1 < 160.0  # Mid-transition after one tau-ish step.

    def test_faster_with_longer_dt(self):
        slow = domain()
        fast = domain()
        p_slow = slow.step(160.0, 0.5)
        p_fast = fast.step(160.0, 3.0)
        assert p_fast > p_slow

    def test_power_decays_when_demand_drops(self):
        d = domain()
        for _ in range(10):
            d.step(150.0, 1.0)
        for _ in range(10):
            d.step(20.0, 1.0)
        assert d.power_w == pytest.approx(20.0, abs=1.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError, match="demand_w"):
            domain().step(-1.0, 1.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt_s"):
            domain().step(100.0, 0.0)


class TestEnergyCounter:
    def test_counter_monotonic_without_wrap(self):
        d = domain()
        last = d.read_energy_uj()
        for _ in range(20):
            d.step(150.0, 1.0)
            now = d.read_energy_uj()
            assert now >= last
            last = now

    def test_counter_integrates_power(self):
        d = domain()
        for _ in range(40):
            d.step(100.0, 1.0)
        start = d.read_energy_uj()
        d.step(100.0, 1.0)  # Steady at 100 W for 1 s = 100 J = 1e8 uJ.
        assert d.read_energy_uj() - start == pytest.approx(1e8, rel=0.01)

    def test_counter_wraps(self):
        # Wrap chosen to not divide the per-step energy so the modulo moves.
        cfg = RaplConfig(noise_std_w=0.0, counter_wrap_uj=77_777_777)
        d = domain(cfg, initial_power_w=100.0)
        seen_wrap = False
        last = d.read_energy_uj()
        for _ in range(20):
            d.step(100.0, 1.0)  # 1e8 uJ per step > wrap.
            now = d.read_energy_uj()
            assert 0 <= now < 77_777_777
            if now < last:
                seen_wrap = True
            last = now
        assert seen_wrap


class TestPowerMeter:
    def test_meter_reads_average_power(self):
        d, read = metered()
        for _ in range(30):
            d.step(120.0, 1.0)
            read(1.0)
        d.step(120.0, 1.0)
        assert read(1.0) == pytest.approx(120.0, abs=1.0)

    def test_meter_survives_counter_wrap(self):
        cfg = RaplConfig(noise_std_w=0.0, counter_wrap_uj=200_000_000)
        d, read = metered(cfg, initial_power_w=150.0)
        readings = []
        for _ in range(10):  # 1.5e8 uJ/step wraps every other step.
            d.step(150.0, 1.0)
            readings.append(read(1.0))
        assert all(abs(r - 150.0) < 2.0 for r in readings)

    def test_noise_applied(self):
        cfg = RaplConfig(noise_std_w=3.0)
        d, read = metered(cfg, initial_power_w=100.0, seed=1)
        readings = []
        for _ in range(200):
            d.step(100.0, 1.0)
            readings.append(read(1.0))
        assert 1.5 < np.std(readings[20:]) < 4.5

    def test_reading_never_negative(self):
        cfg = RaplConfig(noise_std_w=50.0)
        d, read = metered(cfg, initial_power_w=5.0, seed=2)
        for _ in range(50):
            d.step(5.0, 1.0)
            assert read(1.0) >= 0.0

    def test_rejects_nonpositive_dt(self):
        _, read = metered()
        with pytest.raises(ValueError, match="dt_s"):
            read(0.0)
