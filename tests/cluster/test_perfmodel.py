"""Cap-to-performance model properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _native
from repro.core.config import PerfModelConfig
from repro.cluster.perfmodel import progress_rate
from tests.core import oracles

CFG = PerfModelConfig(idle_power_w=12.0, theta=2.0, min_rate=0.05)


class TestBasics:
    def test_uncapped_full_speed(self):
        assert progress_rate(165.0, 150.0, CFG) == pytest.approx(1.0)

    def test_cap_equal_demand_full_speed(self):
        assert progress_rate(150.0, 150.0, CFG) == pytest.approx(1.0)

    def test_capped_below_demand_slows(self):
        rate = progress_rate(110.0, 160.0, CFG)
        expected = ((110.0 - 12.0) / (160.0 - 12.0)) ** 0.5
        assert rate == pytest.approx(expected)

    def test_demand_below_idle_full_speed(self):
        assert progress_rate(0.0, 5.0, CFG) == pytest.approx(1.0)

    def test_min_rate_floor(self):
        assert progress_rate(13.0, 165.0, CFG) >= 0.05

    def test_theta_one_linear(self):
        cfg = PerfModelConfig(idle_power_w=12.0, theta=1.0)
        rate = progress_rate(86.0, 160.0, cfg)
        assert rate == pytest.approx((86.0 - 12.0) / (160.0 - 12.0))

    def test_higher_theta_gentler_penalty(self):
        mild = PerfModelConfig(theta=3.0)
        harsh = PerfModelConfig(theta=1.0)
        assert progress_rate(110.0, 160.0, mild) > progress_rate(
            110.0, 160.0, harsh
        )

    def test_vectorized(self):
        rates = progress_rate(
            np.array([165.0, 110.0]), np.array([150.0, 160.0]), CFG
        )
        assert rates.shape == (2,)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] < 1.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            progress_rate(-1.0, 100.0, CFG)
        with pytest.raises(ValueError):
            progress_rate(100.0, -1.0, CFG)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rate_bounded(self, seed):
        rng = np.random.default_rng(seed)
        caps = rng.uniform(0, 200, size=16)
        demand = rng.uniform(0, 200, size=16)
        rates = progress_rate(caps, demand, CFG)
        assert np.all(rates >= CFG.min_rate - 1e-12)
        assert np.all(rates <= 1.0 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_cap(self, seed):
        rng = np.random.default_rng(seed)
        demand = float(rng.uniform(50, 200))
        caps = np.sort(rng.uniform(0, 200, size=10))
        rates = progress_rate(caps, np.full(10, demand), CFG)
        assert np.all(np.diff(rates) >= -1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_antitone_in_demand(self, seed):
        rng = np.random.default_rng(seed)
        cap = float(rng.uniform(30, 160))
        demands = np.sort(rng.uniform(20, 200, size=10))
        rates = progress_rate(np.full(10, cap), demands, CFG)
        assert np.all(np.diff(rates) <= 1e-12)


def both_paths(cap, demand, config):
    """``progress_rate`` compiled and as a compiler-less host runs it:
    the bytes returned, or the ValueError raised."""
    got = oracles.outcome(lambda: progress_rate(cap, demand, config))
    with oracles.no_native():
        assert oracles.outcome(lambda: progress_rate(cap, demand, config)) == got
    return got


class TestCompiledLockstep:
    """The compiled pass returns the NumPy passes' bytes wherever it
    runs (theta 1 or 2, equal 1-D shapes) and the NumPy result
    elsewhere."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 64),
        theta=st.sampled_from([1.0, 2.0, 3.0]),
        idle=st.sampled_from([12.0, 0.0, 165.0]),
        min_rate=st.sampled_from([0.05, 1.0, 1e-300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_caps_and_demands(self, n, theta, idle, min_rate, seed):
        cfg = PerfModelConfig(idle_power_w=idle, theta=theta, min_rate=min_rate)
        draw = np.random.default_rng(seed)
        edge = np.array([0.0, -0.0, idle, 165.0, 30.0, 1e-9, 1e300])
        cap = np.where(
            draw.random(n) < 0.3, draw.choice(edge, n), draw.uniform(0, 200, n)
        )
        demand = np.where(
            draw.random(n) < 0.3, draw.choice(edge, n), draw.uniform(0, 200, n)
        )
        tie = draw.random(n) < 0.2
        demand[tie] = cap[tie]
        got = both_paths(cap, demand, cfg)
        assert got[0] == "returned" and got[2] == (n,)

    @pytest.mark.parametrize("theta, compiled", [(1.0, 1), (2.0, 1), (3.0, 0)])
    def test_theta_one_and_two_compile(self, theta, compiled):
        cfg = PerfModelConfig(theta=theta)
        with oracles.counting("progress_rate") as calls:
            both_paths(np.full(3, 110.0), np.full(3, 160.0), cfg)
        assert len(calls) == (compiled if _native.kernels() else 0)

    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
    def test_nan_passes_the_check_and_stays_nan(self, theta):
        cfg = PerfModelConfig(theta=theta)
        cap = np.array([np.nan, 100.0, 100.0, -1.0])
        demand = np.array([150.0, np.nan, 150.0, np.nan])
        got = both_paths(cap[:3], demand[:3], cfg)
        rate = np.frombuffer(got[3])
        assert np.isnan(rate[:2]).all() and rate[2] < 1.0
        # A negative value still rejects, NaN beside it or not.
        assert both_paths(cap, demand, cfg) == (
            "raised", "caps and demands must be >= 0"
        )

    @pytest.mark.parametrize(
        "cap, demand",
        [
            ([100.0, -1.0], [150.0, 150.0]),
            ([100.0, 100.0], [150.0, -1e-300]),
            ([-np.inf, 100.0], [1.0, 1.0]),
        ],
    )
    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
    def test_a_negative_input_is_rejected_alike(self, cap, demand, theta):
        got = both_paths(np.array(cap), np.array(demand), PerfModelConfig(theta=theta))
        assert got == ("raised", "caps and demands must be >= 0")

    @pytest.mark.parametrize(
        "cap, demand",
        [
            (110.0, 160.0),  # Scalars.
            (np.array([[110.0, 50.0]]), np.array([[160.0, 40.0]])),  # 2-D.
            (np.full(3, 110.0), 160.0),  # Broadcast.
            (np.arange(8.0)[::2] * 30, np.full(4, 100.0)),  # Strided.
            (np.full(3, 110.0, dtype=np.float32), [160.0, 5.0, 110.0]),
            (np.empty(0), np.empty(0)),
        ],
    )
    def test_other_inputs_take_the_numpy_passes(self, cap, demand):
        both_paths(cap, demand, CFG)
