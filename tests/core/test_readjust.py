"""Cap-readjusting module (paper Algorithms 3-4)."""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReadjustConfig
from repro.core.readjust import SATURATION_EPS_W, readjust, restore
from tests.core.oracles import no_native

CFG = ReadjustConfig(restore_threshold=0.8, budget_epsilon=1.0)


class TestRestore:
    def test_restores_when_all_quiet(self):
        result = restore(
            power_w=np.array([40.0, 50.0]),
            caps_w=np.array([60.0, 150.0]),
            initial_cap_w=110.0,
            config=CFG,
        )
        assert result.restored
        np.testing.assert_allclose(result.caps, [110.0, 110.0])

    def test_no_restore_when_any_unit_busy(self):
        result = restore(
            power_w=np.array([40.0, 100.0]),  # 100 > 0.8 * 110.
            caps_w=np.array([60.0, 150.0]),
            initial_cap_w=110.0,
            config=CFG,
        )
        assert not result.restored
        np.testing.assert_allclose(result.caps, [60.0, 150.0])

    def test_threshold_boundary(self):
        # Exactly at the threshold is not "above": restore still fires.
        result = restore(
            power_w=np.array([88.0]),
            caps_w=np.array([50.0]),
            initial_cap_w=110.0,
            config=CFG,
        )
        assert result.restored

    def test_input_not_mutated(self):
        caps = np.array([60.0])
        restore(np.array([10.0]), caps, 110.0, CFG)
        assert caps[0] == 60.0

    def test_rejects_bad_initial_cap(self):
        with pytest.raises(ValueError, match="initial_cap_w"):
            restore(np.array([10.0]), np.array([60.0]), 0.0, CFG)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            restore(np.array([10.0, 20.0]), np.array([60.0]), 110.0, CFG)


class TestReadjustGrant:
    """Leftover budget goes to high-priority units, inverse-cap weighted."""

    def test_noop_after_restore(self):
        caps = np.array([110.0, 110.0])
        out = readjust(
            caps, np.array([True, True]), 400.0, 165.0, restored=True,
            config=CFG,
        )
        np.testing.assert_allclose(out, caps)

    def test_grant_only_to_high_priority(self):
        out = readjust(
            np.array([100.0, 100.0]),
            np.array([True, False]),
            budget_w=260.0,
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        assert out[0] == pytest.approx(160.0)
        assert out[1] == pytest.approx(100.0)

    def test_lower_capped_unit_gets_more(self):
        out = readjust(
            np.array([50.0, 100.0]),
            np.array([True, True]),
            budget_w=180.0,  # 30 W leftover.
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        grant0 = out[0] - 50.0
        grant1 = out[1] - 100.0
        assert grant0 + grant1 == pytest.approx(30.0)
        assert grant0 == pytest.approx(2 * grant1)  # Inverse-cap weights.

    def test_clipped_grant_recycled(self):
        """Budget clipped at one unit's max flows to the other."""
        out = readjust(
            np.array([160.0, 60.0]),
            np.array([True, True]),
            budget_w=300.0,  # 80 W leftover, unit 0 can absorb only 5.
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        assert out[0] == pytest.approx(165.0)
        assert out[1] == pytest.approx(135.0)

    def test_no_high_priority_units_noop(self):
        caps = np.array([80.0, 90.0])
        out = readjust(
            caps, np.array([False, False]), 400.0, 165.0, restored=False,
            config=CFG,
        )
        np.testing.assert_allclose(out, caps)

    def test_all_at_max_leaves_budget_unassigned(self):
        caps = np.array([165.0, 165.0])
        out = readjust(
            caps, np.array([True, True]), 500.0, 165.0, restored=False,
            config=CFG,
        )
        np.testing.assert_allclose(out, caps)


class TestReadjustEqualize:
    """Budget exhausted: equalize the high-priority units' caps."""

    def test_equalizes_high_priority(self):
        out = readjust(
            np.array([160.0, 60.0, 80.0]),
            np.array([True, True, False]),
            budget_w=300.0,  # sum(caps)=300 -> no leftover.
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        assert out[0] == pytest.approx(110.0)
        assert out[1] == pytest.approx(110.0)
        assert out[2] == pytest.approx(80.0)  # Low priority untouched.

    def test_equalize_preserves_total(self):
        caps = np.array([150.0, 70.0, 100.0, 80.0])
        prio = np.array([True, True, True, False])
        out = readjust(caps, prio, float(caps.sum()), 165.0, False, CFG)
        assert out.sum() == pytest.approx(caps.sum())

    def test_epsilon_treats_tiny_leftover_as_exhausted(self):
        caps = np.array([150.0, 70.0])
        out = readjust(
            caps,
            np.array([True, True]),
            budget_w=220.5,  # Only 0.5 W leftover < epsilon 1.0.
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        # The equalize branch runs: caps average to 110 each (the tiny
        # leftover is not distributed — it is below the epsilon).
        np.testing.assert_allclose(out, [110.0, 110.0])

    def test_equalized_cap_clipped_at_max(self):
        out = readjust(
            np.array([165.0, 164.0]),
            np.array([True, True]),
            budget_w=329.0,
            max_cap_w=165.0,
            restored=False,
            config=CFG,
        )
        assert np.all(out <= 165.0)


@st.composite
def waterfill_cases(draw):
    """Inputs that land in the water-fill branch: some high-priority
    unit exists and the leftover budget exceeds the epsilon."""
    n = draw(st.integers(2, 8))
    caps = np.asarray(
        draw(
            st.lists(st.floats(1.0, 165.0), min_size=n, max_size=n)
        ),
        dtype=np.float64,
    )
    prio = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if not prio.any():
        prio[draw(st.integers(0, n - 1))] = True
    leftover = draw(st.floats(1.5, 300.0))
    return caps, prio, float(caps.sum()) + leftover


class TestWaterfillProperties:
    """Conservation invariants of the water-fill grant loop — the same
    contract the runtime ``readjust-conservation`` monitor enforces."""

    @given(waterfill_cases())
    @settings(max_examples=200, deadline=None)
    def test_never_hands_out_more_than_leftover(self, case):
        caps, prio, budget = case
        out = readjust(caps, prio, budget, 165.0, restored=False, config=CFG)
        handed = float(out.sum()) - float(caps.sum())
        assert handed >= -1e-9
        assert handed <= budget - float(caps.sum()) + 1e-6

    @given(waterfill_cases())
    @settings(max_examples=200, deadline=None)
    def test_never_shrinks_high_priority_and_never_touches_low(self, case):
        caps, prio, budget = case
        out = readjust(caps, prio, budget, 165.0, restored=False, config=CFG)
        assert np.all(out[prio] >= caps[prio] - 1e-9)
        np.testing.assert_array_equal(out[~prio], caps[~prio])
        assert np.all(out <= 165.0 + 1e-9)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            readjust(
                np.array([1.0, 2.0]), np.array([True]), 100.0, 165.0,
                False, CFG,
            )


class TestSaturationTolerance:
    """The water-fill's pre-filter and in-loop refilter use the same
    saturation tolerance (``SATURATION_EPS_W``): a unit within it of the
    per-unit maximum is excluded up front, so a cap a hair below TDP never
    costs a full grant pass for a ~0 W grant."""

    def test_unit_just_below_tdp_gets_no_noise_grant(self):
        # Unit 0 sits 1e-13 W below TDP — any grant it could absorb is
        # numerical noise.  The mismatched-tolerance bug let it through the
        # first filter, spending a pass on it before the refilter caught it.
        caps = np.array([165.0 - 1e-13, 100.0, 80.0])
        prio = np.array([True, True, False])
        out = readjust(caps, prio, budget_w=400.0, max_cap_w=165.0,
                       restored=False, config=CFG)
        # The near-saturated cap is untouched to the last bit; the leftover
        # goes to the other high-priority unit.
        assert out[0] == caps[0]
        assert out[1] > caps[1]
        assert out[2] == caps[2]

    def test_all_high_priority_saturated_terminates_unchanged(self):
        caps = np.array([165.0 - 1e-13, 165.0, 40.0])
        prio = np.array([True, True, False])
        out = readjust(caps, prio, budget_w=500.0, max_cap_w=165.0,
                       restored=False, config=CFG)
        np.testing.assert_array_equal(out, caps)


class TestSmallestEpsilonTerminates:
    """A water-fill pass that clips nobody leaves only the rounding noise
    of its own sums, about 1e-16 of the leftover, so the leftover shrinks
    geometrically — until it is a handful of subnormal steps, where every
    share can round to zero and nothing is handed out any more.  A zero
    or subnormal ``budget_epsilon`` never stops that walk
    (``ReadjustConfig`` rejects both); the smallest normal float does."""

    MAX_CAP_W = 165.0

    @staticmethod
    def inputs():
        caps = np.random.default_rng(372).uniform(40.0, 120.0, 32)
        return caps, float(caps.sum()) + 30.0

    def bounded_passes(self, epsilon, limit=1000):
        """`_water_fill` on the inputs, every unit high-priority, given
        up on after ``limit`` passes."""
        caps, budget = self.inputs()
        c = caps.copy()
        remaining = budget - float(caps.sum())
        for done in range(limit):
            if not (remaining > epsilon and c.size > 0):
                return done
            weights = 1.0 / np.maximum(c, 1e-9)
            weights /= weights.sum()
            grant = np.minimum(remaining * weights, self.MAX_CAP_W - c)
            c += grant
            remaining -= float(grant.sum())
            c = c[c < self.MAX_CAP_W - SATURATION_EPS_W]
        return None

    def test_the_input_stalls_under_a_zero_or_subnormal_epsilon(self):
        assert self.bounded_passes(0.0) is None
        assert self.bounded_passes(5e-324) is None
        assert self.bounded_passes(sys.float_info.min) <= 64

    @pytest.mark.parametrize(
        "host", [contextlib.nullcontext, no_native], ids=["kernel", "numpy"]
    )
    def test_smallest_accepted_epsilon_terminates(self, host):
        caps, budget = self.inputs()
        config = ReadjustConfig(budget_epsilon=sys.float_info.min)
        with host():
            out = readjust(
                caps, np.ones(32, dtype=bool), budget, self.MAX_CAP_W,
                False, config,
            )
        assert np.all(out >= caps) and np.all(out <= self.MAX_CAP_W)
        assert float(out.sum()) == pytest.approx(budget, abs=1e-9)
