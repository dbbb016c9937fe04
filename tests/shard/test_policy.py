"""The arbiter's redistribution policy: branches and Hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.lease import ArbiterConfig
from repro.shard.policy import redistribute


def run(
    lease,
    committed,
    floor=None,
    ceiling=None,
    units=None,
    priority=None,
    frozen=None,
    budget_w=None,
    config=None,
):
    lease = np.asarray(lease, dtype=np.float64)
    n = lease.shape[0]
    committed = np.asarray(committed, dtype=np.float64)
    floor = np.zeros(n) if floor is None else np.asarray(floor, float)
    ceiling = (
        np.full(n, 1e9) if ceiling is None else np.asarray(ceiling, float)
    )
    units = np.ones(n) if units is None else np.asarray(units, float)
    priority = (
        np.zeros(n, bool) if priority is None else np.asarray(priority, bool)
    )
    frozen = (
        np.zeros(n, bool) if frozen is None else np.asarray(frozen, bool)
    )
    budget_w = float(lease.sum()) if budget_w is None else budget_w
    return redistribute(
        lease_w=lease,
        committed_w=committed,
        floor_w=floor,
        ceiling_w=ceiling,
        n_units=units,
        priority=priority,
        frozen=frozen,
        budget_w=budget_w,
        config=config,
    )


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one shard"):
            run([], [])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="committed_w shape"):
            run([100.0, 100.0], [80.0])

    def test_rejects_nan_committed_on_live_shard(self):
        with pytest.raises(ValueError, match="no committed power"):
            run([100.0, 100.0], [80.0, np.nan])

    def test_nan_committed_ok_when_frozen(self):
        result = run(
            [100.0, 100.0], [80.0, np.nan], frozen=[False, True]
        )
        assert result.leases_w[1] == 100.0

    def test_rejects_infeasible_input(self):
        # Frozen shard holds 150 W, live shard proved 100 W: 250 > 200.
        with pytest.raises(ValueError, match="infeasible"):
            run(
                [150.0, 100.0],
                [np.nan, 100.0],
                frozen=[True, False],
                budget_w=200.0,
            )


class TestRestoreBranch:
    def test_all_idle_restores_proportional_base(self):
        # Both shards far below 80 % of their 100 W base.
        result = run([150.0, 50.0], [20.0, 20.0], budget_w=200.0)
        assert result.restored
        np.testing.assert_allclose(result.leases_w, [100.0, 100.0])

    def test_restore_skipped_with_dark_shard(self):
        result = run(
            [150.0, 50.0], [20.0, np.nan], frozen=[False, True],
            budget_w=200.0,
        )
        assert not result.restored
        assert result.leases_w[1] == 50.0

    def test_restore_respects_units_proportionality(self):
        result = run(
            [100.0, 100.0], [10.0, 10.0], units=[1.0, 3.0], budget_w=200.0
        )
        assert result.restored
        np.testing.assert_allclose(result.leases_w, [50.0, 150.0])


class TestHandOutBranch:
    def test_reclaims_headroom_to_priority_shard(self):
        cfg = ArbiterConfig(headroom_fraction=0.10)
        # Shard 0 idles at 40/200 W; shard 1 is saturated and priority.
        result = run(
            [200.0, 200.0],
            [40.0, 199.0],
            ceiling=[400.0, 400.0],
            priority=[False, True],
            budget_w=400.0,
            config=cfg,
        )
        assert not result.restored
        assert result.reclaimed_w > 0
        assert result.leases_w[0] < 200.0
        assert result.leases_w[1] > 200.0
        # Drawn-down shard keeps its committed power plus headroom.
        assert result.leases_w[0] >= 40.0 * 1.10 - 1e-9

    def test_frozen_shard_untouched(self):
        result = run(
            [120.0, 200.0, 200.0],
            [np.nan, 50.0, 199.0],
            ceiling=[400.0] * 3,
            priority=[False, False, True],
            frozen=[True, False, False],
            budget_w=520.0,
        )
        assert result.leases_w[0] == 120.0
        assert result.granted_w[0] == 0.0

    def test_granted_and_reclaimed_accounting(self):
        result = run(
            [200.0, 200.0],
            [40.0, 199.0],
            ceiling=[400.0, 400.0],
            priority=[False, True],
            budget_w=400.0,
        )
        grew = np.maximum(result.leases_w - [200.0, 200.0], 0.0)
        np.testing.assert_allclose(result.granted_w, grew)
        shrank = np.maximum([200.0, 200.0] - result.leases_w, 0.0)
        assert result.reclaimed_w == pytest.approx(float(shrank.sum()))


class TestEqualizeBranch:
    def test_priority_shards_equalized_per_unit(self):
        # No leftover (sum == budget), two saturated priority shards with
        # skewed per-unit leases.
        result = run(
            [300.0, 100.0],
            [295.0, 99.0],
            ceiling=[400.0, 400.0],
            units=[2.0, 2.0],
            priority=[True, True],
            budget_w=400.0,
        )
        per_unit = result.leases_w / 2.0
        # Equalization moves the per-unit leases toward each other but
        # never below a shard's protected power.
        assert per_unit[0] < 150.0
        assert per_unit[1] > 50.0
        assert result.leases_w[0] >= 295.0 - 1e-9


# ---------------------------------------------------------------------------
# Hypothesis properties (the two contracts promised in the module doc).
# ---------------------------------------------------------------------------


@st.composite
def policy_inputs(draw):
    """Feasible redistribute() inputs: budget covers the protected power."""
    n = draw(st.integers(min_value=1, max_value=6))
    units = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=64),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    min_cap = draw(st.floats(min_value=0.0, max_value=50.0))
    max_cap = min_cap + draw(st.floats(min_value=10.0, max_value=200.0))
    floor = units * min_cap
    ceiling = units * max_cap
    frac = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    lease = floor + frac * (ceiling - floor)
    cfrac = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.2),
                min_size=n,
                max_size=n,
            )
        )
    )
    committed = cfrac * lease
    frozen = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    priority = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    committed = np.where(frozen, np.nan, committed)
    protected = np.where(
        ~frozen,
        np.clip(committed, floor, np.maximum(lease, floor)),
        lease,
    )
    budget = float(protected.sum()) + draw(
        st.floats(min_value=0.0, max_value=500.0)
    )
    budget = max(budget, 1e-6)
    return dict(
        lease_w=lease,
        committed_w=committed,
        floor_w=floor,
        ceiling_w=ceiling,
        n_units=units,
        priority=priority,
        frozen=frozen,
        budget_w=budget,
    )


@settings(max_examples=200, deadline=None)
@given(inputs=policy_inputs())
def test_leases_never_exceed_budget(inputs):
    result = redistribute(**inputs)
    budget = inputs["budget_w"]
    assert float(result.leases_w.sum()) <= budget * (1 + 1e-7) + 1e-6


@settings(max_examples=200, deadline=None)
@given(inputs=policy_inputs())
def test_live_leases_never_drop_below_protected(inputs):
    result = redistribute(**inputs)
    live = ~inputs["frozen"]
    protected = np.clip(
        inputs["committed_w"],
        inputs["floor_w"],
        np.maximum(inputs["lease_w"], inputs["floor_w"]),
    )
    assert np.all(
        result.leases_w[live] >= protected[live] - 1e-6
    ), (result.leases_w, protected)


@settings(max_examples=200, deadline=None)
@given(inputs=policy_inputs())
def test_frozen_shards_untouched(inputs):
    result = redistribute(**inputs)
    dark = inputs["frozen"]
    np.testing.assert_array_equal(
        result.leases_w[dark], inputs["lease_w"][dark]
    )
    assert np.all(result.granted_w[dark] == 0.0)


@settings(max_examples=100, deadline=None)
@given(inputs=policy_inputs())
def test_deterministic(inputs):
    first = redistribute(**inputs)
    second = redistribute(**inputs)
    np.testing.assert_array_equal(first.leases_w, second.leases_w)
    np.testing.assert_array_equal(first.granted_w, second.granted_w)
    assert first.reclaimed_w == second.reclaimed_w
    assert first.restored == second.restored


def test_frozen_lease_an_ulp_over_its_ceiling_is_untouched():
    """The water-fill hands a frozen shard nothing, not even the
    negative room of a lease that sits one ulp above its ceiling."""
    ceiling = 653.1420607351832
    lease = np.array([np.nextafter(ceiling, np.inf), 5.125, 5.125, 5.125])
    result = redistribute(
        lease_w=lease,
        committed_w=np.array([np.nan, 0.0, 0.0, 0.0]),
        floor_w=np.array([128.0, 5.125, 5.125, 5.125]),
        ceiling_w=np.array([ceiling, 26.125, 26.125, 26.125]),
        n_units=np.array([25.0, 1.0, 1.0, 1.0]),
        priority=np.zeros(4, dtype=bool),
        frozen=np.array([True, False, False, False]),
        budget_w=670.5,
    )
    assert result.leases_w[0] == lease[0]
