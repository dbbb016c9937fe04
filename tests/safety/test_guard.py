"""BudgetGuard: the graded degradation ladder and its accounting."""

import numpy as np
import pytest

from repro.core.managers import create_manager
from repro.recovery.controller import RecoverableController
from repro.safety import BudgetEnvelope, BudgetGuard, last_readjust_grants


def make_guard(n=4, budget=400.0, max_cap=165.0, min_cap=30.0, **kwargs):
    env = BudgetEnvelope(n_units=n, budget_w=budget, max_cap_w=max_cap)
    # Settle the applied view so ladder tests exercise steady-state
    # enforcement, not the cold-start prior.
    env.record_applied(slice(None), np.full(n, budget / n))
    return BudgetGuard(env, min_cap_w=min_cap, **kwargs), env


class TestNoAction:
    def test_within_budget_passes_through(self):
        guard, _ = make_guard()
        caps = np.array([100.0, 100.0, 100.0, 100.0])
        decision = guard.enforce(caps)
        assert decision.rung is None
        np.testing.assert_array_equal(decision.caps_w, caps)
        assert guard.excursions == 0
        assert len(guard.events) == 0

    def test_float_noise_is_not_an_excursion(self):
        guard, _ = make_guard()
        caps = np.full(4, 100.0 + 1e-10)
        decision = guard.enforce(caps)
        assert decision.rung is None
        assert guard.excursions == 0


class TestLadder:
    def test_rung1_shaves_grants(self):
        guard, _ = make_guard()
        caps = np.array([120.0, 120.0, 100.0, 100.0])  # 40 W over.
        grants = np.array([30.0, 30.0, 0.0, 0.0])  # 60 W of fresh grants.
        decision = guard.enforce(caps, grants_w=grants)
        assert decision.rung == "budget_shave_grants"
        assert decision.caps_w.sum() == pytest.approx(400.0)
        # Proportional: each granted unit gives back 40/60 of its grant.
        np.testing.assert_allclose(
            decision.caps_w, [100.0, 100.0, 100.0, 100.0]
        )
        (event,) = guard.events.of_kind("budget_shave_grants")
        assert "overshoot=40.000W" in event.detail

    def test_insufficient_grants_skip_to_rung2(self):
        """A partial shave would still need rung 2 — go straight there."""
        guard, env = make_guard()
        caps = np.array([120.0, 120.0, 100.0, 100.0])
        env.record_applied(slice(None), caps)  # Rung output, not pacing.
        grants = np.array([10.0, 10.0, 0.0, 0.0])  # Only 20 W of 40 W.
        decision = guard.enforce(caps, grants_w=grants)
        assert decision.rung == "budget_scale_down"
        assert decision.caps_w.sum() == pytest.approx(400.0)

    def test_rung2_respects_floors(self):
        guard, env = make_guard()
        caps = np.array([150.0, 150.0, 31.0, 109.0])  # 40 W over.
        env.record_applied(slice(None), caps)  # Rung output, not pacing.
        decision = guard.enforce(caps)
        assert decision.rung == "budget_scale_down"
        assert decision.caps_w.sum() == pytest.approx(400.0)
        assert np.all(decision.caps_w >= 30.0 - 1e-9)
        # The near-floor unit gives up almost nothing.
        assert decision.caps_w[2] > 30.8

    def test_rung3_emergency_drop(self):
        """When even the floors cannot absorb the overshoot, every
        reachable unit falls to the emergency constant cap."""
        guard, env = make_guard(budget=200.0)
        env.record_applied(slice(None), np.full(4, 50.0))
        env.record_dispatched(slice(None), np.full(4, 160.0))
        unreachable = np.array([True, True, False, False])
        # Held power: 2 x 160 = 320 W > 200 W budget on its own.
        decision = guard.enforce(
            np.full(4, 50.0), unreachable=unreachable
        )
        assert decision.rung == "budget_emergency_drop"
        # Reachable units drop to the floor; the residual excursion is
        # outside the controller's reach and stays reported.
        np.testing.assert_allclose(decision.caps_w[2:], 30.0)
        assert guard.events.of_kind("budget_emergency_drop")

    def test_unreachable_held_power_shrinks_reachable_share(self):
        guard, env = make_guard()
        env.record_applied(slice(None), np.full(4, 100.0))
        env.record_dispatched(slice(None), np.full(4, 130.0))
        unreachable = np.array([True, False, False, False])
        # Unit 0 holds 130 W, so the other three must fit in 270 W.
        decision = guard.enforce(
            np.full(4, 100.0), unreachable=unreachable
        )
        assert decision.rung == "budget_scale_down"
        assert decision.caps_w[1:].sum() == pytest.approx(270.0)
        # The unreachable unit's cap is untouchable and unmodified.
        assert decision.caps_w[0] == 100.0

    def test_rung_counters(self):
        guard, _ = make_guard()
        guard.enforce(np.full(4, 110.0))
        guard.enforce(np.full(4, 120.0))
        assert guard.rungs_taken == {"budget_scale_down": 2}
        # The guard's own log is stamped with the cycles it has gated.
        assert [e.time_s for e in guard.events] == [1.0, 2.0]


class TestRaisePacing:
    def test_redistribution_raise_is_deferred(self):
        """Moving watts between units double-counts during the transient
        (old cap still held, new cap dispatched); the raise side waits a
        cycle so the union never exceeds the budget."""
        guard, _ = make_guard()  # Applied settled at 100 W each.
        decision = guard.enforce(
            np.array([60.0, 140.0, 100.0, 100.0])
        )
        assert decision.rung is None  # Steady state fits exactly.
        # The decrease lands now; the raise is held at the applied value.
        np.testing.assert_allclose(
            decision.caps_w, [60.0, 100.0, 100.0, 100.0]
        )
        assert decision.committed.worst_case_total_w == pytest.approx(400.0)
        assert guard.raises_deferred == 1
        assert guard.excursions == 0
        (event,) = guard.events.of_kind("budget_raise_deferred")
        assert "deferred=40.000W" in event.detail

    def test_partial_deferral_is_proportional(self):
        guard, env = make_guard()
        env.record_applied(slice(None), np.full(4, 90.0))  # 40 W headroom.
        decision = guard.enforce(
            np.array([120.0, 120.0, 60.0, 60.0])
        )
        # 60 W of raises, 20 W of transient excess: defer a third of each.
        np.testing.assert_allclose(
            decision.caps_w, [110.0, 110.0, 60.0, 60.0]
        )
        assert decision.committed.worst_case_total_w == pytest.approx(400.0)
        assert guard.excursions == 0

    def test_deferred_raise_lands_next_cycle(self):
        guard, env = make_guard()
        want = np.array([60.0, 140.0, 100.0, 100.0])
        first = guard.enforce(want)
        # The paced dispatch is acknowledged...
        env.record_dispatched(slice(None), first.caps_w)
        env.confirm_applied(slice(None))
        # ...so the same request now fits: the old 100 W cap of unit 0 is
        # gone and unit 1's raise no longer double-counts.
        second = guard.enforce(want)
        np.testing.assert_allclose(second.caps_w, want)
        assert guard.raises_deferred == 1
        assert guard.excursions == 0

    def test_dry_run_never_defers(self):
        guard, _ = make_guard(dry_run=True)
        caps = np.array([60.0, 140.0, 100.0, 100.0])
        decision = guard.enforce(caps)
        np.testing.assert_array_equal(decision.caps_w, caps)
        assert guard.raises_deferred == 0
        assert not guard.events.of_kind("budget_raise_deferred")


class TestOvershootReporting:
    def test_worst_case_excursion_is_reported(self):
        """Old applied caps above the budget trip the overshoot event even
        when the new candidate already fits."""
        guard, env = make_guard()
        env.record_applied(slice(None), np.full(4, 150.0))  # 600 W held.
        decision = guard.enforce(np.full(4, 90.0))
        assert decision.rung is None  # Steady state fits.
        assert guard.excursions == 1
        (event,) = guard.events.of_kind("budget_overshoot")
        assert "overshoot=200.000W" in event.detail

    def test_dry_run_reports_but_never_modifies(self):
        guard, _ = make_guard(dry_run=True)
        caps = np.full(4, 120.0)
        decision = guard.enforce(caps)
        assert decision.rung is None
        assert decision.overshoot_w == pytest.approx(80.0)
        np.testing.assert_array_equal(decision.caps_w, caps)
        assert guard.excursions == 1
        assert not guard.events.of_kind("budget_scale_down")

    def test_validation(self):
        env = BudgetEnvelope(2, 100.0, 60.0)
        with pytest.raises(ValueError, match="min_cap_w"):
            BudgetGuard(env, min_cap_w=-1.0)
        with pytest.raises(ValueError, match="tol_w"):
            BudgetGuard(env, tol_w=0.0)


class TestGrantIntrospection:
    def bound(self, name="dps"):
        mgr = create_manager(name)
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        return mgr

    def test_dps_exposes_grants(self):
        mgr = self.bound()
        assert last_readjust_grants(mgr) is None  # No step yet.
        mgr.step(np.full(4, 150.0))
        grants = last_readjust_grants(mgr)
        assert grants is not None
        assert grants.shape == (4,)
        assert np.all(grants >= 0.0)

    def test_constant_manager_has_no_grants(self):
        mgr = self.bound("constant")
        mgr.step(np.full(4, 100.0))
        assert last_readjust_grants(mgr) is None

    def test_walks_recoverable_controller(self, tmp_path):
        mgr = self.bound()
        controller = RecoverableController.open(
            mgr, tmp_path, checkpoint_every=10
        )
        try:
            controller.step(np.full(4, 150.0))
        finally:
            controller.close()
        grants = last_readjust_grants(controller)
        assert grants is not None
        assert np.array_equal(grants, mgr.last_grants_w)
