"""PowerManager base contract, registry, and the constant baseline."""

import numpy as np
import pytest

from repro.core.constant import ConstantManager
from repro.core.managers import (
    PowerManager,
    available_managers,
    create_manager,
    register_manager,
)


def bound(manager, n=4, budget=440.0, max_cap=165.0, min_cap=30.0):
    manager.bind(n, budget, max_cap, min_cap, dt_s=1.0,
                 rng=np.random.default_rng(0))
    return manager


class TestRegistry:
    def test_all_managers_registered(self):
        assert available_managers() == (
            "constant", "dps", "dps+", "hierarchical", "oracle", "p2p",
            "slurm",
        )

    def test_create_by_name(self):
        assert isinstance(create_manager("constant"), ConstantManager)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="constant"):
            create_manager("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register_manager
            class Dup(ConstantManager):  # noqa: N801
                name = "constant"

    def test_unnamed_registration_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):

            @register_manager
            class NoName(ConstantManager):  # noqa: N801
                name = ""


class TestBinding:
    def test_step_before_bind_raises(self):
        with pytest.raises(RuntimeError, match="bound"):
            ConstantManager().step(np.zeros(4))

    def test_initial_caps_are_constant_cap(self):
        mgr = bound(ConstantManager())
        np.testing.assert_allclose(mgr.caps, 110.0)

    def test_initial_cap_clipped_at_tdp(self):
        mgr = ConstantManager()
        mgr.bind(2, budget_w=400.0, max_cap_w=165.0)
        assert mgr.initial_cap_w == pytest.approx(165.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_units=0, budget_w=100, max_cap_w=165), "n_units"),
            (dict(n_units=2, budget_w=0, max_cap_w=165), "budget_w"),
            (dict(n_units=2, budget_w=100, max_cap_w=0), "max_cap_w"),
            (
                dict(n_units=2, budget_w=100, max_cap_w=165, min_cap_w=200),
                "min_cap_w",
            ),
            (
                dict(n_units=4, budget_w=100, max_cap_w=165, min_cap_w=30),
                "minimum cap",
            ),
            (dict(n_units=2, budget_w=100, max_cap_w=165, dt_s=0), "dt_s"),
        ],
    )
    def test_bind_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ConstantManager().bind(**kwargs)

    def test_rebind_resets_caps(self):
        mgr = bound(ConstantManager())
        mgr.step(np.full(4, 50.0))
        bound(mgr, n=2, budget=220.0)
        assert mgr.caps.shape == (2,)


class TestStepContract:
    def test_rejects_wrong_shape(self):
        mgr = bound(ConstantManager())
        with pytest.raises(ValueError, match="shape"):
            mgr.step(np.zeros(3))

    def test_rejects_nan_power(self):
        mgr = bound(ConstantManager())
        with pytest.raises(ValueError, match="non-finite"):
            mgr.step(np.array([1.0, 2.0, np.nan, 4.0]))

    def test_caps_view_readonly(self):
        mgr = bound(ConstantManager())
        with pytest.raises(ValueError):
            mgr.caps[0] = 0.0

    def test_over_allocation_scaled_back(self):
        """A buggy subclass over-allocating is clipped to the budget."""

        class Greedy(PowerManager):
            name = "greedy-test"

            def _decide(self, power_w, demand_w):
                return np.full(self.n_units, self.max_cap_w)

        mgr = bound(Greedy())
        caps = mgr.step(np.full(4, 100.0))
        assert caps.sum() == pytest.approx(440.0)
        assert np.all(caps >= 30.0)


class TestBudgetRescaleObservability:
    """The over-allocation rescale used to be silent; now every firing
    bumps ``budget_rescales`` and calls the ``on_budget_rescaled`` hook
    with the manager name and computed overshoot."""

    class Greedy(PowerManager):
        name = "greedy-rescale-test"

        def _decide(self, power_w, demand_w):
            return np.full(self.n_units, self.max_cap_w)

    def test_rescale_fires_counter_and_callback(self):
        mgr = bound(self.Greedy())
        calls = []
        mgr.on_budget_rescaled = lambda name, over: calls.append((name, over))
        mgr.step(np.full(4, 100.0))
        mgr.step(np.full(4, 100.0))
        assert mgr.budget_rescales == 2
        assert len(calls) == 2
        name, over = calls[0]
        assert name == "greedy-rescale-test"
        # Greedy asks for 4 x 165 = 660 W against a 440 W budget.
        assert over == pytest.approx(220.0)

    def test_counter_resets_on_bind(self):
        mgr = bound(self.Greedy())
        mgr.step(np.full(4, 100.0))
        assert mgr.budget_rescales == 1
        bound(mgr)
        assert mgr.budget_rescales == 0

    @pytest.mark.parametrize("name", ["constant", "dps", "dps+", "slurm"])
    def test_correct_managers_never_fire(self, name):
        mgr = bound(create_manager(name))
        fired = []
        mgr.on_budget_rescaled = lambda n, o: fired.append((n, o))
        rng = np.random.default_rng(7)
        for _ in range(20):
            mgr.step(np.full(4, 100.0) + rng.normal(0.0, 5.0, 4))
        assert mgr.budget_rescales == 0
        assert fired == []

    def test_caps_clipped_to_range(self):
        class Wild(PowerManager):
            name = "wild-test"

            def _decide(self, power_w, demand_w):
                return np.array([-50.0, 500.0, 100.0, 100.0])

        mgr = bound(Wild())
        caps = mgr.step(np.full(4, 100.0))
        assert caps[0] >= 30.0
        assert caps[1] <= 165.0


class TestConstantManager:
    def test_caps_never_change(self):
        mgr = bound(ConstantManager())
        first = mgr.step(np.full(4, 150.0))
        second = mgr.step(np.full(4, 10.0))
        np.testing.assert_allclose(first, second)
        np.testing.assert_allclose(first, 110.0)
