"""Peer-to-peer power manager (Penelope-style baseline)."""

import numpy as np
import pytest

from repro.core.p2p import P2PManager


def bound(n=4, budget=440.0, seed=0, **kwargs):
    mgr = P2PManager(**kwargs)
    mgr.bind(n, budget, max_cap_w=165.0, min_cap_w=30.0,
             rng=np.random.default_rng(seed))
    return mgr


def closed_loop(mgr, demand, steps):
    caps = np.asarray(mgr.caps)
    for _ in range(steps):
        power = np.minimum(np.asarray(demand, dtype=float), caps)
        caps = mgr.step(power)
    return caps


class TestConstruction:
    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError, match="rich_threshold"):
            P2PManager(needy_threshold=0.8, rich_threshold=0.9)

    def test_rejects_bad_trade_fraction(self):
        with pytest.raises(ValueError, match="trade_fraction"):
            P2PManager(trade_fraction=0.0)

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError, match="donor_margin_w"):
            P2PManager(donor_margin_w=-1.0)


class TestTrading:
    def test_budget_structurally_conserved(self):
        """Trades move power between shares; the sum never changes."""
        mgr = bound()
        rng = np.random.default_rng(3)
        caps = np.asarray(mgr.caps)
        for _ in range(50):
            demand = rng.uniform(10, 165, 4)
            caps = mgr.step(np.minimum(demand, caps))
            assert caps.sum() == pytest.approx(440.0, abs=1e-6)

    def test_power_flows_to_needy_units(self):
        mgr = bound(n=2, budget=240.0)
        caps = closed_loop(mgr, [160.0, 30.0], steps=30)
        assert caps[0] > 140.0
        assert caps[1] < 100.0
        assert mgr.trades > 0

    def test_no_trade_when_everyone_satisfied(self):
        mgr = bound()
        closed_loop(mgr, [50.0, 50.0, 50.0, 50.0], steps=10)
        assert mgr.trades == 0

    def test_donor_keeps_margin(self):
        mgr = bound(n=2, budget=240.0, donor_margin_w=20.0)
        demand = np.array([160.0, 60.0])
        caps = closed_loop(mgr, demand, steps=40)
        # The donor's cap never drops below its draw plus the margin.
        assert caps[1] >= 60.0 + 20.0 - 1e-6

    def test_caps_within_unit_bounds(self):
        mgr = bound()
        rng = np.random.default_rng(5)
        caps = np.asarray(mgr.caps)
        for _ in range(40):
            demand = rng.uniform(10, 165, 4)
            caps = mgr.step(np.minimum(demand, caps))
            assert np.all(caps >= 30.0 - 1e-9)
            assert np.all(caps <= 165.0 + 1e-9)

    def test_odd_unit_count_tolerated(self):
        mgr = bound(n=5, budget=550.0)
        caps = closed_loop(mgr, [160.0, 30.0, 160.0, 30.0, 90.0], steps=20)
        assert caps.shape == (5,)

    def test_slower_than_central_but_converges(self):
        """One partner per step: convergence is slower than MIMD but the
        needy unit still ends near its demand."""
        mgr = bound(n=4, budget=480.0)
        caps = closed_loop(mgr, [160.0, 40.0, 40.0, 40.0], steps=60)
        assert caps[0] > 150.0


class TestEndToEnd:
    def test_runs_in_simulator(self):
        from repro.cluster.simulator import Assignment, Simulation
        from repro.core.config import ClusterSpec, SimulationConfig
        from repro.core.managers import create_manager
        from repro.workloads.registry import get_workload

        spec = ClusterSpec(n_nodes=2, sockets_per_node=2)
        sim = Simulation(
            cluster_spec=spec,
            manager=create_manager("p2p"),
            assignments=[
                Assignment(
                    spec=get_workload("sort"),
                    unit_ids=spec.half_unit_ids(0),
                )
            ],
            target_runs=1,
            sim_config=SimulationConfig(
                time_scale=0.5, max_steps=2000, inter_run_gap_s=0.0
            ),
            seed=2,
        )
        result = sim.run()
        assert not result.truncated
        assert result.max_caps_sum_w <= spec.budget_w * (1 + 1e-6)
