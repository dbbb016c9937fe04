"""Comm-in-the-loop control: cluster physics driven over the §6.5 protocol.

The loop the paper measures — poll every node, decide, push caps, all as
3-byte messages between a :class:`~repro.deploy.server.DeployServer` and
one TCP daemon per node — closed around the simulated hardware and held
against the direct loop that calls the manager without a wire in between.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.telemetry.log import TelemetryLog
from tests.deploy.sessions import plane_session

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)
STEPS = 40
#: The manager's caps respect the budget exactly; each then rounds to
#: the protocol's 0.1 W lattice on the way to its domain.
WIRE_BUDGET_W = SPEC.budget_w + SPEC.n_units * 0.05 + 1e-9


def demand_at(step):
    """Half the cluster runs hot while the other half idles, then they swap."""
    hot, cold = (140.0, 30.0) if step < STEPS // 2 else (30.0, 140.0)
    return np.array([hot, hot, cold, cold])


def make_cluster(seed):
    return Cluster(SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(seed))


def run_wire(manager_name="dps", seed=1):
    """``STEPS`` control cycles over the deploy plane."""
    return plane_session(
        make_cluster(seed),
        create_manager(manager_name),
        demand_at,
        STEPS,
        rng=np.random.default_rng(seed),
    )


def run_direct(manager_name="dps", seed=1):
    """The same loop with the manager's caps programmed directly."""
    cluster = make_cluster(seed)
    manager = create_manager(manager_name)
    manager.bind(
        SPEC.n_units, SPEC.budget_w, SPEC.tdp_w, SPEC.min_cap_w,
        rng=np.random.default_rng(seed),
    )
    caps = []
    for step in range(STEPS):
        cluster.step_physics(demand_at(step), 1.0)
        decided = manager.step(cluster.read_powers_w(1.0))
        for domain, cap in zip(cluster.domains, decided):
            domain.set_cap_w(float(cap))
        caps.append(cluster.caps_w())
    return np.asarray(caps)


class TestCommLoop:
    def test_completes_and_counts_traffic(self):
        session = run_wire()
        # 3 bytes per unit per direction per step.
        assert session.bytes_total == STEPS * SPEC.n_units * 6
        assert len(session.timings) == STEPS
        assert all(t.total_s > 0 for t in session.timings)

    def test_budget_respected_over_the_wire(self):
        caps = run_wire().applied_caps_history
        assert caps.sum(axis=1).max() <= WIRE_BUDGET_W

    def test_comm_matches_direct_loop_closely(self):
        """The only difference is the 0.1 W protocol quantization, so the
        cap traces must agree tightly."""
        over_wire = run_wire(seed=7).applied_caps_history
        direct = run_direct(seed=7)
        assert np.abs(over_wire - direct).max() < 1.0
        # And the loop is doing something: while the first half of the
        # cluster runs hot, budget moves to it.
        hot_phase = over_wire[: STEPS // 2]
        assert hot_phase[:, :2].mean() > hot_phase[:, 2:].mean() + 10.0

    def test_readings_recorded_in_telemetry(self):
        session = run_wire()
        tl = TelemetryLog(SPEC.n_units)
        for step in range(STEPS):
            tl.record(
                float(step + 1),
                session.power_history[step],
                session.readings_history[step],
                session.applied_caps_history[step],
            )
        # Quantized readings still track true power.
        err = np.abs(tl.readings_w - tl.power_w).mean()
        assert err < 5.0

    def test_oracle_rejected_over_comm(self):
        """The protocol carries readings, not demand: the oracle refuses
        its first step."""
        with pytest.raises(ValueError, match="demand"):
            run_wire(manager_name="oracle")

    @pytest.mark.parametrize("manager", ["slurm", "dps", "dps+", "hierarchical"])
    def test_all_wire_managers_work(self, manager):
        session = run_wire(manager_name=manager)
        caps = session.applied_caps_history
        assert len(session.timings) == STEPS
        assert np.isfinite(caps).all()
        assert caps.sum(axis=1).max() <= WIRE_BUDGET_W
