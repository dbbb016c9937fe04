"""Comm-in-the-loop control: cluster physics driven over the §6.5 protocol.

The loop the paper measures — poll every node, decide, push caps, all as
3-byte messages through :class:`repro.comm.service.PowerServer` — closed
around the simulated hardware and held against the direct loop that
calls the manager without a wire in between.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm.network import NetworkModel
from repro.comm.service import PowerClient, PowerServer
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.telemetry.log import TelemetryLog

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)
STEPS = 40
#: The manager's caps respect the budget exactly; each then rounds to
#: the protocol's 0.1 W lattice on the way to its domain.
WIRE_BUDGET_W = SPEC.budget_w + SPEC.n_units * 0.05 + 1e-9


def demand_at(step):
    """Half the cluster runs hot while the other half idles, then they swap."""
    hot, cold = (140.0, 30.0) if step < STEPS // 2 else (30.0, 140.0)
    return np.array([hot, hot, cold, cold])


def recording(manager, seen):
    """The manager, with every reading vector it is handed kept in ``seen``."""
    step = manager.step

    def recording_step(power_w, demand_w=None):
        seen.append(np.array(power_w))
        return step(power_w, demand_w)

    manager.step = recording_step
    return manager


def run_loop(manager_name="dps", wire=True, seed=1, telemetry=None):
    """``STEPS`` control cycles; returns (caps per step, cycle reports)."""
    cluster = Cluster(
        SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(seed)
    )
    seen = []
    manager = recording(create_manager(manager_name), seen)
    manager.bind(
        SPEC.n_units, SPEC.budget_w, SPEC.tdp_w, SPEC.min_cap_w,
        rng=np.random.default_rng(seed),
    )
    server = PowerServer(
        manager, [PowerClient(n) for n in cluster.nodes], NetworkModel()
    )
    caps, reports = [], []
    for step in range(STEPS):
        caps_in_effect = cluster.caps_w()
        true_power = cluster.step_physics(demand_at(step), 1.0)
        if wire:
            reports.append(server.control_cycle(1.0))
        else:
            decided = manager.step(cluster.read_powers_w(1.0))
            for domain, cap in zip(cluster.domains, decided):
                domain.set_cap_w(float(cap))
        caps.append(cluster.caps_w())
        if telemetry is not None:
            telemetry.record(
                float(step + 1), true_power, seen[-1], caps_in_effect, None
            )
    return np.asarray(caps), reports


class TestCommLoop:
    def test_completes_and_counts_traffic(self):
        _, reports = run_loop()
        # 3 bytes per unit per direction per step.
        traffic = sum(r.bytes_up + r.bytes_down for r in reports)
        assert traffic == STEPS * SPEC.n_units * 6
        assert all(r.turnaround_s > 0 for r in reports)

    def test_budget_respected_over_the_wire(self):
        caps, _ = run_loop()
        assert caps.sum(axis=1).max() <= WIRE_BUDGET_W

    def test_comm_matches_direct_loop_closely(self):
        """The only difference is the 0.1 W protocol quantization, so the
        cap traces must agree tightly."""
        over_wire, _ = run_loop(wire=True, seed=7)
        direct, _ = run_loop(wire=False, seed=7)
        assert np.abs(over_wire - direct).max() < 1.0
        # And the loop is doing something: while the first half of the
        # cluster runs hot, budget moves to it.
        hot_phase = over_wire[: STEPS // 2]
        assert hot_phase[:, :2].mean() > hot_phase[:, 2:].mean() + 10.0

    def test_readings_recorded_in_telemetry(self):
        tl = TelemetryLog(SPEC.n_units)
        run_loop(telemetry=tl)
        # Quantized readings still track true power.
        err = np.abs(tl.readings_w - tl.power_w).mean()
        assert err < 5.0

    def test_oracle_rejected_over_comm(self):
        """The protocol carries readings, not demand: the oracle refuses
        its first step."""
        with pytest.raises(ValueError, match="demand"):
            run_loop(manager_name="oracle")

    @pytest.mark.parametrize("manager", ["slurm", "dps", "dps+", "hierarchical"])
    def test_all_wire_managers_work(self, manager):
        caps, reports = run_loop(manager_name=manager)
        assert len(reports) == STEPS
        assert np.isfinite(caps).all()
        assert caps.sum(axis=1).max() <= WIRE_BUDGET_W
