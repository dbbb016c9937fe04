"""Seed robustness and randomized end-to-end invariants.

The paper's conclusions would be worthless if they held for one lucky
seed; these tests re-run the core comparison across seeds and drive the
full engine with randomized synthetic workloads, asserting the invariants
that must hold regardless of the draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.experiments.harness import ExperimentConfig, ExperimentHarness
from repro.powercap.faults import FaultConfig
from repro.workloads.synthetic import random_workload

SPEC = ClusterSpec(n_nodes=4, sockets_per_node=2)


class TestSeedRobustness:
    """The DPS > SLURM ordering is not a seed lottery."""

    @pytest.mark.parametrize("seed", [3, 17, 123])
    def test_contended_ordering_across_seeds(self, seed):
        cfg = ExperimentConfig(
            cluster=SPEC,
            sim=SimulationConfig(time_scale=0.2, max_steps=200_000),
            repeats=1,
            seed=seed,
        )
        harness = ExperimentHarness(cfg)
        slurm = harness.evaluate_pair("bayes", "cg", "slurm")
        dps = harness.evaluate_pair("bayes", "cg", "dps")
        assert dps.hmean_speedup > slurm.hmean_speedup
        assert dps.fairness > slurm.fairness


class TestRandomizedEndToEnd:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_random_pair_completes_with_invariants(self, seed):
        """Any structurally valid workload pair simulates to completion
        with the budget respected, under DPS."""
        a = random_workload(seed, max_phase_s=40.0)
        rng = np.random.default_rng(seed)
        b = random_workload(int(rng.integers(0, 2**31)), max_phase_s=40.0)
        sim = Simulation(
            cluster_spec=SPEC,
            manager=create_manager("dps"),
            assignments=[
                Assignment(spec=a, unit_ids=SPEC.half_unit_ids(0)),
                Assignment(spec=b, unit_ids=SPEC.half_unit_ids(1)),
            ],
            target_runs=1,
            sim_config=SimulationConfig(
                time_scale=0.5, max_steps=30_000, inter_run_gap_s=2.0
            ),
            seed=seed,
        )
        result = sim.run()
        assert not result.truncated
        assert result.max_caps_sum_w <= SPEC.budget_w * (1 + 1e-6)
        assert all(d > 0 for d in result.durations.values())

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_random_pair_deterministic(self, seed):
        """Identical seeds give identical results for random workloads."""

        def run():
            sim = Simulation(
                cluster_spec=SPEC,
                manager=create_manager("slurm"),
                assignments=[
                    Assignment(
                        spec=random_workload(seed, max_phase_s=30.0),
                        unit_ids=SPEC.half_unit_ids(0),
                    )
                ],
                target_runs=1,
                sim_config=SimulationConfig(
                    time_scale=0.5, max_steps=30_000, inter_run_gap_s=2.0
                ),
                seed=seed,
            )
            return sim.run().durations

        assert run() == run()


class TestFaultRecovery:
    """The fault acceptance scenario: heavy measurement faults must never
    break the budget, and once they clear DPS must recover to within 2% of
    a fault-free run."""

    FAULTS = FaultConfig(stuck_prob=0.05, dropout_prob=0.05, spike_prob=0.02)
    FAULT_CYCLES = 150
    TOTAL_CYCLES = 300
    WINDOW = 50  # Trailing cycles scored after the faults clear.

    def _drive(self, inject_faults):
        """A closed control loop over the cluster physics; faults (when
        injected) corrupt every meter for the first FAULT_CYCLES cycles,
        then they are cleared."""
        cluster = Cluster(SPEC, rng=np.random.default_rng(21))
        manager = create_manager("dps")
        manager.bind(
            cluster.n_units,
            cluster.budget_w,
            SPEC.tdp_w,
            SPEC.min_cap_w,
            rng=np.random.default_rng(5),
        )
        # A hungry half and an idle-ish half, so DPS has power to shift
        # and the post-fault allocation is a real decision.
        demand = np.where(
            np.arange(cluster.n_units) < cluster.n_units // 2, 150.0, 60.0
        )
        if inject_faults:
            cluster.bank.set_faults(
                self.FAULTS, np.random.default_rng(99).spawn(cluster.n_units)
            )

        power_trace = np.empty((self.TOTAL_CYCLES, cluster.n_units))
        for cycle in range(self.TOTAL_CYCLES):
            if inject_faults and cycle == self.FAULT_CYCLES:
                cluster.bank.set_faults(None)  # The fault episode ends.
            true_power = cluster.step_physics(demand, 1.0)
            readings = cluster.read_powers_w(1.0)
            caps = manager.step(readings)
            assert caps.sum() <= cluster.budget_w * (1 + 1e-9), (
                f"budget violated at cycle {cycle}"
            )
            for dom, cap in zip(cluster.domains, caps):
                dom.set_cap_w(float(cap))
            power_trace[cycle] = true_power
        return power_trace

    @staticmethod
    def _hmean_progress(trace):
        """Harmonic mean across units of window-mean delivered power —
        the speedup proxy (progress tracks delivered power in the
        perf model, and hmean is the paper's pairing metric)."""
        unit_means = trace.mean(axis=0)
        return len(unit_means) / np.sum(1.0 / unit_means)

    def test_budget_held_and_recovery_within_2pct(self):
        faulty = self._drive(inject_faults=True)
        clean = self._drive(inject_faults=False)
        h_faulty = self._hmean_progress(faulty[-self.WINDOW:])
        h_clean = self._hmean_progress(clean[-self.WINDOW:])
        assert abs(h_faulty - h_clean) / h_clean <= 0.02
