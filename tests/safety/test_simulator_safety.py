"""Simulation + SafetyConfig: the envelope on the direct actuation path."""

import numpy as np
import pytest

from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import PowerManager, create_manager
from repro.safety import SafetyConfig
from repro.workloads.phases import Hold, PhaseProgram, Ramp
from repro.workloads.spec import WorkloadSpec

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


def tiny_workload(name="tiny", duration=20.0, level=140.0):
    return WorkloadSpec(
        name=name,
        suite="spark",
        power_class="mid",
        program=PhaseProgram(
            [Ramp(2, 20, level), Hold(duration, level), Ramp(2, level, 20)]
        ),
        active_units=None,
        paper_duration_s=duration,
        paper_above_110_pct=50.0,
        data_size="test",
    )


class GreedyManager(PowerManager):
    """Asks for TDP everywhere, so the budget rescale fires every step."""

    name = "greedy"

    def _decide(self, power_w, demand_w):
        return np.full(self.n_units, self.max_cap_w)


def make_sim(manager="dps", safety=None, **kwargs):
    workloads = [
        (tiny_workload("a"), SPEC.half_unit_ids(0)),
        (tiny_workload("b"), SPEC.half_unit_ids(1)),
    ]
    return Simulation(
        cluster_spec=SPEC,
        manager=create_manager(manager),
        assignments=[Assignment(spec=w, unit_ids=u) for w, u in workloads],
        target_runs=1,
        sim_config=SimulationConfig(max_steps=5000, inter_run_gap_s=2.0),
        seed=1,
        safety=safety,
        **kwargs,
    )


class TestSimulatorEnvelope:
    def test_strict_run_is_clean(self):
        """A healthy DPS run under strict monitors: no violations, no
        excursions (the simulator seeds the applied view from a real
        hardware read-back, so there is no cold-start transient), and
        the ladder never fires."""
        result = make_sim(
            safety=SafetyConfig(guard=True, invariant_mode="strict")
        ).run()
        assert result.safety_events is not None
        assert not result.safety_events.of_kind("invariant_violation")
        assert result.budget_excursions == 0
        assert result.guard_rungs == {}

    def test_safety_events_merge_into_telemetry(self):
        result = make_sim(
            safety=SafetyConfig(guard=True, invariant_mode="sampling"),
            record_telemetry=True,
        ).run()
        # Whatever the envelope recorded is also in the telemetry
        # channel, so the JSON/CSV exports carry it.
        safety_kinds = {e.kind for e in result.safety_events}
        telemetry_kinds = {e.kind for e in result.telemetry.events}
        assert safety_kinds <= telemetry_kinds or not safety_kinds

    def test_decisions_unchanged_by_clean_guard(self):
        """On a run the ladder never touches, enabling the envelope must
        not perturb a single decision."""
        plain = make_sim(record_telemetry=True).run()
        guarded = make_sim(
            safety=SafetyConfig(guard=True, invariant_mode="strict"),
            record_telemetry=True,
        ).run()
        np.testing.assert_allclose(
            plain.telemetry.caps_w, guarded.telemetry.caps_w
        )

    def test_disabled_safety_leaves_result_fields_empty(self):
        result = make_sim().run()
        assert result.safety_events is None
        assert result.budget_excursions == 0
        assert result.guard_rungs == {}


class TestRescaleEvents:
    @pytest.mark.parametrize("journaled", [False, True])
    def test_budget_rescaled_stamped_at_its_decision(self, tmp_path, journaled):
        """The rescale hook stamps the decision's own time, also when it
        is reached through ``RecoverableController.manager``."""
        spec = ClusterSpec()  # The 20-unit testbed.
        result = Simulation(
            cluster_spec=spec,
            manager=GreedyManager(),
            assignments=[
                Assignment(spec=tiny_workload(), unit_ids=spec.half_unit_ids(0))
            ],
            sim_config=SimulationConfig(max_steps=4),
            safety=SafetyConfig(guard=True),
            checkpoint_dir=tmp_path if journaled else None,
        ).run()
        assert result.steps == 4
        rescaled = result.safety_events.of_kind("budget_rescaled")
        assert [e.time_s for e in rescaled] == [1.0, 2.0, 3.0, 4.0]
