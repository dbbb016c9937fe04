"""The ``pair --chaos`` spec and the chaos pair it runs."""

import pytest

from repro.cluster.events import NodeFailureEvent
from repro.core.config import SimulationConfig
from repro.experiments.chaos import ChaosSpec, parse_chaos, run_chaos_pair
from repro.experiments.harness import ExperimentConfig
from repro.powercap.faults import FaultConfig


class TestParseChaos:
    def test_full_spec(self):
        spec = parse_chaos(
            "stuck=0.05, dropout=0.1,spike=0.02,spike_gain=4,"
            "kill=1@30-60+2@45"
        )
        assert spec == ChaosSpec(
            faults=FaultConfig(
                stuck_prob=0.05,
                dropout_prob=0.1,
                spike_prob=0.02,
                spike_gain=4.0,
            ),
            failures=(
                NodeFailureEvent(node_id=1, fail_at_s=30.0, recover_at_s=60.0),
                NodeFailureEvent(node_id=2, fail_at_s=45.0),
            ),
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("stuck", "is not key=value"),
            ("kill=1", "is not node@start"),
            ("flaky=0.1", "unknown chaos key 'flaky'"),
        ],
    )
    def test_malformed_spec_names_its_fault(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_chaos(spec)


def test_dps_pair_keeps_the_budget_through_faults_and_a_kill():
    config = ExperimentConfig(
        sim=SimulationConfig(time_scale=0.05), repeats=1, seed=42
    )
    chaos = parse_chaos("stuck=0.05,dropout=0.05,spike=0.02,kill=1@5-15")
    outcome = run_chaos_pair(config, "kmeans", "gmm", "dps", chaos)
    assert outcome.budget_respected
    assert outcome.node_failures == 1
    assert outcome.node_recoveries == 1
    assert not outcome.result.truncated


def test_overlapping_kills_of_one_node_are_rejected():
    # The directive parses, but the plant cannot hold node 1 down through
    # [10, 50) while also bringing it back at 30.
    chaos = parse_chaos("kill=1@10-50+1@20-30")
    config = ExperimentConfig(sim=SimulationConfig(time_scale=0.05), repeats=1)
    with pytest.raises(ValueError, match=r"node 1: outage windows \[10.0, 50.0\)"):
        run_chaos_pair(config, "kmeans", "gmm", "dps", chaos)


def test_self_pair_runs_its_second_half_as_its_own_workload():
    config = ExperimentConfig(sim=SimulationConfig(time_scale=0.05), repeats=1)
    outcome = run_chaos_pair(config, "lr", "lr", "dps", parse_chaos("stuck=0.01"))
    result = outcome.result
    assert [e.spec.name for e in result.executions] == ["lr", "lr@1"]
    assert all(e.runs_completed >= 1 for e in result.executions)
    assert outcome.budget_respected and not result.truncated
