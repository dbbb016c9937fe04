"""Scheduled node-failure injection in the simulator."""

import numpy as np
import pytest

from repro.cluster.events import NodeFailureEvent
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig
from repro.workloads.registry import get_workload

SPEC = ClusterSpec(n_nodes=4, sockets_per_node=2)
SIM = SimulationConfig(time_scale=0.05, max_steps=60_000, inter_run_gap_s=2.0)


def build(manager="dps", failures=(), fault_config=None, record=True, spec=SPEC):
    return Simulation(
        cluster_spec=spec,
        manager=create_manager(manager),
        assignments=[
            Assignment(
                spec=get_workload("kmeans"),
                unit_ids=spec.half_unit_ids(0),
            ),
            Assignment(
                spec=get_workload("gmm"),
                unit_ids=spec.half_unit_ids(1),
            ),
        ],
        target_runs=1,
        sim_config=SIM,
        seed=7,
        record_telemetry=record,
        failures=failures,
        fault_config=fault_config,
    )


class TestNodeFailureEvent:
    def test_recover_must_follow_fail(self):
        with pytest.raises(ValueError):
            NodeFailureEvent(node_id=0, fail_at_s=10.0, recover_at_s=5.0)

    def test_negative_times_rejected(self):
        nan, inf = float("nan"), float("inf")
        # NaN compares false both ways: unchecked, it schedules a failure
        # that never fires, or a recovery that silently never comes.
        for fail_at_s, recover_at_s in (
            (-1.0, None), (nan, None), (inf, None), (30.0, nan), (30.0, inf),
        ):
            with pytest.raises(ValueError):
                NodeFailureEvent(
                    node_id=0, fail_at_s=fail_at_s, recover_at_s=recover_at_s
                )


class TestValidation:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="node 9"):
            build(failures=[NodeFailureEvent(node_id=9, fail_at_s=1.0)])


    # Windows are half-open: [fail_at_s, recover_at_s), and a permanent
    # failure runs forever.  Overlapping windows of one node used to be
    # accepted, and the first recovery brought the node back while the
    # other window still held it down.
    @pytest.mark.parametrize(
        "windows, shown",
        [
            (((10.0, 30.0), (20.0, 50.0)), r"\[10.0, 30.0\) and \[20.0, 50.0\)"),
            (((10.0, 50.0), (20.0, 30.0)), r"\[10.0, 50.0\) and \[20.0, 30.0\)"),
            (((40.0, 50.0), (10.0, None)), r"\[10.0, inf\) and \[40.0, 50.0\)"),
        ],
        ids=["overlap", "nested", "permanent"],
    )
    def test_overlapping_windows_of_one_node_rejected(self, windows, shown):
        failures = [NodeFailureEvent(1, fail, end) for fail, end in windows]
        with pytest.raises(ValueError, match=f"node 1: outage windows {shown}"):
            build(failures=failures)

    def test_touching_and_other_nodes_windows_accepted(self):
        build(
            failures=[
                NodeFailureEvent(1, 10.0, 20.0),
                NodeFailureEvent(1, 20.0, 30.0),
                NodeFailureEvent(2, 15.0, 25.0),
            ]
        )


class TestFailureInjection:
    FAILURES = (NodeFailureEvent(node_id=1, fail_at_s=5.0, recover_at_s=20.0),)

    def test_events_fire_once_and_budget_holds(self):
        result = build(failures=self.FAILURES).run()
        assert len(result.events.of_kind("node_failed")) == 1
        assert len(result.events.of_kind("node_recovered")) == 1
        assert result.max_caps_sum_w <= SPEC.budget_w * (1 + 1e-6)
        # Mirrored into the structured telemetry channel.
        assert len(result.telemetry.events.of_kind("node_failed")) == 1

    def test_down_node_reads_zero_then_recovers(self):
        result = build(failures=self.FAILURES).run()
        t = result.telemetry.time_s
        down = (t >= 5.0 + 1.0) & (t <= 20.0 - 1.0)
        up = t > 21.0
        node1 = [2, 3]  # units of node 1 (2 sockets per node)
        assert (result.telemetry.readings_w[down][:, node1] == 0.0).all()
        assert (result.telemetry.readings_w[up][:, node1] > 0.0).all()

    def test_permanent_failure_never_recovers(self):
        failures = (NodeFailureEvent(node_id=0, fail_at_s=3.0),)
        result = build(failures=failures).run()
        assert len(result.events.of_kind("node_failed")) == 1
        assert not result.events.of_kind("node_recovered")

    def test_failure_does_not_truncate_the_run(self):
        result = build(failures=self.FAILURES).run()
        assert not result.truncated
        assert result.max_caps_sum_w <= SPEC.budget_w * (1 + 1e-6)


class TestMeterFaultInjection:
    def test_faults_do_not_break_the_run(self):
        cfg = FaultConfig(stuck_prob=0.05, dropout_prob=0.05, spike_prob=0.02)
        result = build(fault_config=cfg).run()
        assert not result.truncated
        assert result.max_caps_sum_w <= SPEC.budget_w * (1 + 1e-6)

    def test_seed_unchanged_without_faults(self):
        """Enabling the fault plumbing with no config must not disturb the
        seed lineage of an existing simulation."""
        a = build(fault_config=None).run()
        b = build(fault_config=None).run()
        assert a.durations == b.durations
