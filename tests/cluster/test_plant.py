"""The simulated plant: outages, demand, physics, progress and metering.

The failure-schedule cases pin what ``Simulation`` logged before the
plant had an object of its own, so the move could not shift one event,
one dropout step or one run-completion time.  The hand-stepped plant
below then has to reproduce a whole simulation without a manager.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import NodeFailureEvent
from repro.cluster.plant import Plant
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig
from repro.telemetry.log import ResilienceEventLog
from repro.workloads.phases import Hold, PhaseProgram, Ramp
from repro.workloads.spec import WorkloadSpec

SPEC = ClusterSpec(n_nodes=4, sockets_per_node=2)


def workload(name):
    return WorkloadSpec(
        name=name,
        suite="spark",
        power_class="mid",
        program=PhaseProgram(
            [Ramp(2, 20, 140.0), Hold(40.0, 140.0), Ramp(2, 140.0, 20)]
        ),
        active_units=None,
        paper_duration_s=40.0,
        paper_above_110_pct=50.0,
        data_size="test",
    )


ASSIGNMENTS = [
    Assignment(workload("a"), np.arange(0, 4)),
    Assignment(workload("b"), np.arange(4, 8)),
]


def simulate(manager, failures=(), dt_s=1.0, **kwargs):
    return Simulation(
        SPEC,
        create_manager(manager),
        ASSIGNMENTS,
        sim_config=SimulationConfig(
            dt_s=dt_s, max_steps=5000, inter_run_gap_s=2.0
        ),
        seed=5,
        record_telemetry=True,
        failures=failures,
        **kwargs,
    ).run()


def outage_log(result):
    """Node events of both channels, and the steps each node read 0 W."""
    logged = [
        (e.time_s, e.kind, e.detail)
        for e in result.events
        if e.kind.startswith("node_")
    ]
    mirrored = [
        (e.time_s, e.kind, e.node_id)
        for e in result.telemetry.events
        if e.kind.startswith("node_")
    ]
    readings = result.telemetry.readings_w
    dark = {}
    for node in range(SPEC.n_nodes):
        zero = (readings[:, 2 * node : 2 * node + 2] == 0.0).all(axis=1)
        if zero.any():
            dark[node] = result.telemetry.time_s[zero].tolist()
    return logged, mirrored, dark, result.steps, result.sim_time_s


class TestFailureSchedule:
    def test_fail_and_recovery_crossing_one_step(self):
        # Both instants fall in (10, 12]: the failure fires at 12, its
        # recovery one step later, so exactly one step reads 0 W.
        result = simulate(
            "dps", (NodeFailureEvent(1, 10.5, 11.5),), dt_s=2.0
        )
        assert outage_log(result) == (
            [(12.0, "node_failed", "node=1"),
             (14.0, "node_recovered", "node=1")],
            [(12.0, "node_failed", 1), (14.0, "node_recovered", 1)],
            {1: [14.0]},
            26,
            52.0,
        )

    def test_two_nodes_crossing_one_step_fire_in_fail_order(self):
        # Node 2 is listed first and recovers first, but both steps fire
        # the transitions in order of fail time: node 0, then node 2.
        result = simulate(
            "dps",
            (NodeFailureEvent(2, 5.5, 9.3), NodeFailureEvent(0, 5.2, 9.7)),
        )
        assert outage_log(result) == (
            [(6.0, "node_failed", "node=0"),
             (6.0, "node_failed", "node=2"),
             (10.0, "node_recovered", "node=0"),
             (10.0, "node_recovered", "node=2")],
            [(6.0, "node_failed", 0), (6.0, "node_failed", 2),
             (10.0, "node_recovered", 0), (10.0, "node_recovered", 2)],
            {0: [7.0, 8.0, 9.0, 10.0], 2: [7.0, 8.0, 9.0, 10.0]},
            52,
            52.0,
        )

    def test_touching_windows_keep_the_node_down(self):
        result = simulate(
            "dps",
            (NodeFailureEvent(1, 20.0, 30.0), NodeFailureEvent(1, 10.0, 20.0)),
        )
        assert outage_log(result) == (
            [(10.0, "node_failed", "node=1"),
             (20.0, "node_recovered", "node=1"),
             (20.0, "node_failed", "node=1"),
             (30.0, "node_recovered", "node=1")],
            [(10.0, "node_failed", 1), (20.0, "node_recovered", 1),
             (20.0, "node_failed", 1), (30.0, "node_recovered", 1)],
            {1: [float(t) for t in range(11, 31)]},
            59,
            59.0,
        )


FAULTS = FaultConfig(stuck_prob=0.05, dropout_prob=0.05, spike_prob=0.05)


@pytest.mark.parametrize(
    "failures, faults",
    [
        ((), None),
        ((NodeFailureEvent(1, 10.0, 20.0), NodeFailureEvent(3, 15.0)), FAULTS),
    ],
    ids=["healthy", "outages-and-faults"],
)
def test_hand_stepped_plant_is_the_simulation_under_constant(failures, faults):
    # The simulator's seed lineage, with the manager's stream unused.
    rng = np.random.default_rng(5)
    cluster_rng, _, *workload_rngs = rng.spawn(2 + len(ASSIGNMENTS))
    cluster = Cluster(SPEC, rng=cluster_rng)
    outages = ResilienceEventLog()
    plant = Plant(
        cluster, ASSIGNMENTS, workload_rngs,
        SimulationConfig(max_steps=5000, inter_run_gap_s=2.0),
        failures=failures,
        fault_config=faults,
        fault_rngs=rng.spawn(SPEC.n_units) if faults else (),
        outage_log=outages,
    )
    readings, power, caps = [], [], []
    while min(plant.completed) < 1:
        cluster.bank.set_caps_w(np.full(SPEC.n_units, SPEC.constant_cap_w))
        readings.append(plant.step(1.0))
        power.append(plant.true_power)
        caps.append(plant.caps_in_effect)

    result = simulate("constant", failures, fault_config=faults)
    log = result.telemetry
    assert np.asarray(readings).tobytes() == log.readings_w.tobytes()
    assert np.asarray(power).tobytes() == log.power_w.tobytes()
    assert np.asarray(caps).tobytes() == log.caps_w.tobytes()
    assert plant.now == result.sim_time_s
    assert plant.completed == [e.runs_completed for e in result.executions]
    assert list(plant.events) == list(result.events)
    assert list(outages) == [
        e for e in log.events if e.kind.startswith("node_")
    ]
    if failures:
        assert outages.of_kind("node_failed")
