"""The simulated plant: outages, demand, physics, progress and metering.

The failure-schedule cases pin the outage rule: times sit on the
``dt_s`` grid (anything else is refused), and each transition is one
event of the run's log, at its own time, with its dropout steps.  The
hand-stepped plant below then has to reproduce a whole simulation
without a manager, and a copied plant has to run on by itself.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import NodeFailureEvent
from repro.cluster.plant import Plant
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig
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
    """Node events of the run's one log, and the steps each node read 0 W."""
    assert result.telemetry.events is result.events
    logged = [
        (e.time_s, e.kind, e.node_id, e.detail)
        for e in result.events
        if e.kind.startswith("node_")
    ]
    readings = result.telemetry.readings_w
    dark = {}
    for node in range(SPEC.n_nodes):
        zero = (readings[:, 2 * node : 2 * node + 2] == 0.0).all(axis=1)
        if zero.any():
            dark[node] = result.telemetry.time_s[zero].tolist()
    return logged, dark, result.steps, result.sim_time_s


class TestFailureSchedule:
    def test_fail_and_recovery_crossing_one_step(self):
        # Both instants fall inside the step (10, 12]: a plant stepped
        # every 2 s cannot fail or recover there, so the schedule is
        # refused, naming the node and the time.
        with pytest.raises(ValueError, match="node 1: outage time 10.5 s"):
            simulate("dps", (NodeFailureEvent(1, 10.5, 11.5),), dt_s=2.0)
        # On the grid, each transition fires once, at its own time.
        result = simulate("dps", (NodeFailureEvent(1, 10.0, 12.0),), dt_s=2.0)
        assert outage_log(result) == (
            [(10.0, "node_failed", 1, "node=1"),
             (12.0, "node_recovered", 1, "node=1")],
            {1: [12.0]},
            26,
            52.0,
        )

    def test_two_windows_inside_one_step_are_refused(self):
        failures = (NodeFailureEvent(1, 10.0, 11.0), NodeFailureEvent(1, 12.0, 13.0))
        with pytest.raises(ValueError, match="node 1: outage time 10.0 s"):
            Plant.check(SPEC, ASSIGNMENTS, failures, 20.0)
        Plant.check(SPEC, ASSIGNMENTS, failures, 1.0)

    def test_two_nodes_crossing_one_step_fire_in_fail_order(self):
        # Node 2 is listed first, but both recoveries fall on one step
        # and fire in order of fail time: node 0, then node 2.
        result = simulate(
            "dps",
            (NodeFailureEvent(2, 6.0, 10.0), NodeFailureEvent(0, 5.0, 10.0)),
        )
        assert outage_log(result) == (
            [(5.0, "node_failed", 0, "node=0"),
             (6.0, "node_failed", 2, "node=2"),
             (10.0, "node_recovered", 0, "node=0"),
             (10.0, "node_recovered", 2, "node=2")],
            {0: [6.0, 7.0, 8.0, 9.0, 10.0], 2: [7.0, 8.0, 9.0, 10.0]},
            53,
            53.0,
        )

    def test_touching_windows_keep_the_node_down(self):
        result = simulate(
            "dps",
            (NodeFailureEvent(1, 20.0, 30.0), NodeFailureEvent(1, 10.0, 20.0)),
        )
        assert outage_log(result) == (
            [(10.0, "node_failed", 1, "node=1"),
             (20.0, "node_recovered", 1, "node=1"),
             (20.0, "node_failed", 1, "node=1"),
             (30.0, "node_recovered", 1, "node=1")],
            {1: [float(t) for t in range(11, 31)]},
            59,
            59.0,
        )

    def test_fractional_steps_fire_at_their_own_times(self):
        # Ten 0.1 s steps sum to 0.9999999999999999 s: the grid, not the
        # float sum, decides when a transition is due.
        result = simulate("dps", (NodeFailureEvent(1, 0.8, 1.1),), dt_s=0.1)
        assert [
            (round(e.time_s, 9), e.kind) for e in result.events.for_node(1)
        ] == [(0.8, "node_failed"), (1.1, "node_recovered")]


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
    plant = Plant(
        cluster, ASSIGNMENTS, workload_rngs,
        SimulationConfig(max_steps=5000, inter_run_gap_s=2.0),
        failures=failures,
        fault_config=faults,
        fault_rngs=rng.spawn(SPEC.n_units) if faults else (),
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
    if failures:
        assert plant.events.of_kind("node_failed")


def test_a_copied_plant_steps_and_stamps_on_its_own():
    # Stepped one after the other, not in lockstep: a copy whose log read
    # the original's clock would stamp its completions with a stale time.
    rng = np.random.default_rng(5)
    cluster_rng, _, *workload_rngs = rng.spawn(2 + len(ASSIGNMENTS))
    plant = Plant(Cluster(SPEC, rng=cluster_rng), ASSIGNMENTS, workload_rngs)
    for _ in range(5):
        plant.step(1.0)
    twins = [copy.deepcopy(plant), pickle.loads(pickle.dumps(plant))]
    for p in (*twins, plant):
        while min(p.completed) < 1:
            p.step(1.0)
    for twin in twins:
        assert twin.events is not plant.events
        assert list(twin.events) == list(plant.events)
    assert plant.events.of_kind("run_completed")
