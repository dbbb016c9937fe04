"""Golden digests of the simulated hardware's complete output.

The struct-of-arrays RAPL bank moved the storage and the arithmetic of
every domain and meter; nothing it touches may change a single bit of a
cap vector, a reading or an energy counter.  Each digest below is a
SHA-256 over *every* decided cap vector, every vector of caps in effect,
readings and true powers, and the final energy counter of every unit of
a small hardened simulation.  The constants were computed at commit
``91ac78b`` — the per-object implementation, before the bank existed —
and committed unchanged, so a failure here means the hardware model
moved, not that the constant is stale.
"""

import hashlib

import numpy as np

from repro.cluster import simulator
from repro.cluster.cluster import Cluster
from repro.cluster.events import NodeFailureEvent
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import ClusterSpec, RaplConfig, SimulationConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig
from repro.safety import SafetyConfig
from repro.workloads.registry import get_workload

SPEC = ClusterSpec(n_nodes=20, sockets_per_node=2)
#: 3 kJ wrap: a unit near 100 W wraps its counter every ~30 cycles.
RAPL = RaplConfig(counter_wrap_uj=3_000_000_000)

HARDENED = "107440b202d07c033c2666b45a40177832f0c7cd5a7604a361065c9f50cb628a"
FAULTS_AND_NODE_FAILURE = (
    "5fec81dd02550d1847c2bc0f5b4cfd4719f094f9da8251eed3bbf9f6497c8d29"
)


def run_digest(monkeypatch, tmp_path, dt_s, **kwargs) -> str:
    built = []

    class CapturedCluster(Cluster):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    monkeypatch.setattr(simulator, "Cluster", CapturedCluster)
    decided = []
    base = type(create_manager("dps"))

    class Recording(base):
        def step(self, power_w, demand_w=None):
            caps = super().step(power_w, demand_w)
            decided.append(caps.copy())
            return caps

    per = SPEC.n_units // 2
    sim = Simulation(
        cluster_spec=SPEC,
        manager=Recording(),
        assignments=[
            Assignment(get_workload("kmeans"), np.arange(0, per)),
            Assignment(get_workload("gmm"), np.arange(per, 2 * per)),
        ],
        target_runs=1,
        sim_config=SimulationConfig(
            dt_s=dt_s, time_scale=0.1, max_steps=60_000, inter_run_gap_s=2.0
        ),
        rapl_config=RAPL,
        seed=12,
        record_telemetry=True,
        actuation_delay_steps=1,
        verify_actuation=True,
        checkpoint_dir=tmp_path,
        checkpoint_every=5,
        safety=SafetyConfig(guard=True, invariant_mode="strict"),
        **kwargs,
    )
    result = sim.run()
    (cluster,) = built
    # Longer than two noise blocks, or the prefetch is never refilled.
    assert result.steps > 140 and not result.truncated
    assert not result.safety_events.of_kind("invariant_violation")
    sha = hashlib.sha256()
    log = result.telemetry
    for rows in (decided, log.caps_w, log.readings_w, log.power_w):
        sha.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    counters = [d.read_energy_uj() for d in cluster.domains]
    assert max(counters) < RAPL.counter_wrap_uj
    sha.update(np.asarray(counters, dtype=np.int64).tobytes())
    sha.update(np.ascontiguousarray(cluster.true_power_w()).tobytes())
    sha.update(repr((result.steps, sorted(result.durations.items()))).encode())
    return sha.hexdigest()


def test_hardened_simulation_digest(monkeypatch, tmp_path):
    assert run_digest(monkeypatch, tmp_path, dt_s=0.5) == HARDENED


def test_faulty_meters_and_node_failure_digest(monkeypatch, tmp_path):
    digest = run_digest(
        monkeypatch,
        tmp_path,
        dt_s=1.0,
        fault_config=FaultConfig(
            stuck_prob=0.03, dropout_prob=0.03, spike_prob=0.02
        ),
        failures=(NodeFailureEvent(node_id=3, fail_at_s=10.0, recover_at_s=40.0),),
    )
    assert digest == FAULTS_AND_NODE_FAILURE


def test_faulty_run_at_half_second_steps_completes_clean(monkeypatch, tmp_path):
    """At ``dt_s=0.5`` this run passes through leftovers between the
    invariant's old 1e-6 W water-fill threshold and ``budget_epsilon``
    (0.961 W with 32 high-priority units), where ``readjust`` equalises
    and legitimately lowers above-mean units: the strict sweep used to
    abort it with "water-fill shrank high-priority units"."""
    run_digest(
        monkeypatch,
        tmp_path,
        dt_s=0.5,
        fault_config=FaultConfig(
            stuck_prob=0.03, dropout_prob=0.03, spike_prob=0.02
        ),
        failures=(NodeFailureEvent(node_id=3, fail_at_s=10.0, recover_at_s=40.0),),
    )
