"""Budget-safety envelope acceptance over the one-shard fleet.

The bar (docs/resilience.md "Layer 4"): under the existing chaos
schedules — client kill/rejoin, faulty meters, controller crash — with
the envelope enabled, worst-case committed power never exceeds the
budget for more than one consecutive control cycle, every excursion is
reported by a ``budget_*`` event, every enforcement names its ladder
rung, and the strict invariant monitors stay clean end to end.

Each session dumps its structured event log as JSON into the test's
tmp dir; the shard-chaos-soak CI job runs with ``--basetemp`` under
the artifacts directory and uploads those logs when the job fails.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.deploy.health import ResilienceConfig
from repro.powercap.faults import FaultConfig
from repro.safety import SafetyConfig
from repro.shard import RecoveryOptions, ShardChaosSchedule
from repro.telemetry.log import SAFETY_EVENT_KINDS
from tests.deploy.sessions import one_shard, plane_session
from tests.safety.test_simulator_safety import GreedyManager

SPEC = ClusterSpec(n_nodes=3, sockets_per_node=2)
STRICT = SafetyConfig(guard=True, invariant_mode="strict")
RUNG_KINDS = (
    "budget_shave_grants",
    "budget_scale_down",
    "budget_emergency_drop",
)


def run_session(
    tmp_path,
    chaos=None,
    fallback="hold-last",
    cycles=16,
    seed=11,
    manager_seed=1,
    faults=None,
    recovery=None,
    backoff_cycles=8,
):
    cluster = Cluster(
        SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(seed)
    )
    if faults is not None:
        cluster.bank.set_faults(
            faults, np.random.default_rng(seed + 1).spawn(cluster.n_units)
        )
    demand = np.full(cluster.n_units, 150.0)
    return one_shard(
        tmp_path,
        cluster,
        create_manager("dps"),
        lambda step: demand,
        cycles=cycles,
        rng=np.random.default_rng(manager_seed),
        chaos=chaos,
        resilience=ResilienceConfig(
            fallback=fallback, backoff_cycles=backoff_cycles
        ),
        recovery=recovery,
        safety=STRICT,
    )


def node_chaos(kill_at, reconnect_at):
    return ShardChaosSchedule(
        node_kill_at=kill_at, node_reconnect_at=reconnect_at
    )


def dump_events(result, tmp_path, name):
    """Write the session's event log where the CI artifact upload finds it."""
    rows = [
        {
            "time_s": e.time_s,
            "kind": e.kind,
            "node_id": e.node_id,
            "unit": e.unit,
            "detail": e.detail,
        }
        for e in result.events
    ]
    (tmp_path / f"{name}_events.json").write_text(json.dumps(rows, indent=1))


def assert_envelope_held(result, max_attempts=1):
    """The acceptance bar shared by every chaos session.

    * strict invariant monitors found nothing;
    * worst-case committed power never exceeded the budget on two
      consecutive control cycles of one server (each excursion is the
      bounded old-caps-still-held transient, gone once the next
      dispatch is acknowledged);
    * every enforcement event names a ladder rung.
    """
    assert not result.events.of_kind("invariant_violation")
    overshoots = result.events.of_kind("budget_overshoot")
    cycles = sorted({int(e.time_s) for e in overshoots})
    consecutive = [
        (a, b) for a, b in zip(cycles, cycles[1:]) if b - a == 1
    ]
    # Across a supervised restart the cycle counter resets, so adjacent
    # indices from different attempts may collide; allow one boundary
    # pair per extra attempt, never more.
    assert len(consecutive) <= max_attempts - 1, (
        f"worst-case committed power exceeded the budget on consecutive "
        f"cycles {consecutive}"
    )
    for event in overshoots:
        assert "overshoot=" in event.detail
    for kind in RUNG_KINDS:
        for event in result.events.of_kind(kind):
            assert "overshoot=" in event.detail
            assert "target=" in event.detail


class TestClientChaos:
    def test_kill_rejoin_hold_last(self, tmp_path):
        result = run_session(
            tmp_path,
            chaos=node_chaos({1: 3}, {1: 9}),
        )
        dump_events(result, tmp_path, "kill_rejoin_hold_last")
        assert_envelope_held(result)
        assert result.events.of_kind("client_quarantined")
        assert result.events.of_kind("client_rejoined")

    def test_kill_rejoin_assume_tdp_takes_ladder(self, tmp_path):
        """TDP accounting of a dead node shrinks the reachable share, so
        the guard must scale the live units down every quarantined
        cycle — and the budget still holds throughout."""
        result = run_session(
            tmp_path,
            chaos=node_chaos({1: 3}, {1: 9}),
            fallback="assume-tdp",
        )
        dump_events(result, tmp_path, "kill_rejoin_assume_tdp")
        assert_envelope_held(result)
        rungs = result.events.of_kind("budget_scale_down")
        assert rungs, "assume-tdp quarantine must force the ladder"
        # Enforcement runs exactly while the node is out of reach.
        quarantined_at = int(
            result.events.of_kind("client_quarantined")[0].time_s
        )
        rejoined_at = int(result.events.of_kind("client_rejoined")[0].time_s)
        for event in rungs:
            assert quarantined_at <= int(event.time_s) <= rejoined_at

    def test_faulty_meters(self, tmp_path):
        result = run_session(
            tmp_path,
            cycles=20,
            faults=FaultConfig(
                dropout_prob=0.05, spike_prob=0.05, stuck_prob=0.02
            ),
        )
        dump_events(result, tmp_path, "faulty_meters")
        assert_envelope_held(result)

    def test_faulty_meters_with_kill(self, tmp_path):
        result = run_session(
            tmp_path,
            cycles=20,
            chaos=node_chaos({2: 5}, {2: 12}),
            faults=FaultConfig(dropout_prob=0.05, spike_prob=0.05),
        )
        dump_events(result, tmp_path, "faulty_meters_with_kill")
        assert_envelope_held(result)


class TestControllerChaos:
    def test_controller_crash(self, tmp_path):
        result = run_session(
            tmp_path,
            cycles=24,
            chaos=ShardChaosSchedule(shard_kill_at={0: 8}),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=4,
                restart_delay_cycles=2,
                hang_timeout_s=10.0,
            ),
        )
        dump_events(result, tmp_path, "controller_crash")
        assert result.shard_restarts == [1]
        assert_envelope_held(result, max_attempts=2)
        # The restarted server's envelope restarts from the pessimistic
        # uncapped prior, so each attempt may report one cold-start
        # excursion and nothing more.
        overshoots = result.events.of_kind("budget_overshoot")
        assert len(overshoots) <= 2 * (1 + result.shard_restarts[0])


class TestObservability:
    def test_excursions_match_events(self, tmp_path):
        """Every excursion the session reports is a structured event of a
        registered safety kind — nothing silent, nothing ad hoc."""
        result = run_session(
            tmp_path,
            chaos=node_chaos({1: 3}, {1: 9}),
            fallback="assume-tdp",
        )
        dump_events(result, tmp_path, "observability")
        safety_kinds = {
            e.kind for e in result.events if e.kind in SAFETY_EVENT_KINDS
        }
        assert "budget_overshoot" in safety_kinds
        assert safety_kinds <= set(SAFETY_EVENT_KINDS)

    def test_disabled_envelope_emits_nothing(self):
        # A shard always runs the envelope (it is the source of the
        # shard's committed-power summaries), so the disabled envelope is
        # a bare deploy server given safety=None explicitly.
        cluster = Cluster(
            SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(11)
        )
        demand = np.full(cluster.n_units, 150.0)
        result = plane_session(
            cluster,
            create_manager("dps"),
            lambda step: demand,
            cycles=6,
            rng=np.random.default_rng(1),
            safety=None,
        )
        for kind in SAFETY_EVENT_KINDS:
            assert not result.events.of_kind(kind)

    def test_budget_rescaled_stamped_at_its_cycle(self):
        cluster = Cluster(
            SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(11)
        )
        demand = np.full(cluster.n_units, 150.0)
        result = plane_session(
            cluster,
            GreedyManager(),
            lambda step: demand,
            cycles=4,
            safety=SafetyConfig(guard=True),
        )
        rescaled = result.events.of_kind("budget_rescaled")
        assert [e.time_s for e in rescaled] == [1.0, 2.0, 3.0, 4.0]

    def test_budget_rescaled_restamped_after_a_restart(self, tmp_path):
        """The restarted attempt's stack takes over the durable manager's
        rescale hook: its events carry the fleet step it ran, not the dead
        attempt's last one (the kill at 3 costs steps 3-5)."""
        cluster = Cluster(
            ClusterSpec(n_nodes=2, sockets_per_node=2),
            RaplConfig(noise_std_w=0.0),
            np.random.default_rng(11),
        )
        demand = np.full(cluster.n_units, 150.0)
        result = one_shard(
            tmp_path,
            cluster,
            GreedyManager(),
            lambda step: demand,
            cycles=8,
            chaos=ShardChaosSchedule(shard_kill_at={0: 3}),
        )
        rescaled = result.events.of_kind("budget_rescaled")
        assert [e.time_s for e in rescaled] == [0.0, 1.0, 2.0, 6.0, 7.0]
