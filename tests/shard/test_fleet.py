"""A fleet driven by hand: strikes between steps, cycles read as they end.

:func:`~repro.shard.run_sharded` is one caller of :class:`~repro.shard.Fleet`;
these tests are another.  They strike the fleet directly, read each
:class:`~repro.shard.FleetCycle` before taking the next step, and check
that the cycles they collected are exactly the session ``run_sharded``
runs from the equivalent :class:`~repro.shard.ShardChaosSchedule`.
"""

from collections import Counter

import numpy as np
import pytest

from repro.shard import (
    ArbiterConfig,
    Fleet,
    RecoveryOptions,
    ShardChaosSchedule,
    run_sharded,
)
from tests.shard.sessions import make_cluster

CYCLES = 16
PARTITION_AT, HEAL_AT, KILL_AT = 3, 9, 5


def settings(root):
    return dict(
        config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
        recovery=RecoveryOptions(checkpoint_dir=root, restart_delay_cycles=1),
        rng=np.random.default_rng(1),
    )


def demands():
    return np.random.default_rng(2).uniform(40.0, 160.0, size=(CYCLES, 8))


def drive_by_hand(tmp_path):
    """Partition shard 0, kill shard 1, heal shard 0 — one call each."""
    root = tmp_path / "by-hand"
    seen = {"quarantined": None, "rejoined": None}
    collected = []
    with Fleet(make_cluster(n_nodes=4), 2, "dps", root, **settings(root)) as fleet:
        fleet.start()
        for step, demand in enumerate(demands()):
            if step == PARTITION_AT:
                fleet.partition(0)
            if step == KILL_AT:
                fleet.kill(1)
            if step == HEAL_AT:
                assert seen["quarantined"] is not None, "heal before quarantine"
                fleet.heal(0)
            cycle = fleet.step(demand)
            if step == 0:
                assert cycle is None
                continue
            assert cycle.step == step - 1
            collected.append(cycle)
            for event in cycle.events:
                for kind in seen:
                    if event.kind == f"shard_{kind}" and event.node_id == 0:
                        seen[kind] = seen[kind] or cycle.step
        result = fleet.close()
    return collected, seen, result


def test_partition_and_heal_are_seen_between_steps(tmp_path):
    collected, seen, result = drive_by_hand(tmp_path)
    # The arbiter quarantined shard 0 after the partition and before the
    # heal was struck, and let it rejoin once the healed link delivered.
    assert PARTITION_AT <= seen["quarantined"] < HEAL_AT
    assert seen["rejoined"] >= HEAL_AT
    by_step = {cycle.step: cycle for cycle in collected}
    assert by_step[KILL_AT].statuses == {0: "ok", 1: "crashed"}
    assert set(by_step[KILL_AT].acks) == {0}
    assert np.isnan(by_step[KILL_AT].power[4:]).all()
    assert by_step[0].statuses == {0: "ok", 1: "ok"}
    # Lease samples arrive with the cycle that ran the arbiter.
    assert [s.cycle for s in by_step[1].leases] == [1, 1]
    assert result.cycles == CYCLES
    assert result.shard_restarts == [0, 1]
    assert result.invariant_violations == 0


def test_hand_driven_cycles_are_the_run_sharded_session(tmp_path):
    collected, _, result = drive_by_hand(tmp_path)
    root = tmp_path / "schedule"
    reference = run_sharded(
        make_cluster(n_nodes=4),
        n_shards=2,
        manager_factory=None,
        demand_fn=lambda step: demands()[step],
        cycles=CYCLES,
        checkpoint_dir=root,
        chaos=ShardChaosSchedule(
            partition_at={0: PARTITION_AT},
            heal_at={0: HEAL_AT},
            shard_kill_at={1: KILL_AT},
        ),
        manager_name="dps",
        **settings(root),
    )
    # Every cycle but the last came back from a step; close() ran the last.
    power = np.vstack([c.power for c in collected] + [result.power_history[-1]])
    caps = np.vstack([c.caps for c in collected] + [result.caps_history[-1]])
    for mine, theirs in (
        (power, reference.power_history),
        (caps, reference.caps_history),
        (result.power_history, reference.power_history),
    ):
        assert np.array_equal(mine, theirs, equal_nan=True)

    def trail(events):
        return [(e.time_s, e.kind, e.node_id, e.unit, e.detail) for e in events]

    assert trail(result.events) == trail(reference.events)
    assert list(result.timeline) == list(reference.timeline)
    # Steps deliver each event and lease sample once, start-up's with the
    # first cycle; close() keeps only what the last cycle logged.
    delivered = Counter(tuple(e) for c in collected for e in trail(c.events))
    assert not delivered - Counter(map(tuple, trail(result.events)))
    assert {("shard_registered", 0), ("shard_registered", 1)} <= {
        (e.kind, e.node_id) for e in collected[0].events
    }
    leases = [s for c in collected for s in c.leases]
    assert leases == list(result.timeline)[: len(leases)]
    rest = list(result.timeline)[len(leases):]
    assert [s.cycle for s in rest] == [result.timeline[-1].cycle] * 2


def test_membership_strikes_need_process_shards(tmp_path):
    fleet = Fleet(make_cluster(n_nodes=4), 2, "dps", tmp_path)
    with pytest.raises(ValueError, match="process"):
        fleet.admit()
    with pytest.raises(ValueError, match="process"):
        fleet.drain(0)


def test_thread_fleet_needs_a_manager(tmp_path):
    with pytest.raises(ValueError, match="manager_name or manager_factory"):
        Fleet(make_cluster(n_nodes=4), 2, None, tmp_path)
