"""Shared sessions and acceptance assertions of the sharded harness tests.

``run_sharded`` is one loop over two transports, so the guarantees both
transports must keep are asserted once, here; ``test_harness.py``
(threads) and ``test_process.py`` (processes) call these and add only
what their own transport makes observable (SIGTERM drain, live admit,
codec parity, ``link_reconnect``).
"""

import json

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.constant import ConstantManager
from repro.shard import (
    ArbiterConfig,
    RecoveryOptions,
    ShardChaosSchedule,
    run_sharded,
)
from repro.telemetry.export import leases_to_csv
from repro.telemetry.log import SHARD_EVENT_KINDS

#: Every transition the full failure matrix must leave in the event log
#: (kill + hang + partition/heal + arbiter kill/restart), either mode.
MATRIX_EVENT_KINDS = frozenset(
    {
        "shard_registered",
        "shard_lease_granted",
        "shard_lease_applied",
        "shard_lease_expired",
        "shard_frozen",
        "shard_unfrozen",
        "shard_quarantined",
        "shard_rejoined",
        "shard_killed",
        "shard_hung",
        "shard_restarted",
        "shard_partitioned",
        "shard_partition_healed",
        "arbiter_killed",
        "arbiter_restarted",
        "controller_killed",
        "controller_hung",
        "controller_restarted",
    }
)


def make_cluster(n_nodes, sockets_per_node=2, seed=0, rapl=None):
    return Cluster(
        ClusterSpec(n_nodes=n_nodes, sockets_per_node=sockets_per_node),
        rapl or RaplConfig(noise_std_w=0.0),
        np.random.default_rng(seed),
    )


def run_session(mode, cluster, tmp_path, n_shards, cycles, chaos=None,
                config=None, recovery=None, demand_fn=None, **kwargs):
    """One seeded ``ConstantManager`` session in the given mode."""
    demand = np.full(cluster.n_units, 0.6)
    return run_sharded(
        cluster,
        n_shards=n_shards,
        manager_factory=lambda i: ConstantManager(),
        demand_fn=demand_fn or (lambda step: demand),
        cycles=cycles,
        checkpoint_dir=tmp_path / "ckpt",
        config=config or ArbiterConfig(period_cycles=2),
        chaos=chaos,
        recovery=recovery
        or RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
        rng=np.random.default_rng(1),
        mode=mode,
        manager_name="constant" if mode == "process" else None,
        **kwargs,
    )


def dump_artifacts(result, tmp_path, name):
    """Write the logs the CI chaos jobs upload on failure."""
    rows = [
        {
            "time_s": e.time_s,
            "kind": e.kind,
            "node_id": e.node_id,
            "detail": e.detail,
        }
        for e in result.events
    ]
    (tmp_path / f"{name}_events.json").write_text(json.dumps(rows, indent=1))
    (tmp_path / f"{name}_leases.csv").write_text(
        leases_to_csv(result.timeline)
    )


def assert_budget_conserved(result):
    """The invariant was swept on every arbiter cycle and never broken."""
    assert result.invariant_violations == 0
    assert result.invariant_sweeps == result.arbiter_cycles > 0
    assert result.worst_case_w <= result.budget_w * (1 + 1e-9)
    assert np.nansum(result.leases_w) <= result.budget_w * (1 + 1e-9)


def assert_chronological(result):
    """One log, one clock: every event is stamped with a step of the
    session, and the log reads in step order."""
    times = [e.time_s for e in result.events]
    assert all(t == int(t) and 0 <= t < result.cycles for t in times), times
    assert times == sorted(times)


def run_restart_chronology(mode, tmp_path):
    """Shard 0 killed at step 6 (restarted at 8), then its node 0's
    daemon killed at 11 and reconnected at 13: a ``dps`` fleet of two
    shards over 4 x 2 units, 16 steps."""
    cluster = Cluster(
        ClusterSpec(n_nodes=4, sockets_per_node=2), rng=np.random.default_rng(0)
    )
    demand = np.full(cluster.n_units, 150.0)
    return run_sharded(
        cluster,
        n_shards=2,
        manager_factory=None,
        demand_fn=lambda step: demand,
        cycles=16,
        checkpoint_dir=tmp_path / "ckpt",
        chaos=ShardChaosSchedule(
            shard_kill_at={0: 6}, node_kill_at={0: 11}, node_reconnect_at={0: 13}
        ),
        rng=np.random.default_rng(1),
        mode=mode,
        manager_name="dps",
    )


def assert_events_at_their_steps(result):
    """Every event of :func:`run_restart_chronology` reads the fleet step
    it happened at — not a restarted shard's own cycle count, not a
    checkpoint's cycle, not a 1-based deploy cycle."""

    def at(kind, node_id=None):
        return [
            e.time_s
            for e in result.events.of_kind(kind)
            if node_id is None or e.node_id == node_id
        ]

    assert_chronological(result)
    assert at("controller_killed") == [6.0]
    assert at("shard_restarted") == [8.0]
    assert at("restore_performed") == at("journal_replayed") == [8.0]
    assert at("client_quarantined", 0) == [11.0]
    assert at("fallback_applied", 0) == [12.0]
    assert at("client_rejoined", 0) == [13.0]
    # Both shards' cold-start envelopes overshoot on the first step, 0.
    assert at("budget_overshoot")[:2] == [0.0, 0.0]


def assert_clean_run(result, mode, n_shards, cycles):
    """A healthy fleet: conserved, fully reported, recovery untouched."""
    assert result.mode == mode
    assert result.cycles == cycles
    assert result.n_shards == n_shards
    assert_budget_conserved(result)
    assert_chronological(result)
    assert result.failed_shards == ()
    assert result.shard_restarts == [0] * n_shards
    assert result.arbiter_cycles == cycles // 2
    # Every arbiter cycle sampled every shard.
    assert len(result.timeline) == result.arbiter_cycles * n_shards
    assert result.bytes_links > 0
    # Nothing went down, so every cycle of every unit reported.
    assert np.isfinite(result.power_history).all()
    assert np.isfinite(result.caps_history).all()
    assert np.isfinite(result.leases_w).all()
    assert result.cycle_wall_s.shape == (cycles,)
    assert len(result.events.of_kind("shard_registered")) == n_shards
    kinds = {e.kind for e in result.events}
    assert "shard_lease_applied" in kinds
    # A healthy fleet never trips the recovery machinery.
    assert "shard_killed" not in kinds
    assert "link_reconnect" not in kinds


def assert_failure_matrix(result, killed, hung, partitioned):
    """Kill + hang + partition/heal + arbiter outage, all recovered."""
    # The global invariant held on every arbiter cycle, across both
    # arbiter incarnations.
    assert_budget_conserved(result)
    assert_chronological(result)

    # Every injected failure recovered within its restart budget.
    assert result.failed_shards == ()
    assert result.shard_restarts[killed] == 1
    assert result.shard_restarts[hung] == 1
    assert result.arbiter_restarts == 1

    # No silent failover: every transition is a structured event.
    kinds = {e.kind for e in result.events}
    missing = MATRIX_EVENT_KINDS - kinds
    assert not missing, f"missing event kinds: {sorted(missing)}"
    assert "shard_dead" not in kinds
    assert {k for k in kinds if k.startswith(("shard_", "arbiter_"))} <= set(
        SHARD_EVENT_KINDS
    )

    # Restart accounting matches the structured trail.
    restarted = result.events.of_kind("shard_restarted")
    assert len(restarted) == sum(result.shard_restarts)

    # The partitioned shard froze during the partition and was unfrozen
    # once the healed link delivered a fresh lease.
    frozen = [
        e.time_s
        for e in result.events.of_kind("shard_frozen")
        if e.node_id == partitioned
    ]
    unfrozen = [
        e.time_s
        for e in result.events.of_kind("shard_unfrozen")
        if e.node_id == partitioned
    ]
    assert frozen and unfrozen
    assert unfrozen[-1] > frozen[0]

    # The restarted arbiter resumed from its checkpoint.
    [restart] = result.events.of_kind("arbiter_restarted")
    assert "resumed_from_checkpoint=True" in restart.detail


def check_arbiter_kill_without_restart(mode, tmp_path):
    """With the arbiter dark for good, every shard freezes on its term."""
    result = run_session(
        mode,
        make_cluster(n_nodes=4),
        tmp_path,
        n_shards=2,
        cycles=12,
        config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
        chaos=ShardChaosSchedule(arbiter_kill_at=4),
    )
    assert result.failed_shards == ()
    assert result.invariant_violations == 0
    assert result.events.of_kind("arbiter_killed")
    # With the arbiter dark past the lease term, every shard froze
    # itself at its last confirmed committed power.
    frozen = {e.node_id for e in result.events.of_kind("shard_frozen")}
    assert frozen == {0, 1}
    assert not result.events.of_kind("shard_unfrozen")
    # Final leases are the ones the shards last acknowledged holding —
    # the same rule on either transport.
    assert np.isfinite(result.leases_w).all()
    assert float(result.leases_w.sum()) <= result.budget_w * (1 + 1e-9)
