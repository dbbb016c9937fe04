"""The transport is an encoding, not a different computation.

``run_sharded`` has one loop; ``mode`` only picks how the clock and the
lease channel reach a shard.  So the same seeded session run once with
in-process shards and once over ``shard-server`` subprocesses must
produce the same physics and the same arbitration — bit for bit while
nothing restarts, and with the same outages and restart counts when
something does (a respawned process restores its sub-cluster from its
last persisted snapshot, a restarted in-process shard keeps its live
hardware, so values *after* a restart are allowed to differ).
"""

import numpy as np
import pytest

from repro.core.config import RaplConfig
from repro.shard import (
    ArbiterConfig,
    RecoveryOptions,
    ShardChaosSchedule,
    ShardedResult,
)
from tests.shard.sessions import make_cluster, run_session

CYCLES = 12


def both_modes(tmp_path, chaos=None, rapl=None, **kwargs):
    """The same seeded session over each transport.

    ``rapl`` is the cluster's RAPL configuration (noise-free by default);
    ``kwargs`` go to ``run_sharded`` unchanged.
    """
    demands = np.random.default_rng(5).uniform(
        30.0, 160.0, size=(CYCLES, 8)
    )
    results = {}
    for mode in ("thread", "process"):
        results[mode] = run_session(
            mode,
            make_cluster(n_nodes=4, seed=7, rapl=rapl),
            tmp_path / mode,
            n_shards=2,
            cycles=CYCLES,
            chaos=chaos,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / mode / "ckpt",
                checkpoint_every=2,
                hang_timeout_s=1.0,
                restart_delay_cycles=1,
            ),
            demand_fn=lambda step: demands[step],
            **kwargs,
        )
        assert results[mode].mode == mode
        assert results[mode].invariant_violations == 0
    return results["thread"], results["process"]


def lease_kinds(result):
    return {
        e.kind
        for e in result.events
        if e.kind.startswith(("shard_", "arbiter_"))
    }


@pytest.mark.parametrize(
    "chaos",
    [None, ShardChaosSchedule(arbiter_kill_at=4, arbiter_restart_at=8)],
    ids=["clean", "arbiter-outage"],
)
def test_histories_bit_identical_across_transports(tmp_path, chaos):
    thread, process = both_modes(tmp_path, chaos)
    assert np.isfinite(thread.power_history).all()
    assert np.array_equal(
        thread.power_history, process.power_history, equal_nan=True
    )
    assert np.array_equal(
        thread.caps_history, process.caps_history, equal_nan=True
    )
    assert thread.arbiter_cycles == process.arbiter_cycles > 0
    assert thread.invariant_sweeps == process.invariant_sweeps
    assert thread.shard_restarts == process.shard_restarts == [0, 0]
    assert thread.arbiter_restarts == process.arbiter_restarts
    assert np.array_equal(thread.leases_w, process.leases_w)
    assert lease_kinds(thread) == lease_kinds(process)


def test_process_shards_meter_with_the_cluster_rapl_config(tmp_path):
    """A process shard's private sub-cluster lags (and, with noise,
    meters) as the parent cluster does: its ``ShardSpec`` carries the
    cluster's ``RaplConfig``, so a fast lag moves both histories alike."""
    thread, process = both_modes(
        tmp_path, rapl=RaplConfig(noise_std_w=0.0, lag_tau_s=0.2)
    )
    assert np.isfinite(thread.power_history).all()
    assert np.array_equal(thread.power_history, process.power_history)
    assert np.array_equal(thread.caps_history, process.caps_history)


def test_partition_and_heal_walk_the_same_transitions(tmp_path):
    """A severed socket and a dropping in-memory link lose different
    frames in flight, so timing may differ by an arbiter period — but
    the lease protocol walks the same transitions either way."""
    thread, process = both_modes(
        tmp_path, ShardChaosSchedule(partition_at={0: 3}, heal_at={0: 7})
    )
    assert lease_kinds(thread) == lease_kinds(process)
    assert {
        "shard_partitioned",
        "shard_quarantined",
        "shard_frozen",
        "shard_partition_healed",
        "shard_rejoined",
        "shard_unfrozen",
    } <= lease_kinds(thread)


def test_kill_and_hang_cost_the_same_cycles(tmp_path):
    thread, process = both_modes(
        tmp_path,
        ShardChaosSchedule(shard_kill_at={0: 3}, shard_hang_at={1: 6}),
    )
    assert thread.shard_restarts == process.shard_restarts == [1, 1]
    assert thread.failed_shards == process.failed_shards == ()
    # A shard that is down reports nothing, whichever way it died.
    down = np.isnan(thread.power_history)
    assert down.any()
    assert np.array_equal(down, np.isnan(process.power_history))
    assert np.array_equal(
        np.isnan(thread.caps_history), np.isnan(process.caps_history)
    )
    restarted = [len(r.events.of_kind("shard_restarted")) for r in (thread, process)]
    assert restarted == [2, 2]


def test_node_chaos_walks_the_same_cycles(tmp_path):
    """A node daemon killed and reconnected inside shard 1: one code
    path (``HostedShard.run_cycle``) on both transports, so the same
    histories, and quarantine and rejoin at the strike steps."""
    thread, process = both_modes(
        tmp_path,
        ShardChaosSchedule(node_kill_at={3: 3}, node_reconnect_at={3: 7}),
    )
    assert thread.shard_restarts == process.shard_restarts == [0, 0]
    assert np.isfinite(thread.power_history).all()
    assert np.array_equal(thread.power_history, process.power_history)
    assert np.array_equal(thread.caps_history, process.caps_history)
    # Both read the strike steps themselves.
    for kind, step in (("client_quarantined", 3.0), ("client_rejoined", 7.0)):
        for r in (thread, process):
            assert [e.time_s for e in r.events.of_kind(kind)] == [step], (
                r.mode, kind
            )


def test_node_chaos_names_global_node_ids(tmp_path):
    """Node 3 is shard 1's second node.  A process shard numbers its
    private nodes from the slice's first global id, so its daemon events
    name node 3 as the thread shard's do, not the slice-local 1."""
    results = both_modes(
        tmp_path,
        ShardChaosSchedule(node_kill_at={3: 3}, node_reconnect_at={3: 7}),
    )
    for result in results:
        for kind in ("client_quarantined", "client_rejoined"):
            named = {e.node_id for e in result.events.of_kind(kind)}
            assert named == {3}, (result.mode, kind, named)


def test_final_cycle_hang_tears_down_cleanly(tmp_path):
    """A hang on the last cycle leaves nothing to wedge teardown: either
    transport returns its result with the hang recorded and no restart."""
    for mode in ("thread", "process"):
        result = run_session(
            mode,
            make_cluster(n_nodes=2),
            tmp_path / mode,
            n_shards=1,
            cycles=4,
            chaos=ShardChaosSchedule(shard_hang_at={0: 3}),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / mode / "ckpt", hang_timeout_s=0.5
            ),
        )
        assert isinstance(result, ShardedResult)
        assert len(result.events.of_kind("shard_hung")) == 1, mode
        assert result.shard_restarts == [0], mode
