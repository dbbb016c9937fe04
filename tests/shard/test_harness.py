"""The sharded harness over the in-process transport (``mode="thread"``).

The acceptance bar (mirrored by the CI ``shard-chaos-soak`` job): eight
real shard servers over localhost TCP under one arbiter, with a shard
killed mid-session, another hung until the ack deadline fires, a link
partitioned and healed, and the arbiter itself killed and restarted from
its checkpoint — the global budget-conservation invariant holds on every
arbiter cycle and every recovery step is a structured event.  The
assertions both transports share live in :mod:`tests.shard.sessions`;
``test_process.py`` runs them over real processes.
"""

import pytest

from repro.deploy.loopback import RecoveryOptions
from repro.shard import ArbiterConfig, ShardChaosSchedule
from tests.shard.sessions import (
    assert_clean_run,
    assert_failure_matrix,
    check_arbiter_kill_without_restart,
    dump_artifacts,
    make_cluster,
    run_session,
)


def run(cluster, tmp_path, n_shards, cycles, **kwargs):
    return run_session("thread", cluster, tmp_path, n_shards, cycles, **kwargs)


class TestScheduleValidation:
    def test_heal_must_follow_partition(self):
        with pytest.raises(ValueError, match="heals"):
            ShardChaosSchedule(partition_at={0: 5}, heal_at={0: 4})

    def test_kill_and_hang_cannot_collide(self):
        with pytest.raises(ValueError, match="killed and hung"):
            ShardChaosSchedule(shard_kill_at={1: 3}, shard_hang_at={1: 3})

    def test_arbiter_restart_must_follow_kill(self):
        with pytest.raises(ValueError, match="restarts"):
            ShardChaosSchedule(arbiter_kill_at=5, arbiter_restart_at=5)

    def test_unknown_shard_rejected(self, tmp_path):
        cluster = make_cluster(n_nodes=4, sockets_per_node=1)
        with pytest.raises(ValueError, match="unknown shard"):
            run(
                cluster,
                tmp_path,
                n_shards=2,
                cycles=4,
                chaos=ShardChaosSchedule(shard_kill_at={7: 1}),
            )

    def test_shard_count_bounds(self, tmp_path):
        cluster = make_cluster(n_nodes=2, sockets_per_node=1)
        with pytest.raises(ValueError, match="n_shards"):
            run(cluster, tmp_path, n_shards=3, cycles=2)


class TestCleanRun:
    def test_two_shards_conserve_budget(self, tmp_path):
        cluster = make_cluster(n_nodes=4)
        result = run(cluster, tmp_path, n_shards=2, cycles=8)
        assert_clean_run(result, "thread", n_shards=2, cycles=8)
        # In-process: no clock wire, no TCP link to re-dial.
        assert result.bytes_clock == 0
        assert result.link_reconnects == 0

    def test_arbiter_kill_without_restart_freezes_shards(self, tmp_path):
        check_arbiter_kill_without_restart("thread", tmp_path)


class TestChaosAcceptance:
    def test_eight_shards_full_failure_matrix(self, tmp_path):
        cluster = make_cluster(n_nodes=16, sockets_per_node=2)
        chaos = ShardChaosSchedule(
            shard_kill_at={2: 8},
            shard_hang_at={5: 12},
            partition_at={1: 10},
            heal_at={1: 18},
            arbiter_kill_at=20,
            arbiter_restart_at=24,
        )
        result = run(
            cluster,
            tmp_path,
            n_shards=8,
            cycles=28,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            chaos=chaos,
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=2,
                hang_timeout_s=0.5,
            ),
        )
        dump_artifacts(result, tmp_path, "shard_chaos")
        assert_failure_matrix(result, killed=2, hung=5, partitioned=1)
