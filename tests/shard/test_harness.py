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

from functools import partial

import pytest

from repro.shard import ArbiterConfig, RecoveryOptions, ShardChaosSchedule
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

    def test_unknown_node_rejected(self, tmp_path):
        cluster = make_cluster(n_nodes=4, sockets_per_node=1)
        with pytest.raises(ValueError, match="unknown node"):
            run(
                cluster,
                tmp_path,
                n_shards=2,
                cycles=4,
                chaos=ShardChaosSchedule(node_reconnect_at={4: 1}),
            )

    @pytest.mark.parametrize(
        "build, match",
        [
            pytest.param(
                partial(ShardChaosSchedule, **{field: {0: -1}}),
                "negative",
                id=field,
            )
            for field in (
                "shard_kill_at",
                "shard_hang_at",
                "partition_at",
                "heal_at",
                "drain_at",
                "node_kill_at",
                "node_reconnect_at",
            )
        ]
        + [
            pytest.param(
                partial(ShardChaosSchedule, **{field: -2}), "negative", id=field
            )
            for field in ("arbiter_kill_at", "admit_at")
        ]
        + [
            pytest.param(
                lambda: ShardChaosSchedule(arbiter_restart_at=4),
                "needs an arbiter_kill_at",
                id="restart-without-kill",
            ),
            pytest.param(
                lambda: ShardChaosSchedule(
                    node_kill_at={1: 5}, node_reconnect_at={1: 5}
                ),
                "reconnects",
                id="reconnect-at-kill",
            ),
            pytest.param(
                lambda: RecoveryOptions(checkpoint_dir=".", hang_timeout_s=0.0),
                "hang_timeout_s",
                id="zero-hang-timeout",
            ),
            pytest.param(
                lambda: RecoveryOptions(
                    checkpoint_dir=".", hang_timeout_s=float("nan")
                ),
                "hang_timeout_s",
                id="nan-hang-timeout",
            ),
            pytest.param(
                lambda: RecoveryOptions(checkpoint_dir=".", max_restarts=-1),
                "max_restarts",
                id="negative-max-restarts",
            ),
        ],
    )
    def test_malformed_input_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

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


class TestRestartBookkeeping:
    def test_exhausted_budget_counts_no_restart_and_stamps_the_step(
        self, tmp_path
    ):
        result = run(
            make_cluster(n_nodes=2),
            tmp_path,
            n_shards=1,
            cycles=6,
            chaos=ShardChaosSchedule(shard_kill_at={0: 3}),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt", max_restarts=0
            ),
        )
        assert result.shard_restarts == [0]
        assert result.failed_shards == (0,)
        [killed] = result.events.of_kind("controller_killed")
        assert killed.time_s == 3.0
        assert not result.events.of_kind("controller_restarted")

    def test_restart_events_carry_the_step(self, tmp_path):
        result = run(
            make_cluster(n_nodes=2),
            tmp_path,
            n_shards=1,
            cycles=10,
            chaos=ShardChaosSchedule(shard_kill_at={0: 3}),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt", restart_delay_cycles=2
            ),
        )
        assert result.shard_restarts == [1]
        [killed] = result.events.of_kind("controller_killed")
        [restarted] = result.events.of_kind("controller_restarted")
        # Down at 3, outage at 4 and 5, respawned at the end of 5.
        assert (killed.time_s, restarted.time_s) == (3.0, 5.0)
