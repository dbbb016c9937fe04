"""Process-mode acceptance: a real shard-server fleet under OS chaos.

:mod:`tests.shard.test_harness` runs the lease protocol's failure matrix
over the in-process transport.  This module re-runs it with nothing
simulated: each shard is a ``dps-repro shard-server`` subprocess behind
a real TCP link, SIGKILL stands in for a crash, SIGTERM for a graceful
drain, and a severed socket for a partition — plus the two drills only
live membership makes possible, admitting a new shard and draining an
old one mid-chaos.  The acceptance bar is unchanged (the shared
assertions of :mod:`tests.shard.sessions`): the global
budget-conservation invariant holds on every arbiter cycle and every
recovery or membership step is a structured event.  Mirrored by the CI
``shard-process-chaos`` job.
"""

import numpy as np
import pytest

from repro.core.constant import ConstantManager
from repro.resilience.health import ResilienceConfig
from repro.safety import SafetyConfig
from repro.shard import (
    ArbiterConfig,
    RecoveryOptions,
    ShardChaosSchedule,
    run_sharded,
)
from tests.shard import sessions
from tests.shard.sessions import (
    assert_clean_run,
    assert_failure_matrix,
    check_arbiter_kill_without_restart,
    dump_artifacts,
)


def make_cluster(n_nodes, sockets_per_node=1, seed=0):
    return sessions.make_cluster(n_nodes, sockets_per_node, seed)


def run_process(cluster, tmp_path, n_shards, cycles, **kwargs):
    return sessions.run_session(
        "process", cluster, tmp_path, n_shards, cycles, **kwargs
    )


class TestScheduleValidation:
    def test_drained_shard_cannot_be_killed(self):
        with pytest.raises(ValueError, match="drained and killed"):
            ShardChaosSchedule(drain_at={1: 4}, shard_kill_at={1: 6})

    def test_drained_shard_cannot_be_hung(self):
        with pytest.raises(ValueError, match="drained and killed"):
            ShardChaosSchedule(drain_at={2: 4}, shard_hang_at={2: 8})

    def test_admit_cannot_fall_inside_arbiter_outage(self):
        with pytest.raises(ValueError, match="inside the .*outage"):
            ShardChaosSchedule(
                admit_at=10, arbiter_kill_at=8, arbiter_restart_at=14
            )

    def test_drain_cannot_fall_inside_arbiter_outage(self):
        with pytest.raises(ValueError, match="inside .*the .*outage"):
            ShardChaosSchedule(
                drain_at={0: 10}, arbiter_kill_at=8, arbiter_restart_at=14
            )

    def test_thread_mode_rejects_membership_chaos(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="process"):
            run_sharded(
                cluster,
                n_shards=2,
                manager_factory=lambda i: ConstantManager(),
                demand_fn=lambda step: np.full(cluster.n_units, 0.5),
                cycles=4,
                checkpoint_dir=tmp_path / "ckpt",
                chaos=ShardChaosSchedule(admit_at=2),
                recovery=RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
            )

    def test_process_mode_requires_manager_name(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="manager_name"):
            run_sharded(
                cluster,
                n_shards=2,
                manager_factory=lambda i: ConstantManager(),
                demand_fn=lambda step: np.full(cluster.n_units, 0.5),
                cycles=4,
                checkpoint_dir=tmp_path / "ckpt",
                recovery=RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
                mode="process",
            )

    @pytest.mark.parametrize(
        "option",
        [
            {"resilience": ResilienceConfig()},
            {"safety": SafetyConfig(guard=True)},
        ],
        ids=["resilience", "safety"],
    )
    def test_process_mode_rejects_unforwardable_config(self, tmp_path, option):
        """The shard-server command line cannot carry either config, so
        accepting one would silently run the fleet without it."""
        [name] = option
        with pytest.raises(ValueError, match=f"{name}="):
            run_process(make_cluster(4), tmp_path, n_shards=2, cycles=4, **option)


class TestProcessCleanRun:
    def test_two_shard_fleet_matches_thread_guarantees(self, tmp_path):
        cluster = make_cluster(4)
        result = run_process(cluster, tmp_path, n_shards=2, cycles=8)
        dump_artifacts(result, tmp_path, "process_clean")
        assert_clean_run(result, "process", n_shards=2, cycles=8)
        assert result.bytes_clock > 0

    def test_arbiter_kill_without_restart_freezes_shards(self, tmp_path):
        check_arbiter_kill_without_restart("process", tmp_path)


class TestProcessChaosAcceptance:
    def test_full_failure_matrix_with_live_membership(self, tmp_path):
        """The PR-7 matrix over real processes, plus admit and drain.

        Four shard-servers; one SIGKILLed, one hung until the watchdog
        SIGKILLs it, one partitioned and healed at the socket level, a
        fifth admitted live, a fourth drained via SIGTERM, and the
        arbiter itself killed and restarted from its checkpoint with
        the drifted membership.  Budget conservation is swept on every
        arbiter cycle of every arbiter incarnation.
        """
        cluster = make_cluster(8)
        chaos = ShardChaosSchedule(
            shard_kill_at={1: 6},
            shard_hang_at={2: 10},
            partition_at={0: 8},
            heal_at={0: 14},
            admit_at=10,
            drain_at={3: 12},
            arbiter_kill_at=16,
            arbiter_restart_at=20,
        )
        result = run_process(
            cluster,
            tmp_path,
            n_shards=4,
            cycles=24,
            chaos=chaos,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=2,
                hang_timeout_s=2.0,
                restart_delay_cycles=1,
            ),
        )
        dump_artifacts(result, tmp_path, "process_matrix")
        assert_failure_matrix(result, killed=1, hung=2, partitioned=0)

        # Live membership: one admit, one drain, drain exited cleanly.
        assert result.admitted == (4,)
        assert result.drained == (3,)
        assert result.drained_rcs[3] == 0

        # The partitioned link re-dialed at least once after healing,
        # and the SIGKILLed shards forced reconnects of their own.
        assert result.link_reconnects >= 1

        kinds = {e.kind for e in result.events}
        missing = {
            "shard_admitted",
            "shard_draining",
            "shard_drained",
            "link_reconnect",
        } - kinds
        assert not missing, f"missing event kinds: {sorted(missing)}"

        # Membership events carry the member they concern.
        admitted = [e for e in result.events if e.kind == "shard_admitted"]
        assert [e.node_id for e in admitted] == [4]
        drained = [e for e in result.events if e.kind == "shard_drained"]
        assert [e.node_id for e in drained] == [3]
        assert "reclaimed" in drained[0].detail


class TestCodecParity:
    def test_thread_mode_rejects_binary_codec(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="binary"):
            run_sharded(
                cluster,
                n_shards=2,
                manager_factory=lambda i: ConstantManager(),
                demand_fn=lambda step: np.full(cluster.n_units, 0.5),
                cycles=4,
                checkpoint_dir=tmp_path / "ckpt",
                recovery=RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
                codec="binary",
            )

    def test_binary_codec_bit_identical_under_chaos(self, tmp_path):
        """The binary wire is an encoding, not a different computation.

        Run the same seeded chaos session twice — once over the JSON
        clock plane, once over the binary one — and demand bit-identical
        powers and caps in every surviving cell of the history, the same
        NaN mask for the dead ones, and zero invariant violations on
        both.  Anything less means the codec moved a value.
        """
        chaos = ShardChaosSchedule(shard_kill_at={1: 4}, drain_at={0: 8})
        results = {}
        for codec in ("json", "binary"):
            cluster = make_cluster(4, seed=7)
            results[codec] = run_process(
                cluster,
                tmp_path / codec,
                n_shards=2,
                cycles=12,
                chaos=chaos,
                config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
                recovery=RecoveryOptions(
                    checkpoint_dir=tmp_path / codec / "ckpt",
                    checkpoint_every=2,
                ),
                codec=codec,
            )
        ref, bin_ = results["json"], results["binary"]
        assert ref.codec == "json" and bin_.codec == "binary"
        assert ref.invariant_violations == 0
        assert bin_.invariant_violations == 0
        assert np.array_equal(
            ref.power_history, bin_.power_history, equal_nan=True
        )
        assert np.array_equal(
            ref.caps_history, bin_.caps_history, equal_nan=True
        )
        # Both planes meter their traffic.  (The binary codec's byte
        # win is a scale effect — at two units per shard the array
        # headers dominate; benchmarks/bench_shards.py measures the
        # ratio at fleet scale.)
        assert ref.bytes_clock > 0
        assert bin_.bytes_clock > 0

    def test_ack_event_cap_truncates_with_marker(self, tmp_path):
        """An over-cap ack drops the tail and says so, once per ack."""
        cluster = make_cluster(4)
        result = run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=8,
            max_ack_events=0,
        )
        assert result.invariant_violations == 0
        truncated = [
            e for e in result.events if e.kind == "events_truncated"
        ]
        assert truncated, "cap of 0 never tripped on a live fleet"
        assert "cap of 0" in truncated[0].detail
        # With a zero cap no raw shard event survives the wire.
        assert "shard_lease_applied" not in {e.kind for e in result.events}


class TestGracefulDrain:
    def test_sigterm_drain_reclaims_budget(self, tmp_path):
        cluster = make_cluster(4)
        chaos = ShardChaosSchedule(drain_at={1: 4})
        result = run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=12,
            chaos=chaos,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
        )
        dump_artifacts(result, tmp_path, "process_drain")

        assert result.invariant_violations == 0
        assert result.failed_shards == ()
        assert result.drained == (1,)
        assert result.drained_rcs[1] == 0
        kinds = {e.kind for e in result.events}
        assert "shard_draining" in kinds
        assert "shard_drained" in kinds
        # Graceful: the drain never looked like a failure.
        assert "shard_killed" not in kinds
        assert "controller_killed" not in kinds
        assert np.nansum(result.leases_w) <= result.budget_w * (1 + 1e-6)
        # The drained shard leaves the timeline after its final frozen
        # summary is acknowledged; the survivor keeps being arbitrated,
        # and never below its original fair share.
        drained_samples = result.timeline.for_shard(1)
        survivor_samples = result.timeline.for_shard(0)
        assert drained_samples and survivor_samples
        assert (
            max(s.cycle for s in drained_samples)
            < max(s.cycle for s in survivor_samples)
        )
        assert survivor_samples[-1].lease_w >= survivor_samples[0].lease_w
