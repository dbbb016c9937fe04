"""Controller crash-recovery acceptance: kill → restart → warm resume.

The bar (mirrors docs/resilience.md "Layer 3"): a controller killed
mid-run over real loopback TCP is restarted by the shard supervisor,
restores from checkpoint + journal, every post-restart *decision* cycle
satisfies the budget, and harmonic-mean progress stays within 2% of an
uninterrupted run.  The controller is the one shard of a fleet session.

A down shard reports nothing and its physics stands still: its rows are
NaN, so progress and the budget are judged on the acknowledged rows.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.shard import RecoveryOptions, ShardChaosSchedule, run_sharded
from tests.deploy.sessions import one_shard, plane_session

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)
#: Long enough that the bounded re-convergence transient after the
#: demand flip (the recovered controller missed the outage's readings,
#: so its state diverges briefly) stays well inside the 2% budget.
CYCLES = 160
#: Clients program caps from 3-byte wire messages quantized to 0.1 W, so
#: each unit's hardware-held cap may round up by at most 0.05 W.
WIRE_SLACK_W = 0.05 * SPEC.n_units


def quiet_cluster(seed=0):
    return Cluster(
        SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(seed)
    )


def demand_fn(step):
    # A mid-run load flip so the controller state being recovered matters.
    if step < 60:
        return np.array([160.0, 160.0, 40.0, 40.0])
    return np.array([40.0, 40.0, 160.0, 160.0])


def hmean_progress(power_history):
    """Harmonic mean over units of each unit's mean acknowledged power."""
    unit_mean = np.nanmean(power_history, axis=0)
    return len(unit_mean) / np.sum(1.0 / unit_mean)


def acked(result):
    """Rows the shard acknowledged (a down shard's rows are NaN)."""
    return ~np.isnan(result.caps_history).any(axis=1)


def assert_budget_respected(result):
    """Every acknowledged cycle's hardware caps (wire-quantized) hold."""
    sums = result.caps_history[acked(result)].sum(axis=1)
    assert np.all(sums <= SPEC.budget_w + WIRE_SLACK_W)


def assert_restored(result):
    """The restart warm-restored: checkpoint, restore, journal replay."""
    kinds = [e.kind for e in result.events]
    for kind in (
        "controller_killed",
        "controller_restarted",
        "restore_performed",
        "journal_replayed",
    ):
        assert kind in kinds
    assert result.events.of_kind("checkpoint_written")


def session(tmp_path, cycles=CYCLES, chaos=None, seed=4, **recovery):
    return one_shard(
        tmp_path,
        quiet_cluster(seed=seed),
        create_manager("dps"),
        demand_fn=demand_fn,
        cycles=cycles,
        rng=np.random.default_rng(1),
        chaos=chaos,
        recovery=RecoveryOptions(checkpoint_dir=tmp_path, **recovery),
    )


class TestControllerKill:
    def test_kill_restart_warm_resume_within_two_percent(self, tmp_path):
        baseline = session(tmp_path / "baseline")
        result = session(
            tmp_path / "kill",
            chaos=ShardChaosSchedule(shard_kill_at={0: 47}),
            checkpoint_every=5,
            restart_delay_cycles=2,
            hang_timeout_s=10.0,
        )
        # Artifacts for CI upload on failure: the structured event stream
        # next to the checkpoint generations already in tmp_path.
        (tmp_path / "events.json").write_text(
            json.dumps(
                [
                    [e.time_s, e.kind, e.unit, e.node_id, e.detail]
                    for e in result.events
                ]
            ),
            encoding="utf-8",
        )

        assert result.shard_restarts == [1]
        assert result.failed_shards == ()
        assert_restored(result)
        [killed] = result.events.of_kind("controller_killed")
        assert killed.time_s == 47.0

        assert_budget_respected(result)
        # Outage cycles exist and are exactly the unacknowledged rows.
        outage = ~acked(result)
        assert 0 < outage.sum() <= 5
        assert outage[47]

        ratio = hmean_progress(result.power_history) / hmean_progress(
            baseline.power_history
        )
        assert ratio > 0.98, f"progress ratio {ratio:.4f} below 2% bound"

    def test_process_shard_kill_restores_and_replays(self, tmp_path):
        """A SIGKILLed shard-server ships its restore home in its acks."""
        result = run_sharded(
            quiet_cluster(),
            n_shards=1,
            manager_factory=lambda shard_id: None,
            demand_fn=demand_fn,
            cycles=24,
            checkpoint_dir=tmp_path / "ckpt",
            chaos=ShardChaosSchedule(shard_kill_at={0: 13}),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path,
                checkpoint_every=5,
                restart_delay_cycles=1,
                hang_timeout_s=10.0,
            ),
            mode="process",
            manager_name="dps",
        )
        assert result.shard_restarts == [1]
        assert_restored(result)
        assert_budget_respected(result)

    def test_exhausted_restart_budget_propagates(self, tmp_path):
        # The fleet does not raise: an exhausted restart budget shows as
        # a failed shard, down for the rest of the session.
        result = session(
            tmp_path,
            cycles=30,
            chaos=ShardChaosSchedule(
                shard_kill_at={0: 3}, shard_hang_at={0: 9}
            ),
            max_restarts=1,
            hang_timeout_s=0.5,
        )
        assert result.shard_restarts == [1]
        assert result.failed_shards == (0,)
        assert np.isnan(result.power_history[9:]).all()


class TestHungController:
    def test_hang_detected_and_restarted(self, tmp_path):
        result = session(
            tmp_path,
            cycles=60,
            seed=2,
            chaos=ShardChaosSchedule(shard_hang_at={0: 20}),
            checkpoint_every=5,
            restart_delay_cycles=2,
            hang_timeout_s=0.5,
        )
        assert result.shard_restarts == [1]
        kinds = [e.kind for e in result.events]
        assert "controller_hung" in kinds
        assert "restore_performed" in kinds
        assert_budget_respected(result)


class TestCheckpointedWithoutChaos:
    def test_recovery_options_alone_do_not_perturb_the_session(
        self, tmp_path
    ):
        # Bit-identity is the manager-level guarantee (see
        # tests/recovery/test_snapshot_property.py); over real TCP,
        # checkpointing must leave the session's *behavior* unchanged: no restarts, no
        # outage cycles, budget met, and progress equal to a plain
        # (uncheckpointed) deploy server's.
        plain = plane_session(
            quiet_cluster(seed=9),
            create_manager("dps"),
            demand_fn=demand_fn,
            cycles=30,
            rng=np.random.default_rng(3),
        )
        checkpointed = one_shard(
            tmp_path,
            quiet_cluster(seed=9),
            create_manager("dps"),
            demand_fn=demand_fn,
            cycles=30,
            rng=np.random.default_rng(3),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path, checkpoint_every=5
            ),
        )
        assert checkpointed.shard_restarts == [0]
        assert len(checkpointed.events.of_kind("checkpoint_written")) == 6
        assert not checkpointed.events.of_kind("journal_replayed")
        assert acked(checkpointed).all()
        assert_budget_respected(checkpointed)
        ratio = hmean_progress(checkpointed.power_history) / hmean_progress(
            plain.power_history
        )
        assert ratio == pytest.approx(1.0, abs=0.01)
