"""ShardServer's lease state machine, standalone and over a live server."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.constant import ConstantManager
from repro.deploy.plane import ClientPlane
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from repro.shard.lease import ArbiterConfig, BudgetLease, ShardLink
from repro.shard.server import ShardServer


def make_shard(tmp_path, config=None, budget_w=220.0):
    manager = ConstantManager()
    manager.bind(
        n_units=2,
        budget_w=budget_w,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
    )
    controller = RecoverableController(
        manager,
        store=CheckpointStore(tmp_path / "ckpt"),
        journal=CycleJournal(tmp_path / "ckpt" / "journal.log"),
        checkpoint_every=2,
    )
    link = ShardLink()
    shard = ShardServer(
        shard_id=0,
        controller=controller,
        link=link,
        config=config or ArbiterConfig(),
    )
    return shard, link


def grant(seq, budget_w, term=6):
    return BudgetLease(
        shard_id=0, seq=seq, budget_w=budget_w, term_cycles=term
    ).to_doc()


class TestLeaseStateMachine:
    def test_initial_state_mirrors_controller(self, tmp_path):
        shard, _ = make_shard(tmp_path)
        assert shard.lease_w == 220.0
        assert shard.lease_seq == 0
        assert not shard.frozen
        assert shard.floor_w == 60.0  # 2 units x 30 W.

    def test_no_grants_returns_false(self, tmp_path):
        shard, _ = make_shard(tmp_path)
        assert not shard.poll_grants()

    def test_newest_grant_wins(self, tmp_path):
        shard, link = make_shard(tmp_path)
        link.send_grant(grant(seq=1, budget_w=200.0))
        link.send_grant(grant(seq=2, budget_w=210.0))
        assert shard.poll_grants()
        assert shard.lease_seq == 2
        assert shard.lease_w == 210.0
        assert shard.controller.budget_w == 210.0
        # Only the applied (newest) grant is an event.
        assert len(shard.events.of_kind("shard_lease_applied")) == 1

    def test_renewal_resets_age_without_reapplying(self, tmp_path):
        shard, link = make_shard(tmp_path)
        link.send_grant(grant(seq=1, budget_w=200.0))
        shard.poll_grants()
        shard.lease_age = 4
        link.send_grant(grant(seq=1, budget_w=200.0))
        assert shard.poll_grants()
        assert shard.lease_age == 0
        assert shard.lease_seq == 1
        assert len(shard.events.of_kind("shard_lease_applied")) == 1

    def test_stale_grant_never_applied(self, tmp_path):
        shard, link = make_shard(tmp_path)
        link.send_grant(grant(seq=3, budget_w=180.0))
        shard.poll_grants()
        link.send_grant(grant(seq=2, budget_w=500.0))
        shard.poll_grants()
        assert shard.lease_w == 180.0
        assert shard.lease_seq == 3

    def test_resume_lease_state_rebuilds_from_controller(self, tmp_path):
        shard, link = make_shard(tmp_path)
        link.send_grant(grant(seq=5, budget_w=150.0))
        shard.poll_grants()
        shard.lease_age = 3
        shard.frozen = True
        shard.resume_lease_state()
        assert shard.lease_w == shard.controller.budget_w == 150.0
        assert shard.lease_seq == 0
        assert shard.lease_age == 0
        assert not shard.frozen

    def test_run_cycle_requires_started_server(self, tmp_path):
        shard, _ = make_shard(tmp_path)
        with pytest.raises(RuntimeError, match="not started"):
            shard.run_cycle()


@pytest.fixture
def live_shard(tmp_path):
    """A one-node shard with a real deploy server and its client plane."""
    cluster = Cluster(
        ClusterSpec(n_nodes=1, sockets_per_node=2),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(0),
    )
    shard, link = make_shard(
        tmp_path, config=ArbiterConfig(period_cycles=1, lease_term_cycles=1)
    )
    plane = ClientPlane(shard.start(), cluster.nodes, dt_s=1.0)
    yield cluster, shard, link
    plane.close(quiet=True)
    shard.stop()


class TestExpiryOverLiveServer:
    def test_ephemeral_port_plumbed(self, live_shard):
        _, shard, _ = live_shard
        assert shard.server.address[1] != 0

    def test_lease_expires_and_freezes(self, live_shard):
        _, shard, link = live_shard
        shard.run_cycle()  # age 1, term 1: still live.
        assert not shard.frozen
        shard.run_cycle()  # age 2 > term: expire.
        assert shard.frozen
        assert shard.events.of_kind("shard_lease_expired")
        assert shard.events.of_kind("shard_frozen")
        # The frozen budget never exceeds the lease, never dips below
        # the floor.
        assert shard.floor_w <= shard.controller.budget_w <= shard.lease_w
        # The freeze reaches the guard, not only the controller.
        assert shard.server.stack.envelope.budget_w == shard.controller.budget_w
        # The summary reports the freeze (and the lease it returns to).
        assert shard.summarize()
        [doc] = link.take_summaries()
        assert doc["frozen"] is True
        assert doc["lease_w"] == shard.lease_w

    def test_renewal_unfreezes_and_restores_lease(self, live_shard):
        _, shard, link = live_shard
        shard.run_cycle()
        shard.run_cycle()
        assert shard.frozen
        link.send_grant(grant(seq=1, budget_w=220.0, term=1))
        shard.run_cycle()
        assert not shard.frozen
        assert shard.events.of_kind("shard_unfrozen")
        assert shard.controller.budget_w == 220.0
        assert shard.server.stack.envelope.budget_w == shard.controller.budget_w
        assert shard.lease_seq == 1

    def test_summary_blocked_by_partition(self, live_shard):
        _, shard, link = live_shard
        shard.run_cycle()
        link.partition()
        assert not shard.summarize()
        link.heal()
        assert shard.summarize()
