"""BudgetArbiter driven from the shard side over real ShardLinks."""

import numpy as np
import pytest

from repro.recovery.checkpoint import CheckpointStore
from repro.shard.arbiter import ArbiterShard, BudgetArbiter
from repro.shard.lease import ShardLink, ShardSummary

BUDGET = 440.0  # Two 2-unit shards at the default 110 W/unit budget.


def make_arbiter(n=2, budget_w=BUDGET, **kwargs):
    links = [ShardLink() for _ in range(n)]
    specs = [
        ArbiterShard(
            shard_id=i,
            link=links[i],
            n_units=2,
            min_cap_w=30.0,
            max_cap_w=165.0,
        )
        for i in range(n)
    ]
    return BudgetArbiter(budget_w=budget_w, shards=specs, **kwargs), links


def report(
    link,
    shard_id,
    cycle=0,
    seq=0,
    lease_w=220.0,
    committed_w=180.0,
    frozen=False,
    prio=False,
):
    link.send_summary(
        ShardSummary(
            shard_id=shard_id,
            cycle=cycle,
            seq=seq,
            lease_w=lease_w,
            committed_w=committed_w,
            worst_w=committed_w,
            headroom_w=lease_w - committed_w,
            high_priority=prio,
            n_units=2,
            frozen=frozen,
        ).to_doc()
    )


class TestConstruction:
    def test_rejects_no_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            BudgetArbiter(budget_w=100.0, shards=[])

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget_w"):
            make_arbiter(budget_w=0.0)

    def test_rejects_budget_below_floors(self):
        # 2 shards x 2 units x 30 W floor = 120 W.
        with pytest.raises(ValueError, match="floor"):
            make_arbiter(budget_w=100.0)

    def test_rejects_bad_initial_lease_shape(self):
        with pytest.raises(ValueError, match="initial_leases_w"):
            make_arbiter(initial_leases_w=np.asarray([100.0]))

    def test_initial_leases_proportional_and_registered(self):
        arbiter, _ = make_arbiter()
        np.testing.assert_allclose(arbiter.leases_w, [220.0, 220.0])
        assert len(arbiter.events.of_kind("shard_registered")) == 2


class TestCycle:
    def test_happy_cycle_grants_and_verifies(self):
        arbiter, links = make_arbiter()
        report(links[0], 0, committed_w=180.0)
        report(links[1], 1, committed_w=180.0)
        stats = arbiter.cycle_once()
        assert not np.any(stats.dark)
        assert stats.worst_case_w <= BUDGET * (1 + 1e-9)
        for link in links:
            [doc] = link.take_grants()
            assert doc["seq"] == 1
        assert arbiter.monitor.sweeps_run == 1
        assert not arbiter.monitor.violations

    def test_ack_promotes_applied_view(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()
        # Echo the granted seq from shard 0 only.
        report(links[0], 0, cycle=1, seq=1)
        report(links[1], 1, cycle=1, seq=0)
        arbiter.cycle_once()
        applied = arbiter.envelope.applied_w
        assert applied[0] == arbiter.leases_w[0]
        # In-flight entries at or below the acked seq were dropped.
        assert all(s > 1 for s in arbiter._records[0].sent)

    def test_missing_summary_quarantines_and_skips_grant(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        stats = arbiter.cycle_once()
        assert list(stats.dark) == [False, True]
        assert arbiter.dark_shards == (1,)
        events = arbiter.events.of_kind("shard_quarantined")
        assert [e.node_id for e in events] == [1]
        assert links[0].take_grants()
        assert not links[1].take_grants()
        # The dark shard's lease is untouched.
        assert arbiter.leases_w[1] == 220.0

    def test_rejoin_restores_grants(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        arbiter.cycle_once()
        links[0].take_grants()
        report(links[0], 0, cycle=1, seq=1)
        report(links[1], 1, cycle=1, seq=0)
        stats = arbiter.cycle_once()
        assert not np.any(stats.dark)
        rejoined = arbiter.events.of_kind("shard_rejoined")
        assert [e.node_id for e in rejoined] == [1]
        assert links[1].take_grants()

    def test_dark_shard_decays_to_dead(self):
        arbiter, links = make_arbiter()
        dead_before = len(arbiter.events.of_kind("shard_dead"))
        for cycle in range(8):
            report(links[0], 0, cycle=cycle, seq=0)
            arbiter.cycle_once()
        dead = arbiter.events.of_kind("shard_dead")
        assert len(dead) == dead_before + 1
        assert dead[-1].node_id == 1

    def test_partitioned_grant_reuses_sequence_number(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        links[1].partition()
        arbiter.cycle_once()
        # Shard 1's summary beat the partition; the grant back did not.
        assert not links[1].take_grants()
        assert arbiter._records[1].seq == 0  # Number never hit the wire.
        links[1].heal()
        report(links[0], 0, cycle=1, seq=1)
        report(links[1], 1, cycle=1, seq=0)
        arbiter.cycle_once()
        [doc] = links[1].take_grants()
        assert doc["seq"] == 1

    def test_budget_conserved_with_dark_shard(self):
        arbiter, links = make_arbiter()
        for cycle in range(4):
            # Shard 1 stays dark; shard 0 runs hot and high priority.
            report(
                links[0],
                0,
                cycle=cycle,
                seq=0,
                committed_w=215.0,
                prio=True,
            )
            stats = arbiter.cycle_once()
            assert stats.worst_case_w <= BUDGET * (1 + 1e-9)
            # The dark shard's held power plus every live lease fits.
            assert float(arbiter.leases_w.sum()) <= BUDGET * (1 + 1e-9)
        assert not arbiter.monitor.violations

    def test_timeline_sampled_every_cycle(self):
        arbiter, links = make_arbiter()
        for cycle in range(3):
            report(links[0], 0, cycle=cycle)
            report(links[1], 1, cycle=cycle)
            arbiter.cycle_once()
        assert len(arbiter.timeline) == 3 * 2
        assert len(arbiter.timeline.for_shard(0)) == 3


def make_spec(shard_id, link, n_units=2):
    return ArbiterShard(
        shard_id=shard_id,
        link=link,
        n_units=n_units,
        min_cap_w=30.0,
        max_cap_w=165.0,
    )


class TestMembership:
    def test_admit_waits_for_hello_then_carves_lease(self):
        arbiter, links = make_arbiter(
            initial_leases_w=np.asarray([150.0, 150.0])
        )
        link3 = ShardLink()
        arbiter.admit(make_spec(2, link3))
        report(links[0], 0, lease_w=150.0, committed_w=140.0)
        report(links[1], 1, lease_w=150.0, committed_w=140.0)
        arbiter.cycle_once()
        # No HELLO yet: still pending, no grants, not a member.
        assert arbiter.member_ids == (0, 1)
        assert arbiter.pending_ids == (2,)
        assert not link3.take_grants()

        # HELLO arrives: the floor is reserved from the policy budget,
        # live leases shrink, and once the lowered leases are *acked*
        # the proven held power makes room and the shard is admitted.
        link3.send_summary({"type": "hello", "shard": 2, "n_units": 2})
        for cycle in (1, 2, 3):
            report(links[0], 0, cycle=cycle, seq=cycle, lease_w=150.0,
                   committed_w=140.0)
            report(links[1], 1, cycle=cycle, seq=cycle, lease_w=150.0,
                   committed_w=140.0)
            arbiter.cycle_once()
            if 2 in arbiter.member_ids:
                break
        assert arbiter.member_ids == (0, 1, 2)
        assert arbiter.pending_ids == ()
        [admitted] = arbiter.events.of_kind("shard_admitted")
        assert admitted.node_id == 2
        [doc] = link3.take_grants()
        assert doc["seq"] == 1
        assert doc["budget_w"] >= 60.0 - 1e-9  # At least the floor.
        assert float(arbiter.leases_w.sum()) <= BUDGET * (1 + 1e-9)
        assert not arbiter.monitor.violations

    def test_admit_rejects_duplicate_and_uncoverable_floor(self):
        arbiter, links = make_arbiter()
        with pytest.raises(ValueError, match="already known"):
            arbiter.admit(make_spec(0, ShardLink()))
        # 2 x 60 W existing floors + an 11-unit floor of 330 W > 440 W.
        with pytest.raises(ValueError, match="floor"):
            arbiter.admit(make_spec(9, ShardLink(), n_units=11))

    def test_drain_reclaims_only_after_final_frozen_summary(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()
        links[1].take_grants()

        arbiter.drain(1)
        [draining] = arbiter.events.of_kind("shard_draining")
        assert draining.node_id == 1

        # Until the final frozen summary arrives, the shard stays a
        # member (its watts stay booked) and receives no grants.
        report(links[0], 0, cycle=1, seq=1)
        arbiter.cycle_once()
        assert arbiter.member_ids == (0, 1)
        assert not arbiter.events.of_kind("shard_drained")
        assert not links[1].take_grants()
        assert float(arbiter.leases_w.sum()) <= BUDGET * (1 + 1e-9)

        report(links[0], 0, cycle=2, seq=1)
        links[1].send_summary(
            ShardSummary(
                shard_id=1,
                cycle=2,
                seq=1,
                lease_w=220.0,
                committed_w=180.0,
                worst_w=180.0,
                headroom_w=40.0,
                high_priority=False,
                n_units=2,
                frozen=True,
                final=True,
            ).to_doc()
        )
        arbiter.cycle_once()
        assert arbiter.member_ids == (0,)
        [drained] = arbiter.events.of_kind("shard_drained")
        assert drained.node_id == 1
        assert arbiter.envelope.n_units == 1
        assert float(arbiter.leases_w.sum()) <= BUDGET * (1 + 1e-9)
        assert not arbiter.monitor.violations

    def test_drain_is_idempotent_and_keeps_last_shard(self):
        arbiter, _ = make_arbiter()
        arbiter.drain(1)
        arbiter.drain(1)  # Idempotent.
        assert len(arbiter.events.of_kind("shard_draining")) == 1
        with pytest.raises(ValueError, match="last active"):
            arbiter.drain(0)


class TestCrashRecovery:
    def test_snapshot_round_trip(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()
        snap = arbiter.snapshot()

        clone, _ = make_arbiter()
        clone.restore(snap)
        assert clone.cycle == arbiter.cycle
        np.testing.assert_array_equal(clone.leases_w, arbiter.leases_w)
        np.testing.assert_array_equal(
            clone.envelope.applied_w, arbiter.envelope.applied_w
        )

    def test_restore_rejects_wrong_version(self):
        arbiter, _ = make_arbiter()
        snap = arbiter.snapshot()
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            arbiter.restore(snap)

    def test_restore_tolerates_membership_drift(self):
        # A v2 snapshot is keyed by shard_id: restoring a payload that
        # lacks a current member (it was admitted after the checkpoint)
        # leaves that member's constructed state untouched instead of
        # failing the whole recovery.
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()
        snap = arbiter.snapshot()
        snap["shards"] = [
            d for d in snap["shards"] if d["shard_id"] == 0
        ]

        clone, _ = make_arbiter()
        clone.restore(snap)
        assert clone.cycle == arbiter.cycle
        assert clone.leases_w[0] == arbiter.leases_w[0]
        assert clone.leases_w[1] == 220.0  # Constructed state kept.

    def test_restore_accepts_v1_positional_payload(self):
        arbiter, links = make_arbiter()
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()
        legacy = {
            "version": 1,
            "cycle": arbiter.cycle,
            "budget_w": arbiter.budget_w,
            "shards": [
                {
                    "shard_id": r.spec.shard_id,
                    "lease_w": r.lease_w,
                    "seq": r.seq,
                    "sent": {str(s): v for s, v in r.sent.items()},
                }
                for r in arbiter._records
            ],
            "envelope": arbiter.envelope.snapshot(),
        }
        clone, _ = make_arbiter()
        clone.restore(legacy)
        np.testing.assert_array_equal(clone.leases_w, arbiter.leases_w)
        # v1 stays strict about membership.
        legacy["shards"] = legacy["shards"][:1]
        fresh, _ = make_arbiter()
        with pytest.raises(ValueError, match="shards"):
            fresh.restore(legacy)

    def test_resume_from_checkpoint_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "arbiter")
        arbiter, links = make_arbiter(store=store)
        report(links[0], 0)
        report(links[1], 1)
        arbiter.cycle_once()

        fresh, _ = make_arbiter(store=store)
        assert fresh.resume()
        assert fresh.cycle == 1
        np.testing.assert_array_equal(fresh.leases_w, arbiter.leases_w)

    def test_resume_without_store_or_checkpoint(self, tmp_path):
        arbiter, _ = make_arbiter()
        assert not arbiter.resume()
        empty, _ = make_arbiter(store=CheckpointStore(tmp_path / "empty"))
        assert not empty.resume()
