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

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core.config import ClusterSpec, RaplConfig
from repro.core.constant import ConstantManager
from repro.deploy.health import ResilienceConfig
from repro.safety import SafetyConfig
from repro.shard import (
    ArbiterConfig,
    RecoveryOptions,
    ShardChaosSchedule,
    ShardSpec,
    run_sharded,
)
from repro.shard import process
from tests.shard import sessions
from tests.shard.sessions import (
    assert_clean_run,
    assert_events_at_their_steps,
    assert_failure_matrix,
    check_arbiter_kill_without_restart,
    dump_artifacts,
    run_restart_chronology,
)
from tests.shard.test_transport_parity import both_modes

TDP_FALLBACK = ResilienceConfig(fallback="assume-tdp")


def make_cluster(n_nodes, sockets_per_node=1, seed=0):
    return sessions.make_cluster(n_nodes, sockets_per_node, seed)


def run_process(cluster, tmp_path, n_shards, cycles, **kwargs):
    return sessions.run_session(
        "process", cluster, tmp_path, n_shards, cycles, **kwargs
    )


def event_trail(result):
    """When each kind of event fired (a process shard numbers its nodes
    from 0, so node ids are not comparable across transports)."""
    return sorted((e.time_s, e.kind) for e in result.events)


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

    def test_unknown_manager_rejected_before_any_spawn(self, tmp_path):
        """The spec names the manager a subprocess will build, so a bad
        name fails in the parent, not as a shard that never comes up."""
        with pytest.raises(ValueError, match="unknown manager 'nope'"):
            run_sharded(
                make_cluster(4),
                n_shards=2,
                manager_factory=lambda i: ConstantManager(),
                demand_fn=lambda step: np.full(4, 0.5),
                cycles=4,
                checkpoint_dir=tmp_path / "ckpt",
                mode="process",
                manager_name="nope",
            )
        assert not list(tmp_path.rglob("shard-*"))


class TestShardSpec:
    def test_every_field_survives_a_json_round_trip(self):
        spec = ShardSpec(
            shard_id=3,
            cluster=ClusterSpec(
                n_nodes=5,
                sockets_per_node=4,
                tdp_w=150.5,
                min_cap_w=25.25,
                budget_fraction=0.6,
                idle_power_w=9.5,
            ),
            rapl=RaplConfig(
                noise_std_w=0.7, lag_tau_s=0.3, counter_wrap_uj=123_456_789
            ),
            manager="slurm",
            lease_w=1234.0625,
            first_node=6,
            dt_s=0.5,
            seed=11,
            arbiter=ArbiterConfig(
                period_cycles=3,
                lease_term_cycles=7,
                restore_threshold=0.7,
                headroom_fraction=0.2,
                budget_epsilon=0.5,
            ),
            checkpoint_every=4,
            keep_generations=2,
            safety=SafetyConfig(
                guard=False,
                invariant_mode="sampling",
                sample_every=3,
                raise_on_violation=False,
            ),
            resilience=ResilienceConfig(
                max_retries=2,
                backoff_cycles=3,
                backoff_factor=1.5,
                fallback="assume-tdp",
            ),
            codec="binary",
            max_ack_events=17,
            timeout_s=2.5,
        )
        # No field is left at its default, so none can pass by accident;
        # the defaults (hardening unset) must round-trip too.
        bare = ShardSpec(
            shard_id=0,
            cluster=ClusterSpec(),
            rapl=RaplConfig(),
            manager=None,
            lease_w=0.0,
        )
        assert all(
            getattr(spec, f.name) != getattr(bare, f.name)
            for f in dataclasses.fields(ShardSpec)
        )
        for each in (spec, bare):
            doc = json.loads(json.dumps(each.to_doc()))
            assert ShardSpec.from_doc(doc) == each

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("codec", "xml", "codec"),
            ("resilience", {"fallback": "guess"}, "fallback"),
            ("arbiter", {"period_cycles": 0}, "period_cycles"),
        ],
    )
    def test_malformed_document_rejected(self, field, value, match):
        doc = ShardSpec(
            shard_id=0,
            cluster=ClusterSpec(n_nodes=2),
            rapl=RaplConfig(),
            manager="constant",
            lease_w=100.0,
        ).to_doc()
        doc[field] = value
        with pytest.raises(ValueError, match=match):
            ShardSpec.from_doc(doc)


class TestForwarding:
    @pytest.mark.parametrize(
        "option",
        [
            # The fallback decides what a quarantined node reads as.
            {"resilience": TDP_FALLBACK},
            # With the guard off, the TDP fallback overshoots the lease
            # instead of scaling the reachable units down.
            {"safety": SafetyConfig(guard=False)},
        ],
        ids=["resilience", "safety"],
    )
    def test_process_mode_forwards_config(self, tmp_path, option):
        """Each config reaches a shard-server through its spec: the
        process fleet equals the thread fleet under it, and differs
        from the fleet without it."""
        chaos = ShardChaosSchedule(node_kill_at={3: 3}, node_reconnect_at={3: 7})
        kwargs = {"resilience": TDP_FALLBACK, **option}
        thread, process = both_modes(tmp_path / "with", chaos, **kwargs)
        assert np.array_equal(thread.power_history, process.power_history)
        assert np.array_equal(thread.caps_history, process.caps_history)
        assert event_trail(thread) == event_trail(process)
        without = {k: v for k, v in kwargs.items() if k not in option}
        baseline, _ = both_modes(tmp_path / "without", chaos, **without)
        assert not np.array_equal(thread.caps_history, baseline.caps_history)


class TestProcessCleanRun:
    def test_two_shard_fleet_matches_thread_guarantees(self, tmp_path):
        cluster = make_cluster(4)
        result = run_process(cluster, tmp_path, n_shards=2, cycles=8)
        dump_artifacts(result, tmp_path, "process_clean")
        assert_clean_run(result, "process", n_shards=2, cycles=8)
        assert result.bytes_clock > 0

    def test_arbiter_kill_without_restart_freezes_shards(self, tmp_path):
        check_arbiter_kill_without_restart("process", tmp_path)

    def test_events_read_the_step_they_happened_at(self, tmp_path):
        """The fleet hands the respawned process its step on ``--resume``."""
        result = run_restart_chronology("process", tmp_path)
        dump_artifacts(result, tmp_path, "process_chronology")
        assert_events_at_their_steps(result)


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


class TestPersistWriter:
    """The cluster-state writer of a shard-server process: a write that
    fails is raised on the host's own thread, at the next persist at the
    latest, and never leaves a persist waiting on a writer that is gone."""

    @pytest.fixture
    def host(self, tmp_path, monkeypatch):
        spec = ShardSpec(
            shard_id=0,
            cluster=ClusterSpec(n_nodes=2, sockets_per_node=1),
            rapl=RaplConfig(),
            manager="dps",
            lease_w=220.0,
        )
        host = process.ShardHost(spec, tmp_path, resume=None)
        failures = [OSError("disk full")]
        write = process._atomic_write

        def fails_once(path, text):
            if failures:
                raise failures.pop()
            write(path, text)

        monkeypatch.setattr(process, "_atomic_write", fails_once)
        return host

    @staticmethod
    def _bounded(call):
        """``call()`` on another thread: what it raised (None when it
        returned), or a test failure when it has not ended in 10 s."""
        raised = []

        def run():
            try:
                call()
                raised.append(None)
            except Exception as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), f"{call.__name__} hung"
        return raised[0]

    def test_drain_persist_raises_instead_of_hanging(self, host):
        assert isinstance(self._bounded(host._persist), OSError)
        assert not host.state_path.exists()
        # The writer serves on: the next persist lands.
        assert self._bounded(host._persist) is None
        assert "cluster" in json.loads(host.state_path.read_text())

    def test_cadence_persist_raises_at_the_next_one(self, host):
        host._persist_async()
        assert isinstance(self._bounded(host._persist_async), OSError)
        assert self._bounded(host._persist) is None
        assert host.state_path.exists()
