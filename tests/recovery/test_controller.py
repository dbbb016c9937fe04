"""RecoverableController: journal-before-step, checkpointing, resume."""

import os
import shutil

import numpy as np
import pytest

from repro.core.managers import create_manager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from tests.recovery.tears import changed, tear

N_UNITS = 4


def bound_manager(name="dps", seed=0):
    manager = create_manager(name)
    manager.bind(
        n_units=N_UNITS,
        budget_w=440.0,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(seed),
    )
    return manager


def make_controller(tmp_path, name="dps", seed=0, every=5):
    return RecoverableController(
        bound_manager(name, seed),
        CheckpointStore(tmp_path),
        CycleJournal(tmp_path / "journal.log"),
        checkpoint_every=every,
    )


def inputs(steps, seed=99):
    rng = np.random.default_rng(seed)
    return [rng.uniform(20.0, 160.0, N_UNITS) for _ in range(steps)]


class TestStepping:
    def test_proxies_manager_surface(self, tmp_path):
        ctl = make_controller(tmp_path)
        mgr = ctl.manager
        assert ctl.name == mgr.name
        assert ctl.n_units == N_UNITS
        assert ctl.budget_w == mgr.budget_w
        assert ctl.initial_cap_w == mgr.initial_cap_w
        assert not ctl.requires_demand

    def test_inputs_journaled_before_step(self, tmp_path):
        ctl = make_controller(tmp_path, every=100)
        for power in inputs(3):
            ctl.step(power)
        assert [r.cycle for r in ctl.journal.read()] == [1, 2, 3]

    def test_checkpoint_cadence_and_journal_truncation(self, tmp_path):
        ctl = make_controller(tmp_path, every=5)
        for power in inputs(12):
            ctl.step(power)
        cycles = [
            int(e.detail.rsplit(" ", 1)[1])
            for e in ctl.events.of_kind("checkpoint_written")
        ]
        assert cycles == [5, 10]
        # Only the two post-checkpoint cycles remain journaled.
        assert [r.cycle for r in ctl.journal.read()] == [11, 12]

    def test_one_journal_fsync_per_cycle_before_the_manager_steps(
        self, tmp_path, syscalls
    ):
        ctl = make_controller(tmp_path, every=100)
        inner_step = ctl.manager.step

        def step(power_w, demand_w=None):
            syscalls.append(("step",))
            return inner_step(power_w, demand_w)

        ctl.manager.step = step
        for power in inputs(3):
            ctl.step(power)
        creation = [
            ("create", "journal.tmp"),
            ("fsync", "journal.tmp"),
            ("replace", "journal.tmp", "journal.log"),
            ("fsync", tmp_path.name),
        ]
        cycle = [("fsync", "journal.log"), ("step",)]
        assert syscalls == creation + 3 * cycle

    def test_write_cost_of_twenty_cycles(self, tmp_path, syscalls):
        # Host-independent: what the recovery plane asks of the disk.  The
        # first twenty cycles create the journal and the keep + 1 = 4
        # slots; from then on a cycle is one fsync, a checkpoint one more,
        # and no file is created, renamed, cut, removed or resized.
        ctl = make_controller(tmp_path, every=5)
        stream = inputs(40)
        for power in stream[:20]:
            ctl.step(power)
        assert syscalls[:4] == [
            ("create", "journal.tmp"),
            ("fsync", "journal.tmp"),
            ("replace", "journal.tmp", "journal.log"),
            ("fsync", tmp_path.name),
        ]
        assert [c for c in syscalls[4:] if c[0] != "fsync"] == [
            ("create", f"ckpt-slot-{k}.bin") for k in range(4)
        ]
        # One per journaled cycle, temp file + directory for the journal,
        # slot + directory per checkpoint.
        assert len([c for c in syscalls if c[0] == "fsync"]) == 20 + 2 + 2 * 4

        def layout():
            return {
                p.name: (p.stat().st_ino, p.stat().st_size)
                for p in tmp_path.iterdir()
            }

        steady = layout()
        del syscalls[:]
        for power in stream[20:]:
            ctl.step(power)
        ctl.close()
        expected = []
        for cycle in range(21, 41):
            expected.append(("fsync", "journal.log"))
            if cycle % 5 == 0:  # Over the oldest generation's slot.
                expected.append(("fsync", f"ckpt-slot-{(cycle // 5 - 1) % 4}.bin"))
        assert syscalls == expected
        assert layout() == steady

        def leaf_bytes(doc):
            if isinstance(doc, np.ndarray):
                return doc.nbytes
            if isinstance(doc, dict):
                return sum(map(leaf_bytes, doc.values()))
            if isinstance(doc, list):
                return sum(map(leaf_bytes, doc))
            return 0

        budget = leaf_bytes(ctl.manager.snapshot()) + 4096
        sizes = [p.stat().st_size for p in ctl.store.paths()]
        assert len(sizes) == 4 and max(sizes) <= budget

    def test_close_releases_the_descriptor_and_a_step_reopens(self, tmp_path):
        ctl = make_controller(tmp_path, every=100)
        stream = inputs(3)
        before = len(os.listdir("/proc/self/fd"))
        ctl.step(stream[0])
        assert len(os.listdir("/proc/self/fd")) == before + 1
        ctl.close()
        ctl.close()
        assert len(os.listdir("/proc/self/fd")) == before
        ctl.step(stream[1])
        ctl.close()
        assert [r.cycle for r in ctl.journal.read()] == [1, 2]

    def test_rejects_checkpoint_every_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_controller(tmp_path, every=0)


class TestResume:
    def test_resume_on_empty_store_returns_false(self, tmp_path):
        assert make_controller(tmp_path).resume() is False

    def test_crash_replay_is_bit_identical(self, tmp_path):
        stream = inputs(40)
        reference = bound_manager(seed=3)
        for power in stream:
            reference.step(power)
        want = [
            np.asarray(reference.step(p)).copy() for p in inputs(10, seed=7)
        ]

        ctl = make_controller(tmp_path, seed=3, every=5)
        for power in stream:  # "Crashes" after cycle 40 (checkpoint at 40).
            ctl.step(power)

        # Fresh process: new manager instance, resume from disk.
        revived = RecoverableController(
            create_manager("dps"),
            CheckpointStore(tmp_path),
            CycleJournal(tmp_path / "journal.log"),
            checkpoint_every=5,
        )
        assert revived.resume() is True
        assert revived.cycle == 40
        got = [
            np.asarray(revived.step(p)).copy() for p in inputs(10, seed=7)
        ]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_journal_tail_replayed_after_mid_interval_crash(self, tmp_path):
        stream = inputs(13)
        ctl = make_controller(tmp_path, seed=5, every=5)
        for power in stream:
            ctl.step(power)  # Last checkpoint at 10; cycles 11-13 journaled.

        revived = RecoverableController(
            create_manager("dps"),
            CheckpointStore(tmp_path),
            CycleJournal(tmp_path / "journal.log"),
            checkpoint_every=5,
        )
        assert revived.resume() is True
        assert revived.cycle == 13
        assert revived.replayed == 3
        kinds = [e.kind for e in revived.events]
        assert "restore_performed" in kinds
        assert "journal_replayed" in kinds

        # The revived controller now equals the uninterrupted one exactly.
        reference = bound_manager(seed=5)
        for power in stream:
            reference.step(power)
        probe = inputs(5, seed=11)
        for p in probe:
            assert (
                np.asarray(revived.step(p)).tobytes()
                == np.asarray(reference.step(p)).tobytes()
            )

    def test_second_crash_after_a_torn_append_loses_nothing(self, tmp_path):
        # Crash mid-append, resume, step twice (both records fsynced),
        # crash again before the next checkpoint.  The fragment of the
        # first crash used to swallow both records, silently rewinding
        # the second resume two cycles behind the caps it had actuated.
        stream = inputs(20)
        reference = bound_manager(seed=5)
        want = [np.asarray(reference.step(p)).copy() for p in stream]

        def revive():
            ctl = RecoverableController(
                create_manager("dps"),
                CheckpointStore(tmp_path),
                CycleJournal(tmp_path / "journal.log"),
                checkpoint_every=5,
            )
            assert ctl.resume() is True
            return ctl

        ctl = make_controller(tmp_path, seed=5, every=5)
        for power in stream[:12]:
            ctl.step(power)  # Checkpoint at 10; cycles 11-12 journaled.
        before = ctl.journal.path.read_bytes()
        ctl.step(stream[12])
        ctl.close()
        after = ctl.journal.path.read_bytes()
        span = changed(before, after)  # Record 13, torn halfway.
        ctl.journal.path.write_bytes(tear(before, after, span[len(span) // 2]))

        second = revive()
        assert (second.cycle, second.replayed) == (12, 2)
        got = [np.asarray(second.step(p)).copy() for p in stream[12:14]]

        third = revive()
        assert (third.cycle, third.replayed) == (14, 4)
        got += [np.asarray(third.step(p)).copy() for p in stream[14:]]
        for g, w in zip(got, want[12:]):
            assert g.tobytes() == w.tobytes()
        assert third.manager.snapshot()["rng"] == reference.snapshot()["rng"]

    def test_a_fallback_restore_keeps_only_the_tail_it_replays(self, tmp_path):
        # Regression: a resume that fell back past a torn generation left
        # the records after it in the journal, and the cycles it stepped
        # landed behind them: the journal read [11, 12, 6, 7, 8], and a
        # second crash resumed at 5 with nothing replayed, not at 8.
        stream = inputs(16)
        reference = bound_manager(seed=5)
        want = [np.asarray(reference.step(p)).copy() for p in stream]

        ctl = make_controller(tmp_path, seed=5, every=5)
        for power in stream[:12]:
            ctl.step(power)  # Checkpoints at 5 and 10; cycles 11-12 journaled.
        ctl.close()
        newest = ctl.store.load_latest().path
        newest.write_bytes(newest.read_bytes()[:100])

        def revive():
            return RecoverableController(
                create_manager("dps"),
                CheckpointStore(tmp_path),
                CycleJournal(tmp_path / "journal.log"),
                checkpoint_every=5,
            )

        fallback = revive()
        assert fallback.resume() is True
        assert (fallback.cycle, fallback.replayed) == (5, 0)
        for power in stream[5:8]:
            fallback.step(power)
        fallback.close()
        assert [r.cycle for r in fallback.journal.read()] == [6, 7, 8]

        again = revive()
        assert again.resume() is True
        assert (again.cycle, again.replayed) == (8, 3)
        for power, caps in zip(stream[8:], want[8:]):
            assert np.asarray(again.step(power)).tobytes() == caps.tobytes()
        again.close()
        assert again.manager.snapshot()["rng"] == reference.snapshot()["rng"]

    def test_corrupt_newest_generation_reported_and_skipped(self, tmp_path):
        ctl = make_controller(tmp_path, every=5)
        for power in inputs(10):
            ctl.step(power)
        newest = ctl.store.paths()[-1]
        newest.write_text("garbage", encoding="utf-8")

        revived = RecoverableController(
            create_manager("dps"),
            CheckpointStore(tmp_path),
            CycleJournal(tmp_path / "journal.log"),
        )
        assert revived.resume() is True
        assert revived.cycle >= 5
        rejected = revived.events.of_kind("checkpoint_rejected")
        assert [e.detail for e in rejected] == [newest.name]

    def test_every_crash_point_of_the_in_place_cut_resumes_bit_identically(
        self, tmp_path
    ):
        every, last = 5, 10  # Freeze the directory around the cut at 10.
        stream = inputs(last + 8)
        reference = bound_manager(seed=5)
        want = [np.asarray(reference.step(p)).copy() for p in stream]

        live = tmp_path / "live"
        live.mkdir()

        def freeze(name):
            shutil.copytree(live, tmp_path / name)

        class FrozenJournal(CycleJournal):
            def truncate(self):
                if ctl.cycle == last:
                    freeze("saved")  # Checkpoint durable, cut not begun.
                super().truncate()
                if ctl.cycle == last:
                    freeze("cut")

            def append(self, cycle, data):
                super().append(cycle, data)
                if cycle == last + 1:
                    freeze("whole")  # Record 11 durable, step not begun.

        ctl = RecoverableController(
            bound_manager(seed=5),
            CheckpointStore(live),
            FrozenJournal(live / "journal.log"),
            checkpoint_every=every,
        )
        for power in stream[: last + 2]:
            ctl.step(power)
        ctl.close()
        # The cut, then a crash halfway through record 11.
        shutil.copytree(tmp_path / "cut", tmp_path / "half")
        cut = (tmp_path / "cut" / "journal.log").read_bytes()
        whole = (tmp_path / "whole" / "journal.log").read_bytes()
        span = changed(cut, whole)
        (tmp_path / "half" / "journal.log").write_bytes(
            tear(cut, whole, span[len(span) // 2])
        )

        def journaled(name):
            return [
                r.cycle
                for r in CycleJournal(tmp_path / name / "journal.log").read()
            ]

        assert journaled("saved") == [6, 7, 8, 9, 10]
        assert journaled("cut") == journaled("half") == []
        assert journaled("whole") == [11]

        def revive(name):
            revived = RecoverableController(
                create_manager("dps"),
                CheckpointStore(tmp_path / name),
                CycleJournal(tmp_path / name / "journal.log"),
                checkpoint_every=every,
            )
            assert revived.resume() is True
            return revived

        # Replayed: exactly the records after the checkpoint, so none of
        # the five a lost cut leaves in front of them.
        for name, replayed in [("saved", 0), ("cut", 0), ("half", 0), ("whole", 1)]:
            revived = revive(name)
            assert (revived.cycle, revived.replayed) == (last + replayed, replayed)
            at = revived.cycle
            for power, caps in zip(stream[at : at + 2], want[at : at + 2]):
                assert np.asarray(revived.step(power)).tobytes() == caps.tobytes()
            revived.close()
            # And a second crash before the next checkpoint: the records
            # appended behind whatever the first one left are all there.
            again = revive(name)
            assert (again.cycle, again.replayed) == (at + 2, at + 2 - last)
            for power, caps in zip(stream[at + 2 :], want[at + 2 :]):
                assert np.asarray(again.step(power)).tobytes() == caps.tobytes()
            again.close()
            assert again.manager.snapshot()["rng"] == reference.snapshot()["rng"]


class TestDescriptorHygiene:
    def test_two_hundred_checkpointed_simulations_leak_no_descriptor(
        self, tmp_path
    ):
        from repro.cluster.simulator import Assignment, Simulation
        from repro.core.config import ClusterSpec, SimulationConfig
        from repro.workloads.registry import get_workload

        spec = ClusterSpec(n_nodes=1, sockets_per_node=2)

        def simulate(k):
            result = Simulation(
                spec,
                create_manager("constant"),
                [Assignment(get_workload("sort"), np.arange(spec.n_units))],
                sim_config=SimulationConfig(max_steps=4),
                checkpoint_dir=tmp_path / str(k % 3),
                checkpoint_every=2,
                resume=k % 2 == 1,
            ).run()
            assert result.checkpoints_written == 2

        simulate(0)  # Imports and caches open what they keep before counting.
        before = len(os.listdir("/proc/self/fd"))
        for k in range(200):
            simulate(k)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_simulation_that_raises_closes_its_journal(self, tmp_path):
        from repro.cluster.simulator import Assignment, Simulation
        from repro.core.config import ClusterSpec
        from repro.workloads.registry import get_workload

        class Boom(RuntimeError):
            pass

        manager = create_manager("constant")
        inner_step = manager.step

        def step(power_w, demand_w=None):
            if manager.cycles_seen == 3:
                raise Boom
            manager.cycles_seen += 1
            return inner_step(power_w, demand_w)

        manager.cycles_seen = 0
        manager.step = step
        spec = ClusterSpec(n_nodes=1, sockets_per_node=2)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(Boom):
            Simulation(
                spec,
                manager,
                [Assignment(get_workload("sort"), np.arange(spec.n_units))],
                checkpoint_dir=tmp_path,
            ).run()
        assert len(os.listdir("/proc/self/fd")) == before
