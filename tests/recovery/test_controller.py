"""RecoverableController: journal-before-step, checkpointing, resume."""

import numpy as np
import pytest

from repro.core.managers import create_manager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController

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
            int(e.detail.split("-")[1].split(".")[0])
            for e in ctl.events.of_kind("checkpoint_written")
        ]
        assert cycles == [5, 10]
        # Only the two post-checkpoint cycles remain journaled.
        assert [r.cycle for r in ctl.journal.read()] == [11, 12]

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
        with open(ctl.journal.path, "a", encoding="utf-8") as fh:
            fh.write('deadbeefdeadbeef {"cycle": 13, "da')

        second = revive()
        assert (second.cycle, second.replayed) == (12, 2)
        got = [np.asarray(second.step(p)).copy() for p in stream[12:14]]

        third = revive()
        assert (third.cycle, third.replayed) == (14, 4)
        got += [np.asarray(third.step(p)).copy() for p in stream[14:]]
        for g, w in zip(got, want[12:]):
            assert g.tobytes() == w.tobytes()
        assert third.manager.snapshot()["rng"] == reference.snapshot()["rng"]

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
