"""The on-disk format is pinned to the commit before array-leaf snapshots.

Snapshot documents carry arrays as arrays in memory; text exists only at
the JSON boundary of the checkpoint store and the journal.  None of that
may move a byte on disk: the SHA-256 of every checkpoint file and of the
journal just before each truncation below were computed at commit
``db5d995`` — where every ``snapshot()`` base64-encoded on the spot — and
committed unchanged, and ``fixtures/`` holds a checkpoint and a journal
tail *written by that commit* (cycles 1-8 and 9-10 of the same session),
so a failure here means the format moved, not that a constant is stale.
"""

import hashlib
import shutil
from pathlib import Path

import numpy as np

from repro.core.managers import create_manager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController

N_UNITS = 8
EVERY = 4
STEPS = 14
FIXTURES = Path(__file__).parent / "fixtures"
#: Cycles the fixture session ran: a checkpoint at 8, two journaled after.
FIXTURE_STEPS = 10

PARENT_HASHES = {
    "journal-before-00000004": (
        "cd650147e0ea6660e6be21b2c7c13d908604f2e234b06c551444d51de9b87e4c"
    ),
    "journal-before-00000008": (
        "51c05153a003554b305faaf344a28755d2befd2031104517c4ba243fa272e06b"
    ),
    "journal-before-00000012": (
        "c89eafc12ec64c310b1fd70c3a4cefd88239657539aee96a90ddaccebaada8dc"
    ),
    "ckpt-00000004.json": (
        "0922a5c439cc8d0fcf827bb61a201b85c25c7adcf76d7805ed806979b37fb9ea"
    ),
    "ckpt-00000008.json": (
        "6512aeb8eaa0edf36a35a55bbf4c23396b073bdd0f76e2294d96509dcaa9a33b"
    ),
    "ckpt-00000012.json": (
        "ecd2c1b0a9f770323e7882b353382d48c57fc72b33dfc1fece7f2470256b8186"
    ),
    "journal-tail": (
        "836673d622d4114e41736f63379eef6fc663d10ac78d2f0ecf18f540599f08ba"
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bound_manager():
    manager = create_manager("dps")
    manager.bind(
        n_units=N_UNITS,
        budget_w=880.0,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(18),
    )
    return manager


def readings(steps=STEPS):
    rng = np.random.default_rng(2024)
    return [rng.uniform(20.0, 160.0, N_UNITS) for _ in range(steps)]


def run_session(directory: Path, steps: int) -> dict[str, str]:
    """Step a journaled, checkpointed DPS controller and hash everything
    it leaves on disk, the journal at its fullest (just before each
    truncation) and as it stands at the end."""
    hashes: dict[str, str] = {}

    class HashedJournal(CycleJournal):
        def truncate(self):
            hashes[f"journal-before-{controller.cycle:08d}"] = sha256(
                self.path
            )
            super().truncate()

    controller = RecoverableController(
        bound_manager(),
        CheckpointStore(directory, keep=8),
        HashedJournal(directory / "journal.log"),
        checkpoint_every=EVERY,
    )
    for power in readings(steps):
        controller.step(power)
    for path in controller.store.paths():
        hashes[path.name] = sha256(path)
    hashes["journal-tail"] = sha256(controller.journal.path)
    return hashes


def test_every_file_hashes_as_the_parent_wrote_it(tmp_path):
    assert run_session(tmp_path, STEPS) == PARENT_HASHES


def test_the_session_rewrites_the_parent_fixtures_byte_for_byte(tmp_path):
    run_session(tmp_path, FIXTURE_STEPS)
    for name in ("ckpt-00000008.json", "journal.log"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_resume_from_parent_files_continues_bit_identically(tmp_path):
    for name in ("ckpt-00000008.json", "journal.log"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    revived = RecoverableController(
        create_manager("dps"),
        CheckpointStore(tmp_path),
        CycleJournal(tmp_path / "journal.log"),
        checkpoint_every=EVERY,
    )
    assert revived.resume() is True
    assert (revived.cycle, revived.replayed) == (FIXTURE_STEPS, 2)

    uninterrupted = bound_manager()
    stream = readings()
    for power in stream[:FIXTURE_STEPS]:
        uninterrupted.step(power)
    for power in stream[FIXTURE_STEPS:]:
        assert (
            np.asarray(revived.step(power)).tobytes()
            == np.asarray(uninterrupted.step(power)).tobytes()
        )
