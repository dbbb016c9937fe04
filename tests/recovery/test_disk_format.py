"""The on-disk formats, pinned file by file.

Snapshot documents carry arrays as arrays in memory; text exists only at
the JSON boundary of the journal.  The journal's bytes have not moved
since commit ``db5d995`` — where every ``snapshot()`` base64-encoded on
the spot: the SHA-256 of the journal just before each truncation and at
the end were computed there and are committed unchanged, and
``fixtures/`` holds a version-1 checkpoint (``ckpt-00000008.json``) and
a journal tail *written by that commit* (cycles 1-8 and 9-10 of the same
session), which must still resume bit-identically through the version-1
reader.

The checkpoint moved once, on purpose: the binary container of ISSUE 22
(``ckpt-*.bin``).  Its three hashes below and ``fixtures/
ckpt-00000008.bin`` were computed and written at the commit that
introduced the container, from the same session; the journal's format
did not move, so the one ``journal.log`` is the tail of both checkpoints.
A failure here means a format moved, not that a constant is stale.
"""

import hashlib
import shutil
from pathlib import Path

import numpy as np

from repro.core.managers import create_manager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from repro.safety.invariants import _same_json

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
    "ckpt-00000004.bin": (
        "7363b17845fc8c059bf26072d61c7d2849c2208b620c4dd17011e6f2fbea1f35"
    ),
    "ckpt-00000008.bin": (
        "a4fe2e444e529658440bcf711a528f4ad34bc282d976e382a4d51c5e38564268"
    ),
    "ckpt-00000012.bin": (
        "723e69bf3a00343aac3229e32d0d0df89fe6135565fc2e78aa6a5089ee70e1e3"
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
    # The journal as the parent wrote it, the checkpoint as this format's
    # first commit did.
    run_session(tmp_path, FIXTURE_STEPS)
    for name in ("ckpt-00000008.bin", "journal.log"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_the_container_moved_the_state_did_not(tmp_path):
    payloads = []
    for name in ("ckpt-00000008.json", "ckpt-00000008.bin"):
        directory = tmp_path / name
        directory.mkdir()
        shutil.copy(FIXTURES / name, directory / name)
        ckpt = CheckpointStore(directory).load_latest()
        assert ckpt is not None and ckpt.cycle == 8
        payloads.append(ckpt.payload)
    assert _same_json(*payloads)


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


def test_resume_from_container_files_continues_bit_identically(tmp_path):
    for name in ("ckpt-00000008.bin", "journal.log"):
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
