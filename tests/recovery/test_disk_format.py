"""The on-disk formats, pinned file by file.

``fixtures/`` holds what older commits wrote in one session: a version-1
text checkpoint (``ckpt-00000008.json``, cycles 1-8), the same generation
as a binary container (``ckpt-00000008.bin``), and the text journal of
cycles 9-10 (``journal.log``).  All of them must still resume
bit-identically.

The checkpoint container has not moved since it was introduced: a slot
holds it byte for byte, then zero padding, so the three container hashes
below are the ones that commit computed.  The journal moved once, from
one text line per record to the same container per record, written in
place behind a segment header: its hashes were computed at the commit
that made that move, while each record's document did not move — its
``to_json`` text is still the fixture's line body.  A failure here means
a format moved, not that a constant is stale.
"""

import hashlib
import shutil
from pathlib import Path

import numpy as np

from repro.core.managers import create_manager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from repro.recovery.state import to_json, unpack_from
from repro.safety.invariants import _same_json

N_UNITS = 8
EVERY = 4
STEPS = 14
FIXTURES = Path(__file__).parent / "fixtures"
#: Cycles the fixture session ran: a checkpoint at 8, two journaled after.
FIXTURE_STEPS = 10

PARENT_HASHES = {
    "journal-before-00000004": (
        "a5ff28346ba1595b6e6e343effcb8f69b95c2a88e6f5ba82c0b2c2e7ecdd4dea"
    ),
    "journal-before-00000008": (
        "e82b37921ab4caa50c094b0b36492d639243c7e65763a6ac6428a6af21da0232"
    ),
    "journal-before-00000012": (
        "0e14fc90fade74cef89d57380c6afadf7ec96015b7604307eb23292b03de088f"
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
        "b6b69d5333c4d0fa76d2510fd0b599f353a95f2cdda5763d62f7f4c8e5c2155b"
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
        raw = path.read_bytes()
        doc, end = unpack_from(raw)
        assert raw[end:] == bytes(len(raw) - end)
        hashes[f"ckpt-{doc['cycle']:08d}.bin"] = hashlib.sha256(raw[:end]).hexdigest()
    hashes["journal-tail"] = sha256(controller.journal.path)
    return hashes


def test_every_file_hashes_as_the_parent_wrote_it(tmp_path):
    assert run_session(tmp_path, STEPS) == PARENT_HASHES


def test_the_session_rewrites_the_parent_fixtures_byte_for_byte(tmp_path):
    # The checkpoint container as its first commit wrote it; the journal's
    # records as the text journal wrote their lines.
    run_session(tmp_path, FIXTURE_STEPS)
    container = (FIXTURES / "ckpt-00000008.bin").read_bytes()
    slot = CheckpointStore(tmp_path).load_latest().path.read_bytes()
    assert slot[: len(container)] == container
    lines = (FIXTURES / "journal.log").read_text(encoding="utf-8").splitlines()
    records = CycleJournal(tmp_path / "journal.log").read()
    assert [to_json({"cycle": r.cycle, "data": r.data}) for r in records] == [
        line.partition(" ")[2] for line in lines
    ]


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
