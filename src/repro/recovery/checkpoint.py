"""Durable checkpoint store and bounded cycle journal.

Controller recovery has two halves.  A **checkpoint** is a full snapshot
of the controller's state, written durably every N cycles; a **journal**
is the append-only record of every control input since the last
checkpoint.  Restore = load the newest valid checkpoint + replay the
journal tail, which reproduces the pre-crash state exactly (every
manager's ``step`` is deterministic given its snapshot, including its RNG
stream).

Durability discipline (the part that actually matters in a crash):

* checkpoints are written to a temp file, ``fsync``\\ ed, then atomically
  ``os.replace``\\ d into place, and the directory is fsynced — a crash
  mid-write leaves the previous generation intact, never a half-file;
* every checkpoint embeds a schema version and a SHA-256 checksum over
  its payload; load rejects version mismatches and corrupt documents and
  falls back to the next-older generation;
* the journal appends one self-checksummed line per cycle and fsyncs
  it; replay stops at the first corrupt/torn line (the expected
  signature of a crash mid-append) and keeps the valid prefix, and a
  restarted writer cuts the file back to that prefix before it appends,
  so a new record never lands behind an unreadable line.

A checkpoint is a binary container (``ckpt-%08d.bin``, array leaves as
raw bytes: :func:`repro.recovery.state.pack`); the version-1 text files
(``ckpt-%08d.json``) of an older directory are read, never written.
Journal lines, and ``python -m repro.recovery.checkpoint FILE`` for either
generation, are :func:`repro.recovery.state.to_json` text.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.recovery.state import CONTAINER_MAGIC, pack, to_json, unpack

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "CycleJournal",
    "JournalRecord",
]

#: Version of the container :meth:`CheckpointStore.save` writes.
CHECKPOINT_SCHEMA_VERSION = int(CONTAINER_MAGIC.split()[1])

#: A generation: ``.bin`` as written now, ``.json`` as version 1 wrote it.
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.(bin|json)$")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Checkpoint(NamedTuple):
    """One successfully loaded checkpoint generation.

    Attributes:
        cycle: control cycle the snapshot was taken after.
        payload: the controller state document.
        path: file the checkpoint was read from.
    """

    cycle: int
    payload: dict
    path: Path


class CheckpointStore:
    """Versioned, checksummed, multi-generation checkpoint directory.

    Args:
        directory: where checkpoint files live (created if missing).
        keep: generations retained; older files are pruned after each
            successful save (>= 1 — corruption fallback needs history).
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        #: Files rejected (bad checksum/version) by the most recent load.
        self.last_rejected: list[Path] = []
        # What a save that crashed before its rename left: no later
        # save overwrites it unless one reaches the same cycle.
        for stale in self.directory.glob("ckpt-" + "[0-9]" * 8 + ".tmp"):
            stale.unlink(missing_ok=True)

    def paths(self) -> list[Path]:
        """Checkpoint files of either format present, oldest first."""
        found = [
            p
            for p in self.directory.iterdir()
            if _CKPT_RE.match(p.name)
        ]
        return sorted(found)

    def save(self, cycle: int, payload: dict) -> Path:
        """Durably write one checkpoint generation.

        Args:
            cycle: control cycle the payload describes the end of.
            payload: controller state, a snapshot document.

        Returns:
            The path of the new generation.
        """
        if cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {cycle}")
        final = self.directory / f"ckpt-{cycle:08d}.bin"
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(pack({"cycle": int(cycle), "payload": payload}))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        _fsync_dir(self.directory)
        self._prune()
        return final

    def _prune(self) -> None:
        for stale in self.paths()[: -self.keep]:
            stale.unlink(missing_ok=True)

    @staticmethod
    def _load_one(path: Path) -> Checkpoint:
        data = path.read_bytes()
        if data.startswith(CONTAINER_MAGIC):  # The bytes say, not the suffix.
            inner = unpack(data)
        else:  # Version 1, read only: JSON text around the to_json text.
            doc = json.loads(data)
            if not isinstance(doc, dict) or doc.get("format") != "repro-checkpoint":
                raise ValueError(f"{path.name}: not a checkpoint document")
            if doc.get("version") != 1:
                raise ValueError(f"{path.name}: not schema version 1")
            body = doc.get("body", "")
            if _sha256(body) != doc.get("sha256"):
                raise ValueError(f"{path.name}: checksum mismatch")
            inner = json.loads(body)
        return Checkpoint(
            cycle=int(inner["cycle"]), payload=inner["payload"], path=path
        )

    def load_latest(self) -> Checkpoint | None:
        """Newest generation that validates, or None if none does.

        Corrupt/incompatible generations are skipped (recorded in
        :attr:`last_rejected`), falling back to older files — the recovery
        contract when the crash that killed the controller also tore the
        newest checkpoint.
        """
        self.last_rejected = []
        for path in reversed(self.paths()):
            try:
                return self._load_one(path)
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                self.last_rejected.append(path)
        return None


@dataclass(frozen=True)
class JournalRecord:
    """One journaled control cycle.

    Attributes:
        cycle: cycle index the inputs belong to (0-based).
        data: arbitrary JSON document (readings, optional demand).
    """

    cycle: int
    data: dict = field(default_factory=dict)


class CycleJournal:
    """Append-only, self-checksummed record of control-cycle inputs.

    One line per cycle: ``<sha256-prefix> <json>``, written to one
    ``O_APPEND`` descriptor and fsynced so a record survives the very next
    crash; reads stop at the first line that fails its checksum (a torn
    tail write) and return the valid prefix.  Reading never modifies the
    file; the first append of a journal opened on a torn tail first
    rewrites the file as that valid prefix, or the new record would be
    glued onto the fragment and be unreadable along with everything after
    it.  The journal is bounded by truncation at every checkpoint — only
    the tail since the last checkpoint is ever needed — plus a hard
    ``capacity`` backstop against a controller that never checkpoints.  Both
    rewrites go through a temp file, ``fsync``, rename and a directory
    ``fsync``; :meth:`truncate` cuts in place.

    Args:
        path: journal file (created on first append).
        capacity: records kept; when an append would exceed it, the
            oldest record is dropped and :attr:`overflowed` latches True
            (replay then only trusts records contiguous with the
            checkpoint, so an overflow degrades to checkpoint-only
            recovery instead of silently replaying a gapped tail).
    """

    _CHECK_LEN = 16

    def __init__(self, path: str | Path, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path)
        self.capacity = capacity
        self.overflowed = False
        self._fd = -1
        # What a rewrite that crashed before its rename left behind.
        self.path.with_suffix(".tmp").unlink(missing_ok=True)
        records, self._clean = self._scan()
        self._count = len(records)

    def __len__(self) -> int:
        return self._count

    @classmethod
    def _line(cls, cycle: int, data: dict) -> str:
        body = to_json({"cycle": int(cycle), "data": data})
        return f"{_sha256(body)[: cls._CHECK_LEN]} {body}\n"

    def _descriptor(self) -> int:
        if self._fd < 0:
            created = not self.path.exists()
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
            )
            if created:
                _fsync_dir(self.path.parent)
        return self._fd

    def close(self) -> None:
        """Release the descriptor (idempotent; an append reopens it)."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def append(self, cycle: int, data: dict) -> None:
        """Durably append one record."""
        if self._count >= self.capacity:
            records = self.read()[1:]
            self.overflowed = True
            self._rewrite(records)
        elif not self._clean:
            self._rewrite(self.read())
        fd = self._descriptor()
        line = memoryview(self._line(cycle, data).encode("utf-8"))
        while line:
            line = line[os.write(fd, line) :]
        os.fsync(fd)
        self._count += 1

    def _rewrite(self, records: list[JournalRecord]) -> None:
        self.close()  # The rename leaves the old inode behind.
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(self._line(rec.cycle, rec.data))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self._count = len(records)
        self._clean = True

    def _scan(self) -> tuple[list[JournalRecord], bool]:
        """The valid records, and whether they are the whole file (no
        torn or corrupt line after them, the last one newline-ended)."""
        records: list[JournalRecord] = []
        if not self.path.exists():
            return records, True
        ended = True
        with open(self.path, "rb") as fh:
            for raw in fh:
                ended = raw.endswith(b"\n")
                # Bytes, then text: a torn tail need not be valid UTF-8.
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                if not line:
                    continue
                check, _, body = line.partition(" ")
                if (
                    not body
                    or _sha256(body)[: self._CHECK_LEN] != check
                ):
                    return records, False
                try:
                    doc = json.loads(body)
                    records.append(
                        JournalRecord(
                            cycle=int(doc["cycle"]), data=doc["data"]
                        )
                    )
                except (ValueError, KeyError):
                    return records, False
        return records, ended

    def read(self) -> list[JournalRecord]:
        """All valid records, oldest first.

        Stops at the first corrupt line: everything after a torn write is
        untrustworthy, and a mid-append crash only ever tears the tail.
        """
        return self._scan()[0]

    def tail_after(self, cycle: int) -> list[JournalRecord]:
        """Records strictly after ``cycle``, contiguous from ``cycle + 1``.

        The replay contract: the returned tail starts exactly one cycle
        after the checkpoint and has no gaps.  A journal that overflowed
        (or whose head was lost) yields only the contiguous prefix of the
        tail — possibly empty — never a gapped sequence.
        """
        tail = [r for r in self.read() if r.cycle > cycle]
        contiguous: list[JournalRecord] = []
        expected = cycle + 1
        for rec in tail:
            if rec.cycle != expected:
                break
            contiguous.append(rec)
            expected += 1
        return contiguous

    def truncate(self) -> None:
        """Drop all records (called after each successful checkpoint).

        Cut in place, with no ``fsync`` of its own.  Every record here
        is at or before the checkpoint just saved and so dead to replay
        (:meth:`tail_after` drops it): a cut lost in a crash costs
        nothing.  It reaches the disk with the next append's ``fsync``,
        on the inode the directory already names — a cut by rename needs
        a directory ``fsync`` before that holds for the records after it.
        """
        os.ftruncate(self._descriptor(), 0)
        self._count = 0
        self._clean = True
        self.overflowed = False


if __name__ == "__main__":  # Any generation, v1 or v2, as to_json text for jq.
    _ckpt = CheckpointStore._load_one(Path(sys.argv[1]))
    print(f"cycle {_ckpt.cycle}, checksum ok", file=sys.stderr)
    print(to_json({"cycle": _ckpt.cycle, "payload": _ckpt.payload}))
