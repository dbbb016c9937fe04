"""Durable checkpoint store and bounded cycle journal.

Controller recovery has two halves.  A **checkpoint** is a full snapshot
of the controller's state, written durably every N cycles; a **journal**
is the record of every control input since the last checkpoint.
Restore = load the newest valid checkpoint + replay the journal tail,
which reproduces the pre-crash state exactly (every manager's ``step`` is
deterministic given its snapshot, including its RNG stream).

Both halves write :func:`repro.recovery.state.pack` containers (magic
line, SHA-256, lengths) in place into files that already exist, so in
steady state neither a control cycle nor a checkpoint allocates or frees
a block, or creates, renames or unlinks a file:

* the store keeps ``keep + 1`` slot files (``ckpt-slot-%d.bin``), each
  holding one generation as ``{"cycle", "payload"}``, zero-padded to a
  multiple of 4 KiB.  A save ``pwrite``\\ s over the slot of the oldest
  generation (or a missing or invalid one) and ``fsync``\\ s it, plus the
  directory when it created the slot.  A crash mid-save tears that slot
  alone, never one of the newest ``keep`` generations; load takes the
  valid container with the highest cycle, and rejects a version mismatch
  or a bad checksum.  Bytes after a container are not its own;
* the journal (``journal.log``) is a header container at offset 0 naming
  the live *segment*, then from offset 512 one ``{"segment", "cycle",
  "data"}`` container per cycle, each ``pwrite``\\ n at the write offset
  and ``fsync``\\ ed before the manager steps.  The file is zero-filled
  ahead of the write offset and grows by doubling.  The cut at a
  checkpoint (:meth:`CycleJournal.truncate`) writes the next segment's
  header and moves the write offset back to the head.  A reader takes
  records of the live segment only and stops at the first one that fails
  its check or belongs to another segment, so a record left behind the
  live prefix — a torn append, a cut segment, a timeline a resume
  abandoned with the same cycle numbers — is never replayed.

The rare whole-file writes (creating the journal, converting an old
one, cutting a torn header, a capacity overflow, a resume that drops
records) go through a temp file, ``fsync``, rename and a directory
``fsync``.  The files of an older directory are read, never written:
``ckpt-%08d.bin`` generations, the text ``ckpt-%08d.json`` of version 1
and the text journal, which the first append rewrites in this layout.
``python -m repro.recovery.checkpoint FILE`` prints a checkpoint of any
generation, or a journal's valid records one per line, as
:func:`repro.recovery.state.to_json` text for ``jq``.
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

from repro.recovery.state import CONTAINER_MAGIC, pack, to_json, unpack_from

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "CycleJournal",
    "JournalRecord",
]

#: Version of the container :meth:`CheckpointStore.save` writes.
CHECKPOINT_SCHEMA_VERSION = int(CONTAINER_MAGIC.split()[1])

#: Checkpoint files: the slots written now, and the per-generation
#: ``.bin`` and version-1 ``.json`` files older stores wrote.
_CKPT_RE = re.compile(r"^ckpt-(slot-\d+\.bin|\d{8}\.(bin|json))$")
_SLOT_RE = re.compile(r"^ckpt-slot-\d+\.bin$")

#: A slot's size is a multiple of this: a generation a few bytes longer
#: than the last one still fits the blocks the slot has.
_SLOT_BLOCK = 4096
#: Where the journal's first record starts; its header sits before it.
_JOURNAL_HEAD = 512
#: Smallest journal file (a power of two, like every size it grows to).
_JOURNAL_MIN = 4096

#: Failures of a container or document that reading must survive.
_UNREADABLE = (ValueError, KeyError, TypeError)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _pwrite(fd: int, data: bytes | bytearray, at: int) -> None:
    view = memoryview(data)
    while view:
        n = os.pwrite(fd, view, at)
        view, at = view[n:], at + n


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
        keep: generations that a save never touches (>= 1 — corruption
            fallback needs history); the store holds ``keep + 1`` slots.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        #: Files rejected (bad checksum/version) by the most recent load.
        self.last_rejected: list[Path] = []
        #: Cycle each slot file holds (-1: invalid), from the last survey.
        self._held: dict[Path, int] | None = None
        # What a per-generation save of an older store left when it
        # crashed before its rename.
        for stale in self.directory.glob("ckpt-" + "[0-9]" * 8 + ".tmp"):
            stale.unlink(missing_ok=True)

    def paths(self) -> list[Path]:
        """Checkpoint files present: older stores' generations, oldest
        first, then the slots."""
        return sorted(
            p for p in self.directory.iterdir() if _CKPT_RE.match(p.name)
        )

    def save(self, cycle: int, payload: dict) -> Path:
        """Durably write one checkpoint generation over the oldest slot.

        Args:
            cycle: control cycle the payload describes the end of.
            payload: controller state, a snapshot document.

        Returns:
            The path of the slot now holding the generation.
        """
        if cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {cycle}")
        if self._held is None:
            self._survey()
        held = self._held
        slots = [self.directory / f"ckpt-slot-{k}.bin" for k in range(self.keep + 1)]
        missing = [slot for slot in slots if slot not in held]
        path = missing[0] if missing else min(held, key=held.__getitem__)
        held[path] = -1  # Torn until the fsync returns.
        data = pack({"cycle": int(cycle), "payload": payload})
        data += bytes(-len(data) % _SLOT_BLOCK)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _pwrite(fd, data, 0)
            os.fsync(fd)
        finally:
            os.close(fd)
        if missing:
            _fsync_dir(self.directory)
        held[path] = int(cycle)
        return path

    @staticmethod
    def _load_one(path: Path) -> Checkpoint:
        data = path.read_bytes()
        if data.startswith(CONTAINER_MAGIC):  # The bytes say, not the suffix.
            inner = unpack_from(data)[0]
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

    def _survey(self) -> list[Checkpoint]:
        """Every valid generation, reading :attr:`last_rejected` and the
        slots' cycles off the disk as it stands."""
        valid: list[Checkpoint] = []
        self.last_rejected = []
        held: dict[Path, int] = {}
        for path in self.paths():
            try:
                ckpt = self._load_one(path)
            except (OSError, *_UNREADABLE):
                self.last_rejected.append(path)
                cycle = -1
            else:
                valid.append(ckpt)
                cycle = ckpt.cycle
            if _SLOT_RE.match(path.name):
                held[path] = cycle
        self._held = held
        return valid

    def load_latest(self) -> Checkpoint | None:
        """The valid generation with the highest cycle, or None if none
        validates.

        Corrupt/incompatible files are skipped (recorded in
        :attr:`last_rejected`) — the recovery contract when the crash that
        killed the controller also tore the slot it was writing.
        """
        return max(self._survey(), key=lambda ckpt: ckpt.cycle, default=None)


@dataclass(frozen=True)
class JournalRecord:
    """One journaled control cycle.

    Attributes:
        cycle: cycle index the inputs belong to (0-based).
        data: a snapshot document (readings, optional demand).
    """

    cycle: int
    data: dict = field(default_factory=dict)


class _Image(NamedTuple):
    """What a journal file holds."""

    records: list[JournalRecord]
    #: Segment its header names; None for no file, the text journal or a
    #: torn header, all of which the next write replaces whole.
    live: int | None
    #: Offset just past the last live record.
    end: int
    #: Highest segment the file can hold a record of: the header's, or
    #: that of a record the crash of a cut left at the head.
    newest: int


def _text_records(data: bytes) -> list[JournalRecord]:
    """The valid prefix of the text journal: ``<sha256-prefix> <json>``
    lines, up to the first torn or corrupt one."""
    records: list[JournalRecord] = []
    for raw in data.splitlines():
        # Bytes, then text: a torn tail need not be valid UTF-8.
        line = raw.decode("utf-8", "replace")
        if not line:
            continue
        check, _, body = line.partition(" ")
        if not body or _sha256(body)[:16] != check:
            break
        try:
            doc = json.loads(body)
            records.append(JournalRecord(cycle=int(doc["cycle"]), data=doc["data"]))
        except _UNREADABLE:
            break
    return records


def _read_image(data: bytes) -> _Image:
    if not data.startswith(CONTAINER_MAGIC):
        return _Image(_text_records(data), None, _JOURNAL_HEAD, 0)
    try:
        live = int(unpack_from(data[:_JOURNAL_HEAD])[0]["segment"])
    except _UNREADABLE:
        return _Image([], None, _JOURNAL_HEAD, 0)
    records: list[JournalRecord] = []
    at, newest = _JOURNAL_HEAD, live
    while True:
        try:
            doc, end = unpack_from(data, at)
            segment, cycle, record = int(doc["segment"]), int(doc["cycle"]), doc["data"]
        except _UNREADABLE:
            break
        if at == _JOURNAL_HEAD:
            newest = max(newest, segment)
        if segment != live:
            break
        records.append(JournalRecord(cycle=cycle, data=record))
        at = end
    return _Image(records, live, at, newest)


def _journal_size(end: int) -> int:
    """The file size that holds ``end`` bytes: a power of two."""
    return max(_JOURNAL_MIN, 1 << (end - 1).bit_length())


class CycleJournal:
    """Self-checksummed record of control-cycle inputs, overwritten in
    place.

    One container per cycle, ``pwrite``\\ n at the write offset and
    fsynced so a record survives the very next crash; a read returns the
    live segment's records up to the first that fails its check (a torn
    tail write).  Reading never modifies the file.  The journal is bounded
    by the cut at every checkpoint — only the tail since the last
    checkpoint is ever needed — plus a hard ``capacity`` backstop against
    a controller that never checkpoints.

    Args:
        path: journal file (created by the first write).
        capacity: records kept; when an append would exceed it, the
            oldest record is dropped and :attr:`overflowed` latches True
            (replay then only trusts records contiguous with the
            checkpoint, so an overflow degrades to checkpoint-only
            recovery instead of silently replaying a gapped tail).
    """

    def __init__(self, path: str | Path, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path)
        self.capacity = capacity
        self.overflowed = False
        self._fd = -1
        # What a rewrite that crashed before its rename left behind.
        self.path.with_suffix(".tmp").unlink(missing_ok=True)
        image = self._image()
        self._count = len(image.records)
        self._segment, self._end, self._newest = image.live, image.end, image.newest
        self._size = self.path.stat().st_size if image.live is not None else 0

    def __len__(self) -> int:
        return self._count

    def _image(self) -> _Image:
        try:
            return _read_image(self.path.read_bytes())
        except FileNotFoundError:
            return _Image([], None, _JOURNAL_HEAD, 0)

    def _descriptor(self) -> int:
        if self._fd < 0:
            self._fd = os.open(self.path, os.O_RDWR)
        return self._fd

    def close(self) -> None:
        """Release the descriptor (idempotent; a write reopens it)."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def append(self, cycle: int, data: dict) -> None:
        """Durably write one record after the live ones."""
        if self._count >= self.capacity:
            self.overflowed = True
            self._rewrite(self.read()[1:])
        elif self._segment is None:
            self._rewrite(self.read())
        record = pack({"segment": self._segment, "cycle": int(cycle), "data": data})
        fd = self._descriptor()
        end = self._end + len(record)
        if end > self._size:  # Zero-fill ahead; later cycles overwrite it.
            size = _journal_size(end)
            _pwrite(fd, bytes(size - self._size), self._size)
            os.fsync(fd)
            self._size = size
        _pwrite(fd, record, self._end)
        os.fsync(fd)
        self._end = end
        self._count += 1

    def _rewrite(self, records: list[JournalRecord]) -> None:
        """Replace the file with a new segment holding ``records``."""
        self.close()  # The rename leaves the old inode behind.
        segment = self._newest + 1
        image = bytearray(pack({"segment": segment}).ljust(_JOURNAL_HEAD, b"\0"))
        for rec in records:
            image += pack({"segment": segment, "cycle": rec.cycle, "data": rec.data})
        end, size = len(image), _journal_size(len(image))
        image += bytes(size - end)
        tmp = self.path.with_suffix(".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _pwrite(fd, image, 0)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self._segment = self._newest = segment
        self._end, self._size, self._count = end, size, len(records)

    def read(self) -> list[JournalRecord]:
        """The live segment's valid records, oldest first.

        Stops at the first record that fails its check: everything after
        a torn write is untrustworthy, and a mid-append crash only ever
        tears the tail.
        """
        return self._image().records

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

        Starts the next segment at the head of the file, with no ``fsync``
        of its own.  Every record here is at or before the checkpoint just
        saved and so dead to replay (:meth:`tail_after` drops it): a cut
        lost in a crash costs nothing, and the next append's ``fsync``
        carries it.  The new segment's number exceeds every segment the
        file can hold a record of, so a torn or lost header never lets a
        stale record through.
        """
        if self._segment is None:
            self._rewrite([])
        else:
            self._segment = self._newest = self._newest + 1
            _pwrite(self._descriptor(), pack({"segment": self._segment}), 0)
            self._end, self._count = _JOURNAL_HEAD, 0
        self.overflowed = False

    def retain(self, records: list[JournalRecord]) -> None:
        """Hold exactly ``records``, the tail of this journal a resume just
        replayed.  Any other live record is at or before the checkpoint
        resumed from, or belongs to a timeline the resume abandoned, and
        the next append must not land behind it.  An empty tail always
        starts a new segment: what a crash left at the head (the first
        record of a cut whose header never landed) must not continue the
        segment the next append writes."""
        if not records:
            self.truncate()
        elif len(records) != self._count:
            self._rewrite(records)


def _main(path: Path) -> None:
    image = _read_image(path.read_bytes())
    if image.live is None and not image.records:
        ckpt = CheckpointStore._load_one(path)
        print(f"cycle {ckpt.cycle}, checksum ok", file=sys.stderr)
        print(to_json({"cycle": ckpt.cycle, "payload": ckpt.payload}))
        return
    print(
        f"journal segment {image.live}, {len(image.records)} valid records",
        file=sys.stderr,
    )
    for rec in image.records:
        print(to_json({"cycle": rec.cycle, "data": rec.data}))


if __name__ == "__main__":
    _main(Path(sys.argv[1]))
