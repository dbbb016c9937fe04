"""Crash images of an in-place write, and the text journal older
directories hold."""

import hashlib

from repro.recovery.state import to_json


def changed(before: bytes, after: bytes) -> range:
    """Offsets a write moved from ``before`` to ``after`` (``before``
    read as zero-filled up to the length of ``after``)."""
    before = before.ljust(len(after), b"\0")
    moved = [at for at, (a, b) in enumerate(zip(before, after)) if a != b]
    return range(moved[0], moved[-1] + 1) if moved else range(0)


def tear(before: bytes, after: bytes, at: int) -> bytes:
    """The file a crash leaves when a write that turns ``before`` into
    ``after`` reached the disk up to offset ``at`` only."""
    return after[:at] + before.ljust(len(after), b"\0")[at:]


def text_journal(records: list[tuple[int, dict]]) -> bytes:
    """The text journal an older directory holds: one ``<sha256-prefix>
    <json>`` line per record."""
    lines = []
    for cycle, data in records:
        body = to_json({"cycle": cycle, "data": data})
        check = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        lines.append(f"{check} {body}\n")
    return "".join(lines).encode("utf-8")
