"""Checkpoint store durability/corruption-fallback and the cycle journal."""

import pytest

from repro.recovery.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    CycleJournal,
)
from repro.recovery.state import CONTAINER_MAGIC, unpack_from
from tests.recovery.tears import changed, tear, text_journal


def appended(journal, cycle, data):
    """The journal file before and after one append."""
    before = journal.path.read_bytes() if journal.path.exists() else b""
    journal.append(cycle, data)
    return before, journal.path.read_bytes()


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(12, {"a": [1, 2], "b": "x"})
        ckpt = store.load_latest()
        assert ckpt is not None
        assert ckpt.cycle == 12
        assert ckpt.payload == {"a": [1, 2], "b": "x"}

    def test_empty_store_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None

    def test_generations_pruned_to_keep(self, tmp_path):
        # keep + 1 slots; a save overwrites the oldest generation's.
        store = CheckpointStore(tmp_path, keep=2)
        for cycle in (5, 10, 15, 20):
            store.save(cycle, {})
        names = [p.name for p in store.paths()]
        assert names == ["ckpt-slot-0.bin", "ckpt-slot-1.bin", "ckpt-slot-2.bin"]
        held = [CheckpointStore._load_one(p).cycle for p in store.paths()]
        assert held == [20, 10, 15]

    def test_bit_flipped_checkpoint_falls_back_to_previous_generation(
        self, tmp_path
    ):
        # Regression: a snapshot corrupted on disk (single bit flip in the
        # body) must be rejected by checksum and the previous generation
        # used instead.
        store = CheckpointStore(tmp_path)
        store.save(10, {"caps": [100.0, 110.0]})
        newest = store.save(20, {"caps": [90.0, 120.0]})
        raw = bytearray(newest.read_bytes())
        target = raw.find(b'"caps"')
        assert target != -1
        raw[target + 12] ^= 0x01  # Flip one bit inside the skeleton.
        newest.write_bytes(bytes(raw))

        ckpt = store.load_latest()
        assert ckpt is not None
        assert ckpt.cycle == 10
        assert store.last_rejected == [newest]

    def test_truncated_checkpoint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(10, {"x": 1})
        newest = store.save(20, {"x": 2})
        raw = newest.read_bytes()
        newest.write_bytes(raw[: unpack_from(raw)[1] // 2])
        ckpt = store.load_latest()
        assert ckpt is not None and ckpt.cycle == 10

    def test_schema_version_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(5, {"x": 1})
        raw = path.read_bytes()
        assert raw.startswith(CONTAINER_MAGIC)
        assert CONTAINER_MAGIC.split() == [
            b"repro-checkpoint", b"%d" % CHECKPOINT_SCHEMA_VERSION
        ]
        bumped = b"repro-checkpoint %d\n" % (CHECKPOINT_SCHEMA_VERSION + 1)
        path.write_bytes(bumped + raw[len(CONTAINER_MAGIC) :])
        assert store.load_latest() is None
        assert store.last_rejected == [path]

    def test_all_generations_corrupt_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for cycle in (1, 2):
            store.save(cycle, {}).write_text("garbage", encoding="utf-8")
        assert store.load_latest() is None
        assert len(store.last_rejected) == 2

    def test_rejects_keep_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)


    def test_save_is_temp_fsync_replace_directory_fsync_in_that_order(
        self, tmp_path, syscalls
    ):
        # No temp file and no rename any more: a slot is created, written
        # and synced, then its directory entry; after the first keep + 1
        # saves, a save is one overwrite and one fsync.
        store = CheckpointStore(tmp_path, keep=2)
        for k, cycle in enumerate((5, 10, 15)):
            del syscalls[:]
            store.save(cycle, {"x": cycle})
            assert syscalls == [
                ("create", f"ckpt-slot-{k}.bin"),
                ("fsync", f"ckpt-slot-{k}.bin"),
                ("fsync", tmp_path.name),
            ]
        for k, cycle in [(0, 20), (1, 25), (2, 30), (0, 35)]:
            del syscalls[:]
            store.save(cycle, {"x": cycle})
            assert syscalls == [("fsync", f"ckpt-slot-{k}.bin")]

    def test_stale_temp_files_removed_generations_never_touched(self, tmp_path):
        # Regression: a crash inside save() or a journal rewrite left its
        # temp file behind for ever (a cold restart never reuses the name).
        store = CheckpointStore(tmp_path)
        new = store.save(12, {"x": 2})
        old = tmp_path / "ckpt-00000008.json"
        old.write_text("a version-1 generation, valid or not")
        kept = {p: p.read_bytes() for p in (new, old)}
        for name in ("ckpt-00000016.tmp", "journal.tmp"):
            (tmp_path / name).write_bytes(b"half a file")
        # Not names the store or the journal would write: not theirs.
        for name in ("ckpt-16.tmp", "cluster.json.tmp", "notes.tmp"):
            (tmp_path / name).write_bytes(b"someone else's")

        CheckpointStore(tmp_path)
        CycleJournal(tmp_path / "journal.log")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt-00000008.json",
            "ckpt-16.tmp",
            "ckpt-slot-0.bin",
            "cluster.json.tmp",
            "notes.tmp",
        ]
        assert {p: p.read_bytes() for p in kept} == kept


class TestCycleJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = CycleJournal(tmp_path / "j.log")
        journal.append(1, {"power": [1.0]})
        journal.append(2, {"power": [2.0]})
        records = journal.read()
        assert [(r.cycle, r.data) for r in records] == [
            (1, {"power": [1.0]}),
            (2, {"power": [2.0]}),
        ]

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "j.log"
        CycleJournal(path).append(1, {"x": 1})
        reopened = CycleJournal(path)
        assert len(reopened) == 1

    def test_torn_tail_line_dropped(self, tmp_path):
        path = tmp_path / "j.log"
        journal = CycleJournal(path)
        journal.append(1, {"x": 1})
        journal.append(2, {"x": 2})
        before, after = appended(journal, 3, {"x": 3})
        span = changed(before, after)
        path.write_bytes(tear(before, after, span[len(span) // 2]))
        assert [r.cycle for r in CycleJournal(path).read()] == [1, 2]

    def test_writer_cuts_a_torn_tail_before_its_first_append(self, tmp_path):
        # Regression: nothing removed the fragment of a crash mid-append,
        # so the restarted controller glued its next record onto it and
        # every record from there on — fsynced or not — was unreadable.
        # A text journal of an older directory is still rewritten whole
        # first; the current layout overwrites a torn record in place.
        path = tmp_path / "j.log"
        torn = text_journal([(c, {"x": c}) for c in (1, 2, 3)])
        torn += b'deadbeefdeadbeef {"cycle": 4, "da'
        path.write_bytes(torn)

        reopened = CycleJournal(path)
        # Reading is not writing: the evidence stays until a writer needs
        # the space behind it.
        assert len(reopened) == 3
        assert [r.cycle for r in reopened.read()] == [1, 2, 3]
        assert [r.cycle for r in reopened.tail_after(0)] == [1, 2, 3]
        assert path.read_bytes() == torn

        reopened.append(4, {"x": 4})
        assert path.read_bytes().startswith(CONTAINER_MAGIC)
        before, after = appended(reopened, 5, {"x": 5})
        path.write_bytes(tear(before, after, changed(before, after)[-1]))
        assert [r.cycle for r in CycleJournal(path).read()] == [1, 2, 3, 4]

        again = CycleJournal(path)
        again.append(5, {"x": 5})
        again.append(6, {"x": 6})
        assert [r.cycle for r in again.tail_after(0)] == [1, 2, 3, 4, 5, 6]
        assert [r.data for r in CycleJournal(path).read()] == [
            {"x": c} for c in (1, 2, 3, 4, 5, 6)
        ]

    def test_record_torn_at_its_newline_is_kept_and_closed(self, tmp_path):
        # A text journal whose last line lost only its "\n".
        path = tmp_path / "j.log"
        path.write_bytes(text_journal([(1, {"x": 1}), (2, {"x": 2})])[:-1])

        reopened = CycleJournal(path)
        assert [r.cycle for r in reopened.read()] == [1, 2]
        reopened.append(3, {"x": 3})
        assert [r.cycle for r in CycleJournal(path).read()] == [1, 2, 3]

    def test_garbage_bytes_in_the_tail_stop_the_read(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(text_journal([(1, {})]) + b"\xff\xfe\x00 not utf-8")
        assert [r.cycle for r in CycleJournal(path).read()] == [1]

        journal = CycleJournal(path)
        before, after = appended(journal, 2, {})
        assert [r.cycle for r in journal.read()] == [1, 2]
        at = changed(before, after)[-1] + 1
        garbage = b"\xff\xfe\x00 not utf-8" + CONTAINER_MAGIC
        path.write_bytes(after[:at] + garbage + after[at + len(garbage) :])
        assert [r.cycle for r in CycleJournal(path).read()] == [1, 2]

    def test_corrupt_middle_line_stops_replay(self, tmp_path):
        path = tmp_path / "j.log"
        journal = CycleJournal(path)
        journal.append(1, {})
        before, after = appended(journal, 2, {})
        journal.append(3, {})
        span = changed(before, after)
        raw = bytearray(path.read_bytes())
        raw[span[len(span) // 2]] ^= 0x01
        path.write_bytes(bytes(raw))
        assert [r.cycle for r in journal.read()] == [1]

    def test_tail_after_returns_contiguous_run_only(self, tmp_path):
        journal = CycleJournal(tmp_path / "j.log")
        for c in (6, 7, 9):  # Gap at 8.
            journal.append(c, {})
        assert [r.cycle for r in journal.tail_after(5)] == [6, 7]
        assert journal.tail_after(7) == []

    def test_truncate_empties(self, tmp_path):
        journal = CycleJournal(tmp_path / "j.log")
        journal.append(1, {})
        journal.truncate()
        assert journal.read() == [] and len(journal) == 0

    def test_capacity_overflow_drops_oldest_and_latches(self, tmp_path):
        journal = CycleJournal(tmp_path / "j.log", capacity=3)
        for c in (1, 2, 3, 4):
            journal.append(c, {})
        assert journal.overflowed
        assert [r.cycle for r in journal.read()] == [2, 3, 4]
        # The gapped head means checkpoint-only recovery, never a gapped
        # replay.
        assert journal.tail_after(0) == []

    def test_appends_after_an_overflow_rewrite_land_in_the_live_file(
        self, tmp_path
    ):
        # The rewrite renames a new inode over the path; a descriptor kept
        # across it would append to the file nobody reads any more.
        path = tmp_path / "j.log"
        journal = CycleJournal(path, capacity=2)
        for c in (1, 2, 3, 4, 5):
            journal.append(c, {"x": c})
        assert [r.cycle for r in CycleJournal(path).read()] == [4, 5]
        assert len(journal) == 2

    def test_second_journal_reads_what_the_first_wrote_and_holds(self, tmp_path):
        path = tmp_path / "j.log"
        writer = CycleJournal(path)
        writer.append(1, {"x": 1})
        assert [r.cycle for r in CycleJournal(path).read()] == [1]
        writer.truncate()
        assert CycleJournal(path).read() == []
        writer.append(2, {"x": 2})
        assert [r.cycle for r in CycleJournal(path).read()] == [2]

    def test_close_is_idempotent_and_an_append_reopens(self, tmp_path):
        path = tmp_path / "j.log"
        journal = CycleJournal(path)
        journal.close()  # Never opened.
        journal.append(1, {})
        journal.close()
        journal.close()
        journal.append(2, {})
        journal.truncate()
        journal.close()
        journal.truncate()  # Reopens too: a drain checkpoints after a stop.
        journal.append(3, {})
        journal.close()
        assert [r.cycle for r in CycleJournal(path).read()] == [3]

    def test_truncate_cuts_a_torn_tail_too(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(text_journal([(1, {})]) + b"deadbeef {torn")
        reopened = CycleJournal(path)
        reopened.truncate()
        assert path.read_bytes().startswith(CONTAINER_MAGIC)
        assert CycleJournal(path).read() == []
        reopened.append(2, {})
        assert [r.cycle for r in CycleJournal(path).read()] == [2]

    def test_directory_synced_on_creation_and_each_rename_not_per_append(
        self, tmp_path, syscalls
    ):
        # Regression: the rewrite renamed and returned, and the journal's
        # own directory entry was never made durable at all.  Creation is
        # a rewrite too; a record, the cut and a torn record of the
        # current layout rename nothing.
        path = tmp_path / "j.log"
        record, directory = ("fsync", "j.log"), ("fsync", tmp_path.name)
        rewrite = [
            ("create", "j.tmp"),
            ("fsync", "j.tmp"),
            ("replace", "j.tmp", "j.log"),
            directory,
        ]
        journal = CycleJournal(path, capacity=3)
        for c in (1, 2, 3):
            journal.append(c, {})
        assert syscalls == rewrite + [record, record, record]

        del syscalls[:]
        journal.append(4, {})  # Overflow: drop the oldest by rewrite.
        assert syscalls == rewrite + [record]

        del syscalls[:]
        journal.truncate()  # In place, and not durable on its own.
        journal.append(5, {})
        assert syscalls == [record]

        journal.close()
        before, after = appended(CycleJournal(path), 6, {})
        path.write_bytes(tear(before, after, changed(before, after)[-1]))
        del syscalls[:]
        reopened = CycleJournal(path, capacity=3)
        reopened.append(6, {})  # Over the torn record, in place.
        reopened.append(7, {})
        assert syscalls == [record, record]
        assert [r.cycle for r in reopened.read()] == [5, 6, 7]

        reopened.close()
        path.write_bytes(text_journal([(8, {})]) + b"deadbeef {torn")
        del syscalls[:]
        text = CycleJournal(path, capacity=3)
        text.append(9, {})  # An older directory's text: rewritten first.
        assert syscalls == rewrite + [record]
        assert [r.cycle for r in text.read()] == [8, 9]

        del syscalls[:]
        big = {"x": "y" * 5000}  # Past the preallocated space.
        text.truncate()
        text.append(10, big)
        assert syscalls == [record, record]
        text.append(11, big)
        assert syscalls == [record, record, record, record]
        assert [r.data for r in text.read()] == [big, big]
        assert path.stat().st_size == 16384
