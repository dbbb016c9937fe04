"""Crash consistency of the in-place recovery files, swept write by write.

Each case is a directory as a crash leaves it partway through one write:
a journal record, the first record of a segment together with the
segment's header, or a checkpoint slot overwritten at a 512 B boundary.
Every case must resume to the state before that write or after it, bit
for bit, and a second crash one cycle later, on an input the torn write
never carried, must resume to that cycle — so no stale record is ever
replayed.  Records of an abandoned timeline, planted behind the live
ones with the cycle numbers that would continue them, are never read.
"""

import shutil

import numpy as np
import pytest

from repro.core.managers import create_manager
from repro.recovery.checkpoint import _JOURNAL_HEAD, CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from repro.recovery.state import pack, unpack, unpack_from
from tests.recovery.tears import changed, tear

N_UNITS = 8
EVERY = 4
KEEP = 2


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


def readings(steps, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(20.0, 160.0, N_UNITS) for _ in range(steps)]


#: The inputs every session steps, and the ones no torn write carried.
STREAM = readings(24, seed=2024)
OTHER = readings(24, seed=7)


def stepped(state: bytes, power) -> bytes:
    """The packed snapshot one step on from a packed snapshot."""
    manager = create_manager("dps")
    manager.restore(unpack(state))
    manager.step(power)
    return pack(manager.snapshot())


@pytest.fixture(scope="module")
def reference():
    """Packed snapshot of the uninterrupted manager after each cycle."""
    manager = bound_manager()
    states = [pack(manager.snapshot())]
    for power in STREAM:
        manager.step(power)
        states.append(pack(manager.snapshot()))
    return states


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def session(directory, journal=CycleJournal, store=CheckpointStore):
    return RecoverableController(
        bound_manager(),
        store(directory, KEEP),
        journal(directory / "journal.log"),
        checkpoint_every=EVERY,
    )


def resumes(directory, image, states):
    """Resume from ``image`` and return its cycle, after checking its
    state against ``states`` (cycle -> packed snapshot) and that neither
    a crash right after the resume nor one a cycle on, stepped on an input
    of its own, loses anything or replays anything stale."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for name, data in image.items():
        (directory / name).write_bytes(data)

    def revive():
        ctl = RecoverableController.open(
            create_manager("dps"), directory, checkpoint_every=EVERY, keep=KEEP
        )
        assert ctl.resume() is True
        return ctl

    first = revive()
    at = first.cycle
    assert pack(first.manager.snapshot()) == states[at], at
    first.close()
    # A crash right after the resume's own writes to the journal.
    second = revive()
    assert second.cycle == at
    second.step(OTHER[at])
    second.close()
    third = revive()
    assert third.cycle == at + 1
    assert pack(third.manager.snapshot()) == stepped(states[at], OTHER[at])
    third.close()
    return at


def sweep(directory, before, after, orders, states):
    """Cycle resumed at from each distinct tear of ``before`` -> ``after``
    (dicts of file images differing in one file), keyed by ``(order,
    offset)``: order 0 lands the write from its low offsets up, order 1
    from its high offsets down."""
    (name,) = [n for n in after if before.get(n) != after[n]]
    old, new = before.get(name, b""), after[name]
    span = changed(old, new)
    seen, outcomes = set(), {}
    for order in orders:
        for at in range(span.start, span.stop + 1):
            torn = tear(old, new, at) if order == 0 else tear(new, old, at)
            if torn not in seen:
                seen.add(torn)
                image = dict(before, **{name: torn})
                outcomes[order, at] = resumes(directory, image, states)
    return span, outcomes


def test_a_record_torn_at_every_byte_resumes_before_or_after_it(
    tmp_path, reference
):
    live = tmp_path / "live"
    ctl = session(live)
    for power in STREAM[:9]:
        ctl.step(power)  # Checkpoints at 4 and 8; record 9.
    before = files(live)
    ctl.step(STREAM[9])  # Record 10.
    ctl.close()
    after = files(live)

    span, outcomes = sweep(tmp_path / "case", before, after, [0], reference)
    assert len(span) > 100
    assert outcomes.pop((0, span.stop)) == 10
    assert set(outcomes.values()) == {9}


def test_the_first_record_of_a_segment_torn_with_its_header(
    tmp_path, reference
):
    # The cut writes the header and the next append's fsync carries it:
    # a crash in that fsync can land either, both or parts of each.
    frozen = {}

    class CutJournal(CycleJournal):
        def truncate(self):
            if ctl.cycle == 8:
                frozen["before"] = files(live)  # Checkpoint 8 durable.
            super().truncate()

    live = tmp_path / "live"
    ctl = session(live, journal=CutJournal)
    for power in STREAM[:9]:
        ctl.step(power)  # Cut at 8, then record 9 in the new segment.
    ctl.close()
    after = files(live)

    span, outcomes = sweep(
        tmp_path / "case", frozen["before"], after, [0, 1], reference
    )
    assert span.start < _JOURNAL_HEAD < span.stop  # Header and record.
    assert outcomes.pop((0, span.stop)) == 9  # Whole: order 1 repeats it.
    assert {order for order, _ in outcomes} == {0, 1}
    assert set(outcomes.values()) == {8}


def test_a_slot_overwrite_torn_at_every_512_byte_boundary(tmp_path, reference):
    # Checkpoint 16 overwrites the slot of checkpoint 4 (keep + 1 = 3
    # slots); a crash in it comes before the journal's cut, so both the
    # torn and the whole slot resume at 16.
    frozen = {}

    class FrozenStore(CheckpointStore):
        def save(self, cycle, payload):
            if cycle == 16:
                frozen["before"] = files(live)
            path = super().save(cycle, payload)
            if cycle == 16:
                frozen["after"], frozen["slot"] = files(live), path.name
            return path

    live = tmp_path / "live"
    ctl = session(live, store=FrozenStore)
    for power in STREAM[:16]:
        ctl.step(power)
    ctl.close()
    before, after, slot = frozen["before"], frozen["after"], frozen["slot"]
    assert CheckpointStore._load_one(live / slot).cycle == 16
    assert unpack_from(before[slot])[0]["cycle"] == 4

    cuts = [*range(0, len(after[slot]), 512), len(after[slot])]
    assert len(cuts) >= 4
    for at in cuts:
        image = dict(after, **{slot: tear(before[slot], after[slot], at)})
        assert resumes(tmp_path / "case", image, reference) == 16


def test_an_abandoned_timeline_planted_behind_the_live_records_is_never_read(
    tmp_path, reference
):
    live = tmp_path / "live"
    ctl = session(live)
    for power in STREAM[:14]:
        ctl.step(power)  # Checkpoints 4, 8, 12; records 13-14.
    ctl.close()
    abandoned = (live / "journal.log").read_bytes()
    store = CheckpointStore(live, KEEP)
    newest = store.load_latest().path
    newest.write_bytes(b"torn")

    # The fallback to 8 abandons 13-14 and steps on other inputs to a
    # record 13 of its own.
    fallback = RecoverableController.open(
        create_manager("dps"), live, checkpoint_every=EVERY, keep=KEEP
    )
    assert fallback.resume() is True and fallback.cycle == 8
    states = {8: reference[8]}
    for cycle in range(9, 14):
        fallback.step(OTHER[cycle - 1])
        states[cycle] = stepped(states[cycle - 1], OTHER[cycle - 1])
    fallback.close()
    assert [r.cycle for r in fallback.journal.read()] == [13]

    # Plant the abandoned timeline's records right behind the live one.
    data = bytearray((live / "journal.log").read_bytes())
    segment = unpack_from(data)[0]["segment"]
    _, live_end = unpack_from(data, _JOURNAL_HEAD)
    planted, at = [], _JOURNAL_HEAD
    while True:
        try:
            doc, end = unpack_from(abandoned, at)
        except ValueError:
            break
        planted.append(doc["cycle"])
        assert doc["segment"] != segment
        at = end
    assert planted[:2] == [13, 14]
    region = abandoned[_JOURNAL_HEAD:at]
    data[live_end : live_end + len(region)] = region
    image = files(live)
    image["journal.log"] = bytes(data)

    assert resumes(tmp_path / "case", image, states) == 13
