"""Property: snapshot/restore is invisible in the cap stream.

For every registered manager, running K cycles, snapshotting, restoring
into a *fresh* instance, and running N more cycles must produce caps
bit-identical to an uninterrupted K+N run on the same input stream — the
recovery guarantee that makes warm restarts exact rather than
approximate.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.managers import available_managers, create_manager
from repro.recovery.state import pack, to_json, unpack

N_UNITS = 4
BUDGET_W = 440.0
MAX_CAP_W = 165.0
MIN_CAP_W = 30.0


def bind(manager, seed):
    manager.bind(
        n_units=N_UNITS,
        budget_w=BUDGET_W,
        max_cap_w=MAX_CAP_W,
        min_cap_w=MIN_CAP_W,
        dt_s=1.0,
        rng=np.random.default_rng(seed),
    )
    return manager


def make_inputs(steps, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.uniform(20.0, 160.0, N_UNITS),
            rng.uniform(20.0, 200.0, N_UNITS),
        )
        for _ in range(steps)
    ]


def drive(manager, inputs):
    caps = []
    for readings, demand in inputs:
        out = manager.step(
            readings, demand if manager.requires_demand else None
        )
        caps.append(np.asarray(out, dtype=np.float64).copy())
    return caps


@pytest.mark.parametrize("name", available_managers())
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    k=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=8, deadline=None)
def test_restore_midstream_is_bit_identical(name, seed, k, n):
    inputs = make_inputs(k + n, seed + 1)

    uninterrupted = drive(bind(create_manager(name), seed), inputs)

    first = bind(create_manager(name), seed)
    head = drive(first, inputs[:k])
    # The snapshot travels as JSON, exactly as a checkpoint would store it.
    state = json.loads(to_json(first.snapshot()))

    second = create_manager(name)
    second.restore(state)
    tail = drive(second, inputs[k:])

    for got, want in zip(head + tail, uninterrupted):
        assert got.tobytes() == want.tobytes()


def array_leaves(doc):
    if isinstance(doc, np.ndarray):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from array_leaves(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from array_leaves(value)


@pytest.mark.parametrize("name", available_managers())
def test_document_is_a_copy_of_the_state_not_a_view(name):
    inputs = make_inputs(12, seed=5)
    manager = bind(create_manager(name), 3)
    drive(manager, inputs[:6])
    doc = manager.snapshot()
    text = to_json(doc)
    leaves = list(array_leaves(doc))
    assert leaves  # Every manager snapshots at least its caps.

    # The live manager moves on; the document does not.
    drive(manager, inputs[6:])
    manager._caps[:] = -1.0
    assert to_json(doc) == text
    # Nobody can move it by hand either.
    for leaf in leaves:
        with pytest.raises(ValueError, match="read-only"):
            leaf[...] = 0


@pytest.mark.parametrize("name", available_managers())
def test_one_document_restores_into_independent_managers(name):
    inputs = make_inputs(12, seed=6)
    source = bind(create_manager(name), 4)
    drive(source, inputs[:6])
    doc = source.snapshot()
    text = to_json(doc)
    want = drive(source, inputs[6:])

    first, second = create_manager(name), create_manager(name)
    first.restore(doc)
    second.restore(doc)
    got = drive(first, inputs[6:])
    # Stepping one neither moved the document nor the other manager.
    assert to_json(doc) == text
    assert to_json(second.snapshot()) == text
    for a, b, w in zip(got, drive(second, inputs[6:]), want):
        assert a.tobytes() == b.tobytes() == w.tobytes()


@pytest.mark.parametrize("buffer", [bytes, bytearray])
@pytest.mark.parametrize("name", available_managers())
def test_restore_keeps_no_leaf_of_an_unpacked_checkpoint(name, buffer):
    """Restores copy each leaf into storage of their own.  An unpacked
    checkpoint's leaves are views over its buffer — read-only over
    ``bytes``, writable over a ``bytearray`` — so a restore that kept
    one would either fail the next step or let it write the document."""
    inputs = make_inputs(12, seed=7)
    source = bind(create_manager(name), 5)
    drive(source, inputs[:6])
    doc = unpack(buffer(pack(source.snapshot())))
    text = to_json(doc)
    leaves = list(array_leaves(doc))
    assert leaves and all(leaf.base is not None for leaf in leaves)

    restored = create_manager(name)
    restored.restore(doc)
    want = drive(source, inputs[6:])
    got = drive(restored, inputs[6:])
    assert to_json(doc) == text
    for a, w in zip(got, want):
        assert a.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", available_managers())
def test_restore_rejects_wrong_manager_name(name):
    state = bind(create_manager(name), 0).snapshot()
    others = [m for m in available_managers() if m != name]
    impostor = create_manager(others[0])
    with pytest.raises(ValueError, match="snapshot"):
        impostor.restore(state)


def test_snapshot_requires_bound_manager():
    with pytest.raises(RuntimeError):
        create_manager("dps").snapshot()
