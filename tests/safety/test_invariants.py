"""Invariant monitors: the built-in checks, the registry, the cadences."""

import copy
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import managers
from repro.core.config import DPSConfig, PriorityConfig, ReadjustConfig
from repro.core.dps import DPSManager, DPSStepInfo
from repro.core.hierarchical import HierarchicalManager
from repro.core.managers import create_manager
from repro.core.readjust import readjust
from repro.recovery.state import decode_array, encode_array, to_json
from repro.safety import (
    Invariant,
    InvariantContext,
    InvariantMonitor,
    InvariantViolationError,
    available_invariants,
    default_invariants,
    register_invariant,
)
from repro.safety.invariants import _REGISTRY, _same_json


def ctx(caps=None, manager=None, **kwargs):
    defaults = dict(budget_w=440.0, min_cap_w=30.0, max_cap_w=165.0)
    defaults.update(kwargs)
    return InvariantContext(caps_w=caps, manager=manager, **defaults)


def check(name, context):
    return _REGISTRY[name].check(context)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_invariants() == (
            "budget-conservation",
            "cap-bounds",
            "finite-kalman",
            "readjust-conservation",
            "shard-lease-conservation",
            "snapshot-idempotence",
        )

    def test_duplicate_name_rejected(self):
        class Dup(Invariant):
            name = "cap-bounds"

            def check(self, ctx):
                return None

        with pytest.raises(ValueError, match="duplicate"):
            register_invariant(Dup())

    def test_empty_name_rejected(self):
        class Anon(Invariant):
            def check(self, ctx):
                return None

        with pytest.raises(ValueError, match="non-empty name"):
            register_invariant(Anon())


class TestBudgetConservation:
    def test_within_budget_ok(self):
        assert check("budget-conservation", ctx(np.full(4, 110.0))) is None

    def test_overshoot_detected(self):
        detail = check("budget-conservation", ctx(np.full(4, 120.0)))
        assert detail is not None and "exceeds budget" in detail

    def test_quantized_allowance(self):
        # Half-up wire rounding can add up to 0.05 W per unit.
        caps = np.full(4, 110.04)
        assert (
            check("budget-conservation", ctx(caps, quantized=True)) is None
        )


class TestCapBounds:
    def test_in_range_ok(self):
        assert check("cap-bounds", ctx(np.full(4, 110.0))) is None

    def test_non_finite_detected(self):
        detail = check("cap-bounds", ctx(np.array([110.0, np.nan, 1.0, 1.0])))
        assert detail is not None and "non-finite" in detail

    def test_below_floor_detected(self):
        detail = check("cap-bounds", ctx(np.array([29.0, 110.0, 110.0, 110.0])))
        assert detail is not None and "below floor" in detail

    def test_above_ceiling_detected(self):
        detail = check("cap-bounds", ctx(np.array([166.0, 110.0, 110.0, 110.0])))
        assert detail is not None and "above ceiling" in detail


class TestManagerChecks:
    def stepped_dps(self, readings=150.0, steps=3):
        mgr = create_manager("dps")
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        for _ in range(steps):
            caps = mgr.step(np.full(4, readings))
        return mgr, caps

    def test_readjust_conservation_holds_for_dps(self):
        mgr, caps = self.stepped_dps()
        assert check("readjust-conservation", ctx(caps, mgr)) is None

    def test_readjust_conservation_skips_managerless(self):
        assert check("readjust-conservation", ctx(np.full(4, 100.0))) is None

    def test_finite_kalman_holds_for_dps(self):
        mgr, caps = self.stepped_dps()
        assert check("finite-kalman", ctx(caps, mgr)) is None

    def test_finite_kalman_detects_poisoned_state(self):
        mgr, caps = self.stepped_dps()
        mgr._kalman._x[1] = np.nan
        detail = check("finite-kalman", ctx(caps, mgr))
        assert detail is not None and "Kalman estimate" in detail

    def test_snapshot_idempotence_holds_for_dps(self):
        mgr, caps = self.stepped_dps()
        assert check("snapshot-idempotence", ctx(caps, mgr)) is None


class TestReadjustBranchRule:
    """The invariant takes the branch ``readjust`` took — the manager's
    own ``budget_epsilon`` — and holds it to that branch's promise."""

    BUDGET_W = 440.0
    HIGH = np.array([True, True, False, False])

    def node(self, pre, post, epsilon=1.0):
        pre, post = np.asarray(pre, float), np.asarray(post, float)
        info = DPSStepInfo(
            estimate_w=pre,
            stateless_caps_w=pre,
            priority=self.HIGH,
            high_freq=self.HIGH,
            restored=False,
            caps_w=post,
            grants_w=np.maximum(post - pre, 0.0),
        )
        config = DPSConfig(readjust=ReadjustConfig(budget_epsilon=epsilon))
        return SimpleNamespace(
            last_info=info, budget_w=self.BUDGET_W, config=config
        )

    def verdict(self, pre, post, epsilon=1.0):
        return check(
            "readjust-conservation", ctx(manager=self.node(pre, post, epsilon))
        )

    def decided(self, pre, epsilon=1.0):
        return readjust(
            np.asarray(pre, float),
            self.HIGH,
            self.BUDGET_W,
            165.0,
            False,
            ReadjustConfig(budget_epsilon=epsilon),
        )

    @pytest.mark.parametrize("leftover", [0.0, 1e-3, 0.5, 0.961, 1.0])
    def test_equalising_below_epsilon_is_legitimate(self, leftover):
        # Between the old 1e-6 W threshold and budget_epsilon the
        # above-mean unit is lowered on purpose; that is not a shrink.
        pre = [100.0, 120.0, 110.0, 110.0 - leftover]
        post = self.decided(pre)
        assert post[0] == post[1] == 110.0
        assert self.verdict(pre, post) is None

    @pytest.mark.parametrize("leftover", [1.0 + 1e-9, 1.5, 20.0])
    def test_water_fill_above_epsilon_holds(self, leftover):
        pre = [100.0, 120.0, 110.0, 110.0 - leftover]
        post = self.decided(pre)
        assert np.all(post >= pre) and post[0] > 100.0
        assert self.verdict(pre, post) is None

    def test_the_branch_is_the_managers_own_epsilon(self):
        pre = [100.0, 120.0, 110.0, 108.5]  # 1.5 W left over.
        equalised = self.decided(pre, epsilon=2.0)
        assert equalised[1] == 110.0
        assert self.verdict(pre, equalised, epsilon=2.0) is None
        detail = self.verdict(pre, equalised, epsilon=1.0)
        assert detail is not None and "water-fill shrank" in detail

    def test_shrinking_water_fill_still_flagged(self):
        pre = [100.0, 120.0, 110.0, 90.0]  # 20 W left over.
        detail = self.verdict(pre, [125.0, 115.0, 110.0, 90.0])
        assert detail is not None
        assert "water-fill shrank high-priority units [1]" in detail

    def test_unequal_equalisation_flagged(self):
        pre = [100.0, 120.0, 110.0, 109.5]
        detail = self.verdict(pre, [109.0, 111.0, 110.0, 109.5])
        assert detail is not None and "apart" in detail

    def test_equalisation_that_adds_watts_flagged(self):
        pre = [100.0, 120.0, 110.0, 109.1]  # 0.9 W left over.
        detail = self.verdict(pre, [110.25, 110.25, 110.0, 109.1])
        assert detail is not None and "grew" in detail

    def test_overspending_flagged_in_either_branch(self):
        for last in (109.5, 90.0):
            pre = [100.0, 120.0, 110.0, last]
            post = [130.0, 130.0, 110.0, last]
            detail = self.verdict(pre, post)
            assert detail is not None and "handed out" in detail


def _history_cursor_off_by_one(doc):
    history = doc["state"]["history"]
    history["head"] = (history["head"] + 1) % len(history["data"])


def _kalman_variance_off_by_one_ulp(doc):
    p = decode_array(doc["state"]["kalman"]["p"])
    p[2] = np.nextafter(p[2], np.inf)
    doc["state"]["kalman"]["p"] = encode_array(p)


def _rng_off_by_one_word(doc):
    doc["rng"]["state"]["state"] += 1


class TestSnapshotIdempotenceFires:
    """The live crash-recovery check must see a restore that is wrong by
    the smallest step each kind of state can be wrong by."""

    def broken_restore(self, corrupt=None, resnapshot=None, config=None):
        """Check a live manager whose restored instances — the fresh one
        the invariant builds from it — ``restore`` (or re-``snapshot``)
        subtly wrong."""

        class Broken(DPSManager):
            restored = False

            def restore(self, state):
                state = copy.deepcopy(state)
                if corrupt is not None:
                    corrupt(state)
                super().restore(state)
                self.restored = True

            def snapshot(self):
                doc = super().snapshot()
                if resnapshot is not None and self.restored:
                    resnapshot(doc)
                return doc

        mgr = Broken(config)
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        for _ in range(3):
            caps = mgr.step(np.full(4, 150.0))
        return check("snapshot-idempotence", ctx(caps, mgr))

    def test_the_harness_itself_is_clean(self):
        assert self.broken_restore() is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            _history_cursor_off_by_one,
            _kalman_variance_off_by_one_ulp,
            _rng_off_by_one_word,
        ],
    )
    def test_restore_off_by_the_smallest_step_is_flagged(self, corrupt):
        detail = self.broken_restore(corrupt=corrupt)
        assert detail is not None and "not reproduced" in detail

    def test_integer_that_comes_back_as_float_is_flagged(self):
        def widen(doc):
            assert type(doc["version"]) is int and doc["version"] == 1
            doc["version"] = 1.0

        detail = self.broken_restore(resnapshot=widen)
        assert detail is not None and "not reproduced" in detail

    @pytest.mark.parametrize(
        "corrupt", [None, _history_cursor_off_by_one, _rng_off_by_one_word]
    )
    def test_a_non_default_configuration_is_checked(self, corrupt):
        """The fresh instance carries the live one's configuration: a
        10-step history restores into a 10-step history, so a wrong
        restore is seen instead of a shape error passing for "not
        checkable"."""
        config = DPSConfig(priority=PriorityConfig(history_len=10))
        detail = self.broken_restore(corrupt=corrupt, config=config)
        if corrupt is None:
            assert detail is None
        else:
            assert detail is not None and "not reproduced" in detail

    def test_a_restore_that_raises_is_flagged(self):
        def drop_history(doc):
            del doc["state"]["history"]

        detail = self.broken_restore(corrupt=drop_history)
        assert detail is not None
        assert "does not restore into a fresh instance: KeyError" in detail

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DPSManager(DPSConfig(priority=PriorityConfig(history_len=10))),
            lambda: HierarchicalManager(group_size=3),
        ],
        ids=["dps-history10", "hierarchical-3"],
    )
    def test_compositions_the_registry_cannot_build_are_checked(
        self, build, monkeypatch
    ):
        mgr = build()
        mgr.bind(6, 660.0, 165.0, 30.0, rng=np.random.default_rng(0))
        for _ in range(5):
            caps = mgr.step(np.full(6, 150.0))
        assert check("snapshot-idempotence", ctx(caps, mgr)) is None

        made = managers.make_rng

        def one_draw_late(state):
            rng = made(state)
            rng.integers(2)
            return rng

        monkeypatch.setattr(managers, "make_rng", one_draw_late)
        detail = check("snapshot-idempotence", ctx(caps, mgr))
        assert detail is not None and "not reproduced" in detail

    def test_blank_keeps_the_configuration_and_shares_no_state(self):
        mgr = DPSManager(DPSConfig(priority=PriorityConfig(history_len=10)))
        mgr.bind(6, 660.0, 165.0, 30.0, rng=np.random.default_rng(0))
        mgr.step(np.full(6, 150.0))
        before = to_json(mgr.snapshot())
        fresh = mgr.blank()
        assert type(fresh) is DPSManager and fresh.config is mgr.config
        fresh.bind(6, 660.0, 165.0, 30.0, rng=np.random.default_rng(1))
        fresh.step(np.full(6, 40.0))
        assert to_json(mgr.snapshot()) == before


def _leaf_bytes_of(doc) -> int:
    if isinstance(doc, np.ndarray):
        return doc.nbytes
    if isinstance(doc, dict):
        return sum(map(_leaf_bytes_of, doc.values()))
    if isinstance(doc, (list, tuple)):
        return sum(map(_leaf_bytes_of, doc))
    return 0


class TestSnapshotIdempotenceCost:
    """What one check may pay at 1,000 units: one snapshot, one fresh
    instance restored from it, one re-snapshot and a compare."""

    N_UNITS = 1_000

    @pytest.fixture
    def stepped(self):
        mgr = DPSManager()
        n = self.N_UNITS
        mgr.bind(n, 110.0 * n, 165.0, 30.0, rng=np.random.default_rng(0))
        power = np.random.default_rng(1)
        for _ in range(25):
            caps = mgr.step(power.uniform(40.0, 160.0, n))
        return mgr, caps

    def test_one_check_builds_one_bit_generator(self, stepped, monkeypatch):
        mgr, caps = stepped
        built = []

        def counted(make):
            def build(*args, **kwargs):
                built.append(make)
                return make(*args, **kwargs)

            return build

        for name in (
            "default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"
        ):
            monkeypatch.setattr(
                np.random, name, counted(getattr(np.random, name))
            )
        assert check("snapshot-idempotence", ctx(caps, mgr)) is None
        assert len(built) <= 1, built

    def test_no_byte_image_of_a_leaf_is_made(self, stepped):
        mgr, caps = stepped
        doc = mgr.snapshot()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fresh = mgr.blank()
            fresh.restore(doc)
            held = tracemalloc.get_traced_memory()[0] - held
            del fresh
            check("snapshot-idempotence", ctx(caps, mgr))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert check("snapshot-idempotence", ctx(caps, mgr)) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The live snapshot, the fresh instance, its re-snapshot, slack.
        bound = 2 * _leaf_bytes_of(doc) + held + 64 * 1024
        assert peak <= bound, (peak, bound)


#: Words whose readings differ by dtype: ±0.0, 1.0, three NaN payloads
#: and the smallest subnormal as f8 are 0, INT64_MIN, ... as i8.
_WORDS = [
    0x0000000000000000, 0x8000000000000000, 0x3FF0000000000000,
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
    0x0000000000000001,
]
_SHAPES = {
    0: [(0,), (0, 0), (1, 0), (0, 2)],
    1: [(), (1,), (1, 1)],
    2: [(2,), (1, 2), (2, 1)],
    3: [(3,), (1, 3), (3, 1)],
    4: [(4,), (2, 2), (1, 4)],
}
def _strided(a):
    """``a``'s values as every other item of a buffer twice as long."""
    twice = np.empty(a.shape + (2,), a.dtype)
    twice[..., 0] = a
    return twice[..., 0]


def _backwards(a):
    """``a``'s values walked with negative strides (a 0-d array has
    none to walk)."""
    return np.flip(np.flip(a).copy()) if a.ndim else a


#: Layouts of one array's values: as read, strided, Fortran order,
#: backwards.
_LAYOUTS = [lambda a: a, _strided, lambda a: np.array(a, order="F"), _backwards]


@st.composite
def _leaf_bytes(draw):
    """The byte image of a small array and its item size."""
    n = draw(st.sampled_from(sorted(_SHAPES)))
    if draw(st.booleans()):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
        return np.array(words, dtype="<u8").tobytes(), 8
    return bytes(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))), 1


def _readings(raw, itemsize):
    """The array leaves, 0-d to 2-d, that hold ``raw``: the same bytes
    under every dtype of the item size (and, for an odd byte count, as
    one item that long) and every shape of the item count, in every
    layout — the cases a bitwise compare must not confuse."""
    readings = [
        (dtype, shape)
        for dtype in (["<f8", "<i8", ">f8"] if itemsize == 8 else ["|b1", "|i1"])
        for shape in _SHAPES[len(raw) // itemsize]
    ]
    if len(raw) % 2:
        readings += [
            (f"|{kind}{len(raw)}", shape) for kind in "SV" for shape in _SHAPES[1]
        ]
    return st.builds(
        lambda reading, layout: layout(
            np.frombuffer(raw, dtype=reading[0]).reshape(reading[1])
        ),
        st.sampled_from(readings),
        st.sampled_from(_LAYOUTS),
    )


class _Text(str):
    """A ``str`` subclass: written as its value, never settled without
    the text."""


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf]),
    st.floats(allow_nan=True, width=16),
)
_ARRAY_LEAVES = _leaf_bytes().flatmap(lambda image: _readings(*image))
_LEAVES = st.one_of(
    _ARRAY_LEAVES,
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**63]),
    st.integers(-3, 3),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.sampled_from(["", "a", "1", "1.0", "true", "null", "é", "\ud83d", "\U0001f600"]),
    st.text(max_size=3),
    st.text(max_size=3).map(_Text),
)
_KEYS = st.sampled_from(["a", "b", "c", "1", "é"])
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3),
    ),
    max_leaves=12,
)


def _dumps_equal(a, b) -> bool:
    return to_json(a, sort_keys=True) == to_json(b, sort_keys=True)


def _leaf(*values, dtype="<f8"):
    return encode_array(np.array(values, dtype=dtype))


class TestSameJson:
    """The document comparison behind snapshot-idempotence is equality
    of the text the boundary would write, decided without writing it."""

    @given(_DOCS, _DOCS)
    def test_agrees_with_dumps_on_independent_documents(self, a, b):
        assert _same_json(a, b) is _dumps_equal(a, b)

    @given(_DOCS, st.data())
    def test_agrees_with_dumps_on_a_one_leaf_edit(self, doc, data):
        """Two unrelated documents almost never match; most of the
        interesting verdicts sit one leaf away from equality."""

        def edit(node):
            if isinstance(node, dict) and node:
                key = data.draw(st.sampled_from(sorted(node)))
                return {**node, key: edit(node[key])}
            if isinstance(node, (list, tuple)) and node:
                at = data.draw(st.integers(0, len(node) - 1))
                return [*node[:at], edit(node[at]), *node[at + 1 :]]
            return data.draw(_LEAVES)

        other = edit(doc)
        assert _same_json(doc, other) is _dumps_equal(doc, other)
        assert _same_json(doc, copy.deepcopy(doc))

    @given(_DOCS, _leaf_bytes(), st.data())
    def test_agrees_with_dumps_on_two_readings_of_the_same_bytes(
        self, rest, image, data
    ):
        a = {"rest": rest, "leaf": data.draw(_readings(*image))}
        b = {"rest": rest, "leaf": data.draw(_readings(*image))}
        assert _same_json(a, b) is _dumps_equal(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1.0), (1, True), (1.0, True), (0, False), (0.0, -0.0),
            (None, 0), ("1", 1), ([], ()), ([1], (1,)), ({}, []),
            (math.nan, math.nan), ([math.nan], [math.nan]),
            ({"a": 1}, {"a": 1.0}), ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
            ({"a": 1}, {"a": 1, "b": None}), ({1: "x"}, {"1": "x"}),
            ({True: 0}, {"true": 0}), ("\U0001f600", "\ud83d\ude00"),
            ({"\U0001f600": 0}, {"\ud83d\ude00": 0}),
            pytest.param(np.float64(1.0), 1.0, id="f8-1.0"),
            pytest.param(np.float64(0.0), np.float64(-0.0), id="f8-0.0-f8--0.0"),
            pytest.param(np.float64(math.nan), math.nan, id="f8-nan-nan"),
            pytest.param(_Text("a"), "a", id="str-subclass-a"),
            pytest.param(_Text("\U0001f600"), "\ud83d\ude00", id="str-subclass-astral"),
            pytest.param(-0.0, -0.0, id="neg-zero-twice"),
            pytest.param(2**63, 2**63, id="big-int-twice"),
        ],
    )
    def test_type_strictness_matches_json_text(self, a, b):
        assert _same_json(a, b) is _dumps_equal(a, b)
        assert _same_json(b, a) is _dumps_equal(b, a)

    @pytest.mark.parametrize(
        "a, b, same",
        [
            (_leaf(1.0, 2.0), _leaf(1.0, 2.0), True),
            (_leaf(0.0), _leaf(-0.0), False),
            (_leaf(math.nan), _leaf(math.nan), True),
            (_leaf(math.nan), -_leaf(math.nan), False),
            (_leaf(1.0), _leaf(np.nextafter(1.0, 2.0)), False),
            (_leaf(1.0, 2.0), _leaf(1.0, 2.0).reshape(1, 2), False),
            (_leaf(1.0), _leaf(1.0).view("<i8"), False),
            (_leaf(1.0), _leaf(1.0, dtype="<f4"), False),
            (_leaf(1.0), [1.0], False),
            (encode_array(np.array([True])), encode_array(np.int8([1])), False),
            # The same leaf before and after the disk, and under a byte
            # order the boundary normalises away.
            (_leaf(1.0, -0.0), json.loads(to_json(_leaf(1.0, -0.0))), True),
            (_leaf(1.0), np.array([1.0], dtype=">f8"), True),
            ({"p": _leaf(1.0), "n": 1}, {"n": 1, "p": _leaf(1.0)}, True),
        ],
    )
    def test_array_leaves_compare_as_their_text(self, a, b, same):
        assert _dumps_equal(a, b) is same
        assert _same_json(a, b) is same and _same_json(b, a) is same


class TestMonitor:
    def failing(self):
        class AlwaysFails(Invariant):
            name = "always-fails"

            def check(self, ctx):
                return "broken"

        return AlwaysFails()

    def test_strict_raises(self):
        monitor = InvariantMonitor(mode="strict", invariants=(self.failing(),))
        with pytest.raises(InvariantViolationError, match="always-fails"):
            monitor.run(ctx(np.full(4, 110.0)))
        assert len(monitor.events.of_kind("invariant_violation")) == 1

    def test_sampling_emits_without_raising(self):
        monitor = InvariantMonitor(
            mode="sampling", sample_every=3, invariants=(self.failing(),)
        )
        for cycle in range(7):
            monitor.run(ctx(np.full(4, 110.0)))
        # Cycles 1, 4, and 7 are swept (1-based, every 3rd).
        assert monitor.sweeps_run == 3
        assert len(monitor.violations) == 3
        # The monitor's own log is stamped with the cycles it has seen.
        assert [e.time_s for e in monitor.events] == [1.0, 4.0, 7.0]

    def test_off_does_nothing(self):
        monitor = InvariantMonitor(mode="off", invariants=(self.failing(),))
        assert monitor.run(ctx(np.full(4, 110.0))) == []
        assert monitor.sweeps_run == 0

    def test_default_invariants_pass_on_healthy_state(self):
        mgr = create_manager("dps")
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        caps = mgr.step(np.full(4, 120.0))
        monitor = InvariantMonitor(mode="strict")
        assert monitor.invariants == default_invariants()
        assert monitor.run(ctx(caps, mgr)) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            InvariantMonitor(mode="bogus")
        with pytest.raises(ValueError, match="sample_every"):
            InvariantMonitor(sample_every=0)
