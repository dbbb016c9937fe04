"""Invariant monitors: the built-in checks, the registry, the cadences."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import managers
from repro.core.managers import create_manager
from repro.recovery.state import decode_array, encode_array
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


def _history_cursor_off_by_one(doc):
    history = doc["state"]["history"]
    history["head"] = (history["head"] + 1) % 20


def _kalman_variance_off_by_one_ulp(doc):
    p = decode_array(doc["state"]["kalman"]["p"])
    p[2] = np.nextafter(p[2], np.inf)
    doc["state"]["kalman"]["p"] = encode_array(p)


def _rng_off_by_one_word(doc):
    doc["rng"]["state"]["state"] += 1


class TestSnapshotIdempotenceFires:
    """The live crash-recovery check must see a restore that is wrong by
    the smallest step each kind of state can be wrong by."""

    def broken_restore(self, monkeypatch, corrupt=None, resnapshot=None):
        """Make the fresh instance the invariant builds a manager whose
        ``restore`` (or re-``snapshot``) is subtly wrong."""
        healthy = type(create_manager("dps"))

        class Broken(healthy):
            def restore(self, state):
                state = copy.deepcopy(state)
                if corrupt is not None:
                    corrupt(state)
                super().restore(state)

            def snapshot(self):
                doc = super().snapshot()
                if resnapshot is not None:
                    resnapshot(doc)
                return doc

        monkeypatch.setitem(managers._REGISTRY, "dps", Broken)
        mgr = healthy()
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        for _ in range(3):
            caps = mgr.step(np.full(4, 150.0))
        return check("snapshot-idempotence", ctx(caps, mgr))

    def test_the_harness_itself_is_clean(self, monkeypatch):
        assert self.broken_restore(monkeypatch) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            _history_cursor_off_by_one,
            _kalman_variance_off_by_one_ulp,
            _rng_off_by_one_word,
        ],
    )
    def test_restore_off_by_the_smallest_step_is_flagged(
        self, monkeypatch, corrupt
    ):
        detail = self.broken_restore(monkeypatch, corrupt=corrupt)
        assert detail is not None and "not reproduced" in detail

    def test_integer_that_comes_back_as_float_is_flagged(self, monkeypatch):
        def widen(doc):
            assert type(doc["version"]) is int and doc["version"] == 1
            doc["version"] = 1.0

        detail = self.broken_restore(monkeypatch, resnapshot=widen)
        assert detail is not None and "not reproduced" in detail


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**63, 0.0, -0.0, 1.0, -1.0, math.nan, math.inf]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, width=16),
    st.sampled_from(["", "a", "1", "1.0", "true", "null", "é", "\ud83d", "\U0001f600"]),
    st.text(max_size=3),
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
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSameJson:
    """The document comparison behind snapshot-idempotence is
    ``json.dumps`` equality, decided without building the strings."""

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
        ],
    )
    def test_type_strictness_matches_json_text(self, a, b):
        assert _same_json(a, b) is _dumps_equal(a, b)
        assert _same_json(b, a) is _dumps_equal(b, a)


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
            monitor.run(ctx(np.full(4, 110.0)), now=0.0)
        assert len(monitor.events.of_kind("invariant_violation")) == 1

    def test_sampling_emits_without_raising(self):
        monitor = InvariantMonitor(
            mode="sampling", sample_every=3, invariants=(self.failing(),)
        )
        for cycle in range(7):
            monitor.run(ctx(np.full(4, 110.0)), now=float(cycle))
        # Cycles 1, 4, and 7 are swept (1-based, every 3rd).
        assert monitor.sweeps_run == 3
        assert len(monitor.violations) == 3

    def test_off_does_nothing(self):
        monitor = InvariantMonitor(mode="off", invariants=(self.failing(),))
        assert monitor.run(ctx(np.full(4, 110.0)), now=0.0) == []
        assert monitor.sweeps_run == 0

    def test_default_invariants_pass_on_healthy_state(self):
        mgr = create_manager("dps")
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        caps = mgr.step(np.full(4, 120.0))
        monitor = InvariantMonitor(mode="strict")
        assert monitor.invariants == default_invariants()
        assert monitor.run(ctx(caps, mgr), now=0.0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            InvariantMonitor(mode="bogus")
        with pytest.raises(ValueError, match="sample_every"):
            InvariantMonitor(sample_every=0)
