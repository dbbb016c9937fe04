"""Oracle equivalence of the array-native decision core.

The decision path (fused peak/std kernel with its Python fallback,
boolean-mask priority classifier, accumulate-chain MIMD increase pass)
must be *bit-exact* against the per-unit reference implementations in
``tests/core/oracles.py``.  Any divergence is a latent bug in one of the
two — never something to paper over with a tolerance — so every
assertion here is exact equality.

The suite drives randomized histories, configurations, budgets, and
priorities through product and oracle at three levels: the stateless
kernels (peak counts, std, MIMD), the stateful priority classifier, and
full DPS/SLURM manager runs including snapshot/restore across the two.
The reference side of every comparison runs under
:func:`oracles.loop_core` — per-unit walks, no compiled kernel.

Algorithm 1, the Kalman bank and Algorithm 2's flags each exist three
times — compiled walk, NumPy fallback (:func:`oracles.no_native`),
per-unit oracle — and ``TestThreeWayLockstep`` holds the three equal in
every bit of every output, the generator's state included.  Algorithm 4's
water-fill exists twice — compiled passes around NumPy's sums, NumPy
throughout — and ``TestWaterFillLockstep`` holds those two equal the same
way.
"""

import contextlib
import copy
import itertools
import os
import pickle
import platform
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import _native, priority
from repro.core.config import (
    DPSConfig,
    KalmanConfig,
    PriorityConfig,
    ReadjustConfig,
    StatelessConfig,
)
from repro.core.dps import DPSManager
from repro.core.history import HistoryBuffer
from repro.core.kalman import KalmanBank
from repro.core.peaks import (
    _count_walk,
    count_prominent_peaks_multi,
    fill_features,
    peak_prominences,
)
from repro.core.priority import PriorityModule
from repro.core.readjust import SATURATION_EPS_W, readjust
from repro.core.slurm import SlurmManager
from repro.core.stateless import mimd_step
from tests.core.oracles import loop_core, no_native

# Power-like values on a coarse grid so ties, plateaus, and exact
# threshold hits are common — the cases where a vectorization shortcut
# would first diverge from the sequential walk.
_grid_power = st.integers(min_value=0, max_value=660).map(lambda v: v / 4.0)
_smooth_power = st.floats(
    min_value=0.0, max_value=165.0, allow_nan=False, allow_infinity=False
)
_power_value = st.one_of(_grid_power, _smooth_power)


@st.composite
def histories(draw, min_len=1, max_len=24, max_units=24):
    h = draw(st.integers(min_value=min_len, max_value=max_len))
    n = draw(st.integers(min_value=1, max_value=max_units))
    flat = draw(
        st.lists(_power_value, min_size=h * n, max_size=h * n)
    )
    return np.array(flat, dtype=np.float64).reshape(h, n)


def _std(history):
    out = np.empty(history.shape[1])
    fill_features(history, 1.0, None, out)
    return out


def _verdict_features(history, prominence, **verdict):
    """``(pp, std)`` as Algorithm 2 asks for them (verdict context)."""
    pp = np.empty(history.shape[1], dtype=np.intp)
    std = np.empty(history.shape[1])
    fill_features(history, prominence, pp, std, **verdict)
    return pp, std


def _needs_kernel():
    if _native.peak_features() is None:
        pytest.skip("no native kernel on this host")


class TestPeakCountEquivalence:
    @given(
        history=histories(),
        prominence=st.one_of(
            st.floats(min_value=0.25, max_value=40.0, allow_nan=False),
            st.sampled_from([0.25, 1.0, 5.0, 20.0]),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_three_implementations_agree(self, history, prominence):
        """Native kernel, per-column walk fallback, and the full
        prominence computation all return identical counts — not close,
        identical."""
        kernel = count_prominent_peaks_multi(history, prominence)
        with no_native():
            walk = count_prominent_peaks_multi(history, prominence)
        np.testing.assert_array_equal(kernel, walk)
        for u, col in enumerate(history.T):
            assert walk[u] == _count_walk(col.tolist(), float(prominence))
            _, prom = peak_prominences(col)
            assert walk[u] == np.count_nonzero(prom >= prominence)

    @given(history=histories(min_len=3))
    @settings(max_examples=60, deadline=None)
    def test_kernel_std_matches_sequential_sum(self, history):
        """The fused kernel's std uses sequential per-column summation;
        it must equal the plain-Python sequential definition bit for
        bit."""
        _needs_kernel()
        h, n = history.shape
        out = _std(history)
        for c in range(n):
            col = history[:, c].tolist()
            mean = sum(col) / h
            var = 0.0
            for v in col:
                d = v - mean
                var += d * d
            assert out[c] == np.sqrt(np.float64(var / h))

    @given(
        n=st.integers(min_value=1, max_value=300),
        h=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ring=st.booleans(),
    )
    @example(n=1, h=33, seed=0, ring=False)
    @example(n=1, h=64, seed=1, ring=True)
    @settings(max_examples=150, deadline=None)
    def test_fallback_features_match_kernel(self, n, h, seed, ring):
        """Kernel == fallback bit for bit, for every shape — including
        the single-column history whose contiguous axis ``np.std`` would
        sum pairwise — on contiguous arrays and on the zero-copy views
        ``HistoryBuffer.chronological()`` hands the priority module."""
        _needs_kernel()
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 165.0, (h + int(rng.integers(0, h + 1)), n))
        if ring:
            buf = HistoryBuffer(h, n)
            for row in rows:
                buf.push(row)
            history = buf.chronological()
        else:
            history = rows[-h:].copy()
        assert history.shape == (h, n)
        kernel_std = _std(history)
        kernel_pp = count_prominent_peaks_multi(history, 5.0)
        # Under a verdict context pp_out is value-identical too, skipped
        # (reads T) and saturated (reads T + 1) columns included: uniform
        # 0-165 W has std ~48 W, so a threshold drawn around it splits the
        # flagged columns into skipped and walked.
        verdict = dict(
            flagged=rng.random(n) < 0.5,
            pp_threshold=int(rng.integers(1, 5)),
            std_threshold=float(rng.uniform(35.0, 60.0)),
        )
        kernel_lazy = _verdict_features(history, 5.0, **verdict)
        with no_native():
            np.testing.assert_array_equal(_std(history), kernel_std)
            np.testing.assert_array_equal(
                count_prominent_peaks_multi(history, 5.0), kernel_pp
            )
            walk_lazy = _verdict_features(history, 5.0, **verdict)
        for got, want in zip(walk_lazy, kernel_lazy):
            np.testing.assert_array_equal(got, want)
        lazy_pp, lazy_std = kernel_lazy
        np.testing.assert_array_equal(lazy_std, kernel_std)
        cap = verdict["pp_threshold"]
        skipped = verdict["flagged"] & (kernel_std >= verdict["std_threshold"])
        np.testing.assert_array_equal(
            lazy_pp, np.where(skipped, cap, np.minimum(kernel_pp, cap + 1))
        )


class TestMimdEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        budget_scale=st.floats(min_value=0.1, max_value=1.5),
        inc_threshold=st.floats(min_value=0.5, max_value=0.99),
        inc_factor=st.floats(min_value=1.01, max_value=1.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_caps_changed_and_leftover_bit_exact(
        self, n, seed, budget_scale, inc_threshold, inc_factor
    ):
        rng = np.random.default_rng(seed)
        caps = rng.uniform(30.0, 165.0, n)
        power = rng.uniform(0.0, 170.0, n)
        # Exact threshold hits: the admission test is power > cap * thr,
        # so equality must fall on the same side in product and oracle.
        if n >= 2:
            power[0] = caps[0] * inc_threshold
        config = StatelessConfig(
            inc_threshold=inc_threshold,
            dec_threshold=min(0.85, inc_threshold - 0.01),
            inc_factor=inc_factor,
        )
        budget = float(budget_scale * caps.sum())

        def run():
            return mimd_step(
                power, caps, budget, 165.0, 30.0, config,
                np.random.default_rng(seed),
            )

        product = run()
        with loop_core():
            oracle = run()
        np.testing.assert_array_equal(product.caps, oracle.caps)
        np.testing.assert_array_equal(product.changed, oracle.changed)
        assert product.avail_budget_w == oracle.avail_budget_w

    def test_partial_grant_at_budget_boundary(self):
        """Pinned: the one unit straddling the budget boundary receives
        exactly the walk's remainder, and the rng stream advances the
        same way under product and oracle."""
        caps = np.full(8, 100.0)
        power = np.full(8, 100.0)  # all want increase
        config = StatelessConfig()
        budget = float(caps.sum()) + 13.7  # covers one full grant + change

        def run():
            return mimd_step(
                power, caps, budget, 165.0, 30.0, config,
                np.random.default_rng(5),
            )

        product = run()
        with loop_core():
            oracle = run()
        np.testing.assert_array_equal(product.caps, oracle.caps)
        assert product.avail_budget_w == oracle.avail_budget_w


class _Pair:
    """A product :class:`PriorityModule` and one driven by the oracle."""

    def __init__(self, n, use_frequency=True):
        self.product = PriorityModule(
            n, PriorityConfig(), use_frequency=use_frequency
        )
        self.oracle = PriorityModule(
            n, PriorityConfig(), use_frequency=use_frequency
        )

    def update(self, history):
        """Step both on ``history``; return ``(product, oracle)`` flags."""
        out = self.product.update(history, 1.0)
        with loop_core():
            ref = self.oracle.update(history, 1.0)
        return out, ref


class TestPriorityEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=8),
        use_frequency=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_flags_bit_exact_over_random_runs(
        self, n, seed, steps, use_frequency
    ):
        rng = np.random.default_rng(seed)
        pair = _Pair(n, use_frequency=use_frequency)
        for _ in range(steps):
            h = int(rng.integers(1, 24))
            scale = float(rng.uniform(0.5, 30.0))
            hist = np.cumsum(rng.normal(0.0, scale, (h, n)), axis=0) + 100.0
            if rng.random() < 0.3:
                hist = np.round(hist * 4.0) / 4.0  # force ties/plateaus
            out, ref = pair.update(hist)
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(
                pair.product.high_freq, pair.oracle.high_freq
            )

    def test_warmup_history_keeps_priorities_in_both_cores(self):
        """Shorter history than the derivative window: no classification,
        product and oracle return the prior flags untouched."""
        pair = _Pair(4)
        short = np.full((1, 4), 100.0)  # < deriv_window
        for out in pair.update(short):
            np.testing.assert_array_equal(out, np.zeros(4, dtype=bool))

    def test_all_high_frequency_population(self):
        """Every unit oscillating hard: all go (and stay) high-frequency
        under product and oracle, including the clear-check path the
        step after."""
        n = 6
        pair = _Pair(n)
        t = np.arange(20)[:, None]
        hist = 100.0 + 40.0 * np.where(t % 2 == 0, 1.0, -1.0) * np.ones(
            (20, n)
        )
        for _ in range(3):
            out, ref = pair.update(hist)
            np.testing.assert_array_equal(out, ref)
            assert pair.oracle.high_freq.all()
            assert pair.product.high_freq.all()
            assert ref.all()


def _exact_features(history, min_prominence, pp_out, std_out, **_verdict):
    """``fill_features`` as it was before the verdict context: every
    column walked to the end, exact counts."""
    fill_features(history, min_prominence, pp_out, std_out)


class _LazyExactPair:
    """Two product :class:`PriorityModule`s in lockstep: ``lazy`` hands
    ``fill_features`` its verdict context, ``exact`` is patched not to."""

    def __init__(self, n, config):
        self.lazy = PriorityModule(n, config)
        self.exact = PriorityModule(n, config)

    def update(self, history):
        out = self.lazy.update(history, 1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(priority, "fill_features", _exact_features)
            ref = self.exact.update(history, 1.0)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(self.lazy.high_freq, self.exact.high_freq)


def _phase_history(rng, h, n, config):
    """One window in which every unit draws its own power phase: flat,
    ramp (noisy, no peaks), and square waves from a ripple under both
    thresholds to a hard oscillation over both -- amplitudes on
    multiples of the thresholds, so exact hits are common.  Redrawn
    every step, a unit sets, stays flagged, and clears over a run."""
    t = np.arange(h, dtype=np.float64)[:, None]
    period = rng.integers(2, 9, n)
    wave = np.where(t % period < period / 2, 1.0, -1.0)
    scale = rng.choice([config.peak_prominence / 2, config.std_threshold], n)
    amp = scale * rng.choice([0.0, 0.5, 1.0, 1.0, 1.5, 4.0], n)
    slope = rng.choice([0.0, 0.0, 0.5, 3.0], n) * config.std_threshold / 4
    hist = 100.0 + amp * wave + slope * t
    if rng.random() < 0.5:
        hist += rng.normal(0.0, 0.3 * config.std_threshold, (h, n))
    return hist


_hosts = pytest.mark.parametrize(
    "host", [contextlib.nullcontext, no_native], ids=["kernel", "walk"]
)


class TestLazyFeaturesEqualExact:
    """Skipping and capping the peak walks never reaches a flag."""

    @_hosts
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=2, max_value=8),
        pp_threshold=st.integers(min_value=1, max_value=4),
        prominence=st.sampled_from([2.0, 5.0, 20.0, 33.3]),
        std_threshold=st.sampled_from([1.5, 6.0, 12.0, 25.0]),
        quarter_watts=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_flags_bit_identical_over_random_runs(
        self, host, n, seed, steps, pp_threshold, prominence, std_threshold,
        quarter_watts,
    ):
        rng = np.random.default_rng(seed)
        config = PriorityConfig(
            peak_prominence=prominence,
            pp_threshold=pp_threshold,
            std_threshold=std_threshold,
        )
        pair = _LazyExactPair(n, config)
        with host():
            for _ in range(steps):
                h = int(rng.choice([rng.integers(1, 25), 20, 20]))
                window = _phase_history(rng, h, n, config)
                if quarter_watts:  # Equal heights and exact threshold hits.
                    window = np.round(window * 4.0) / 4.0
                pair.update(window)

    @_hosts
    def test_std_on_the_threshold_skips(self, host):
        """A flagged unit with no peaks at all and ``std == std_threshold``
        exactly: the clear needs ``std < threshold``, so the walk is
        skipped (``_pp`` reads T) and the flag stays; one ulp of threshold
        more and the same window is walked and clears."""
        hard = np.where(np.arange(20) % 2 == 0, 140.0, 60.0)[:, None]
        step = np.repeat([88.0, 112.0], 10)[:, None]  # std exactly 12.0
        for threshold, cleared in ((12.0, False), (np.nextafter(12.0, 13.0), True)):
            pair = _LazyExactPair(1, PriorityConfig(std_threshold=threshold))
            with host():
                pair.update(hard)
                assert pair.lazy.high_freq.all()
                pair.update(step)
            assert pair.lazy._std[0] == 12.0
            assert pair.lazy._pp[0] == (0 if cleared else 1)
            assert pair.exact._pp[0] == 0
            assert pair.lazy.high_freq[0] == (not cleared)

    @_hosts
    @pytest.mark.parametrize("pp_threshold", [1, 2, 4])
    def test_count_on_the_threshold_moves_no_flag(self, host, pp_threshold):
        """Exactly T quiet peaks answer neither ``pp > T`` nor ``pp < T``:
        an unflagged unit stays unflagged and a flagged one stays flagged,
        with the count exact (below the cap); one peak more saturates at
        T + 1 and sets."""
        config = PriorityConfig(
            peak_prominence=2.0, pp_threshold=pp_threshold
        )

        def bumps(k):
            window = np.full((20, 1), 100.0)
            window[2 : 2 + 3 * k : 3] = 103.0
            return window

        on, over = bumps(pp_threshold), bumps(pp_threshold + 2)
        pair = _LazyExactPair(1, config)
        with host():
            pair.update(on)
            assert pair.lazy._pp[0] == pp_threshold
            assert not pair.lazy.high_freq[0]
            pair.update(over)
            assert pair.lazy._pp[0] == pp_threshold + 1  # saturated
            assert pair.exact._pp[0] == pp_threshold + 2
            assert pair.lazy.high_freq[0]
            pair.update(on)  # quiet std, but count == T: no clear
            assert pair.lazy._pp[0] == pp_threshold
            assert pair.lazy._std[0] < config.std_threshold
            assert pair.lazy.high_freq[0]


def _bound(manager, n, seed):
    manager.bind(
        n_units=n,
        budget_w=110.0 * n,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(seed),
    )
    return manager


def _steps(manager, powers):
    """Drive ``manager`` over a power sequence; per-step caps."""
    return [manager.step(p, p).copy() for p in powers]


def _run_manager(factory, powers):
    return _steps(factory(), powers)


def _assert_runs_equal(run, reference):
    assert len(run) == len(reference)
    for got, want in zip(run, reference):
        np.testing.assert_array_equal(got, want)


def _powers(seed, n, steps):
    rng = np.random.default_rng(seed)
    return [rng.uniform(20.0, 165.0, n) for _ in range(steps)]


class TestManagerParity:
    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_dps_run_bit_exact(self, n, seed, steps):
        powers = _powers(seed, n, steps)

        def factory():
            return _bound(DPSManager(DPSConfig()), n, seed)

        product = _run_manager(factory, powers)
        with loop_core():
            oracle = _run_manager(factory, powers)
        _assert_runs_equal(product, oracle)

    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_slurm_run_bit_exact(self, n, seed):
        powers = _powers(seed, n, 12)

        def factory():
            return _bound(SlurmManager(), n, seed)

        product = _run_manager(factory, powers)
        with loop_core():
            oracle = _run_manager(factory, powers)
        _assert_runs_equal(product, oracle)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        snapshot_at=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_swaps_cores_mid_run(self, seed, snapshot_at):
        """A run snapshotted under the oracle and restored into the
        product manager (and vice versa) finishes with caps bit-identical
        to never switching at all."""
        n = 7
        powers = _powers(seed, n, 25)

        def factory():
            return _bound(DPSManager(DPSConfig()), n, seed)

        with loop_core():
            reference = _run_manager(factory, powers)

        # Oracle first, product after the restore.
        with loop_core():
            manager = factory()
            head = _steps(manager, powers[:snapshot_at])
            state = manager.snapshot()
        manager = factory()
        manager.restore(state)
        tail = _steps(manager, powers[snapshot_at:])
        _assert_runs_equal(head + tail, reference)

        # Product first, oracle after the restore.
        manager = factory()
        head = _steps(manager, powers[:snapshot_at])
        state = manager.snapshot()
        with loop_core():
            manager = factory()
            manager.restore(state)
            tail = _steps(manager, powers[snapshot_at:])
        _assert_runs_equal(head + tail, reference)


#: The three implementations of every per-unit stage, by the context
#: that selects them: compiled walks (where the host has a compiler; else
#: this leg repeats the second), NumPy fallbacks, per-unit oracles.
_IMPLEMENTATIONS = {
    "kernel": contextlib.nullcontext,
    "numpy": no_native,
    "oracle": loop_core,
}


def _bits(value):
    """``value`` as something ``==`` compares bit for bit: arrays by
    dtype, shape and bytes (``-0.0 != 0.0``, NaN payloads count), floats
    by their eight bytes, containers element-wise."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(item) for item in value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    return value


def _assert_three_ways_equal(run):
    """``run()`` under each implementation; all outputs bit-identical."""
    outputs = {}
    for name, implementation in _IMPLEMENTATIONS.items():
        with implementation():
            outputs[name] = _bits(run())
    assert outputs["kernel"] == outputs["oracle"]
    assert outputs["numpy"] == outputs["oracle"]


def _grid(rng, low, high, n):
    """``n`` values on the quarter-watt grid in ``[low, high]``."""
    return rng.integers(int(low * 4), int(high * 4) + 1, n) / 4.0


@st.composite
def mimd_cases(draw):
    """``(power, caps, budget, min_cap, config, seed, drawn)`` for one MIMD
    pass; ``drawn`` says whether the budget leaves anything to hand out.

    Everything sits on the quarter-watt grid with a tenth of the units
    pinned to each edge case, so ``power == cap * threshold`` ties, caps
    at ``min``/``max``, and both zeros (with ``min_cap_w = 0``) occur in
    most examples rather than never.
    """
    n = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    min_cap = draw(st.sampled_from([0.0, 30.0]))
    config = StatelessConfig(
        inc_threshold=draw(st.sampled_from([0.95, 0.875])),
        dec_threshold=draw(st.sampled_from([0.85, 0.75, 0.5])),
        inc_factor=draw(st.sampled_from([1.1, 1.25, 1.5])),
        dec_factor=draw(st.sampled_from([0.9, 0.5])),
    )
    wanting = draw(st.sampled_from(["mixed", "all", "none"]))
    budget_kind = draw(st.sampled_from(["ample", "partial", "spent", "over"]))
    rng = np.random.default_rng(seed)

    caps = _grid(rng, min_cap, 165.0, n)
    pin = rng.random(n)
    caps[pin < 0.1] = min_cap
    caps[pin > 0.9] = 165.0
    if min_cap == 0.0:
        caps[(pin > 0.1) & (pin < 0.2)] = -0.0
    if wanting == "all":
        power = caps.copy()  # At the cap: over any inc_threshold < 1.
    elif wanting == "none":
        power = caps * config.dec_threshold  # The tie: neither loop acts.
    else:
        power = _grid(rng, 0.0, 170.0, n)
        tie = rng.random(n)
        power = np.where(tie < 0.1, caps * config.inc_threshold, power)
        power = np.where(tie > 0.9, caps * config.dec_threshold, power)
        power[(tie > 0.4) & (tie < 0.45)] = 0.0
        power[(tie > 0.45) & (tie < 0.5)] = -0.0

    # The caps after the decrease loop fix what each budget kind means.
    with loop_core():
        lowered = mimd_step(
            power, caps, 0.0, 165.0, min_cap, config, np.random.default_rng(0)
        ).caps
    assigned = float(lowered.sum())
    budget = {
        # Never reached: every wanting unit gets its full growth.
        "ample": assigned + 2 * 165.0 * n,
        # Runs out mid-walk: one unit takes the remainder, exactly 0 left.
        "partial": assigned + float(rng.integers(1, 40 * n + 1)) / 4.0,
        # avail == 0.0 and avail < 0: no permutation may be drawn.
        "spent": assigned,
        "over": 0.5 * assigned,
    }[budget_kind]
    drawn = budget_kind in ("ample", "partial")
    return power, caps, budget, min_cap, config, seed, drawn


class TestThreeWayLockstep:
    """Compiled walk == NumPy fallback == per-unit oracle, stage by stage."""

    @given(case=mimd_cases())
    @settings(max_examples=200, deadline=None)
    def test_mimd_step(self, case):
        power, caps, budget, min_cap, config, seed, drawn = case
        inputs = _bits((power, caps))
        # One permutation of n iff there is budget left, else no draw.
        stream = np.random.default_rng(seed)
        if drawn:
            stream.permutation(power.shape[0])

        def run():
            rng = np.random.default_rng(seed)
            result = mimd_step(power, caps, budget, 165.0, min_cap, config, rng)
            assert rng.bit_generator.state == stream.bit_generator.state
            return tuple(result)

        _assert_three_ways_equal(run)
        assert _bits((power, caps)) == inputs  # Neither input is touched.

    def test_skipped_unit_keeps_its_negative_zero_cap(self):
        """Pinned: a unit the increase walk does not grant is not written,
        so a ``-0.0`` cap stays ``-0.0`` (the accumulate chain used to add
        ``+0.0`` to every unit, which flipped the sign)."""
        caps = np.array([-0.0, 100.0, -0.0])
        power = np.array([0.0, 100.0, -0.0])
        grown = 100.0 * 1.1
        for implementation in _IMPLEMENTATIONS.values():
            with implementation():
                result = mimd_step(
                    power, caps, 150.0, 165.0, 0.0, StatelessConfig(),
                    np.random.default_rng(1),
                )
            assert _bits(result.caps) == _bits(np.array([-0.0, grown, -0.0]))
            assert result.changed.tolist() == [False, True, False]
            assert result.avail_budget_w == 50.0 - (grown - 100.0)

    def test_a_tie_at_the_floor_keeps_the_lowered_zero(self):
        """Pinned: max and clip go as Python's ``min(max(x, lo), hi)`` --
        the first argument keeps a tie -- so a (nonsensical but finite)
        negative reading under a ``-0.0`` cap lowers to ``-0.0`` over a
        ``0.0`` floor (``np.clip`` and ``np.maximum`` promise no sign)."""
        for implementation in _IMPLEMENTATIONS.values():
            with implementation():
                result = mimd_step(
                    np.array([-1.0, -1.0]), np.array([-0.0, 0.0]), -1.0,
                    165.0, 0.0, StatelessConfig(), np.random.default_rng(1),
                )
            assert _bits(result.caps) == _bits(np.array([-0.0, 0.0]))
            assert result.changed.tolist() == [False, False]

    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=6),
        config=st.builds(
            KalmanConfig,
            process_var=st.sampled_from([25.0, 0.25, 1e-9]),
            measurement_var=st.sampled_from([4.0, 0.5, 1e6]),
            initial_var=st.sampled_from([100.0, 1e-3]),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_kalman_update(self, n, seed, steps, config):
        rng = np.random.default_rng(seed)
        readings = []
        for _ in range(steps):
            z = _grid(rng, 0.0, 170.0, n)
            z[rng.random(n) < 0.1] = -0.0
            readings.append(z)

        def run():
            bank = KalmanBank(n, config)
            return [
                (bank.update(z), bank.estimate.copy(), bank.variance.copy())
                for z in readings
            ]

        _assert_three_ways_equal(run)

    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=2, max_value=8),
        use_frequency=st.booleans(),
        config=st.builds(
            PriorityConfig,
            deriv_method=st.sampled_from(["endpoints", "lsq"]),
            pp_threshold=st.integers(min_value=1, max_value=3),
            peak_prominence=st.sampled_from([2.0, 20.0]),
            std_threshold=st.sampled_from([1.5, 12.0]),
            deriv_inc_threshold=st.sampled_from([1.8, 0.75]),
            deriv_dec_threshold=st.sampled_from([-1.8, -0.75]),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_priority_flags(self, n, seed, steps, use_frequency, config):
        rng = np.random.default_rng(seed)
        windows = []
        for _ in range(steps):
            h = int(rng.choice([rng.integers(1, 25), 20]))
            window = _phase_history(rng, h, n, config)
            # Slopes exactly on a derivative threshold answer neither test.
            window = np.round(window * 4.0) / 4.0
            windows.append(window)

        def run():
            module = PriorityModule(n, config, use_frequency=use_frequency)
            return [
                (module.update(window, 1.0), module.high_freq.copy())
                for window in windows
            ]

        _assert_three_ways_equal(run)

    @pytest.mark.parametrize(
        "make", [lambda: DPSManager(DPSConfig()), SlurmManager],
        ids=["dps", "slurm"],
    )
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        snapshot_at=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=12, deadline=None)
    def test_runs_with_a_snapshot_across_implementations(
        self, make, n, seed, snapshot_at
    ):
        """A run started under one implementation, snapshotted, and
        finished under another: caps, generator state after every step,
        and the final snapshot document equal the never-switched run."""
        rng = np.random.default_rng(seed)
        powers = [_grid(rng, 20.0, 165.0, n) for _ in range(25)]

        def steps(manager, readings):
            return [
                (manager.step(p, p), manager._rng.bit_generator.state)
                for p in readings
            ]

        def run(first, second):
            with first():
                manager = _bound(make(), n, seed)
                trail = steps(manager, powers[:snapshot_at])
                state = manager.snapshot()
            with second():
                manager = _bound(make(), n, seed + 1)  # All of it restored.
                manager.restore(state)
                trail += steps(manager, powers[snapshot_at:])
                return _bits((trail, manager.snapshot()))

        reference = run(loop_core, loop_core)
        for first, second in itertools.permutations(
            _IMPLEMENTATIONS.values(), 2
        ):
            assert run(first, second) == reference


#: The last cap the water-fill still tops up sits one ulp under this.
_CEILING = 165.0 - SATURATION_EPS_W


@st.composite
def waterfill_cases(draw):
    """``(caps, priority, budget, config)`` for one ``readjust`` call.

    Quarter-watt caps with a share of the units pinned to each edge -- at
    the maximum, on either side of ``SATURATION_EPS_W`` under it, at and
    under the ``1e-9`` floor of the weights -- and a leftover sized
    against the room the high-priority units have, so the fill ends every
    way it can: never started, one pass, units retiring pass by pass, and
    dry (every unit full) with budget to spare.
    """
    n = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    high = draw(st.sampled_from(["none", "some", "all"]))
    shape = draw(st.sampled_from(["spread", "full", "near", "tiny"]))
    leftover = draw(
        st.sampled_from(
            ["ulp under", "on", "ulp over", "sliver", "part", "most", "flood"]
        )
    )
    # Not 0.0: what a pass without a clipped unit leaves over is rounding
    # noise that shrinks 1e-16-fold per pass and stalls in the denormals,
    # in both implementations alike (CHANGES.md, PR 20).
    epsilon = draw(st.sampled_from([1.0, 0.25, 1e-6]))
    rng = np.random.default_rng(seed)

    caps = _grid(rng, 30.0, 165.0, n)
    pin = rng.random(n)
    if shape == "spread":
        caps[pin < 0.1] = 165.0
        caps[pin > 0.9] = 164.75
    elif shape == "full":  # At the maximum or too close to count.
        caps[:] = 165.0
        caps[pin < 0.5] = 165.0 - 1e-13
    elif shape == "near":
        edges = [
            165.0,
            165.0 - 1e-13,
            _CEILING,
            np.nextafter(_CEILING, 0.0),
            np.nextafter(_CEILING, 166.0),
            164.75,
        ]
        caps = rng.choice(edges, n)
    else:  # The weights are 1 / max(cap, 1e-9).
        floor = [1e-9, np.nextafter(1e-9, 1.0), 5e-10, 1e-12, 0.0, -0.0, 0.25]
        caps = np.where(pin < 0.7, rng.choice(floor, n), caps)
    priority = {
        "none": np.zeros(n, dtype=bool),
        "some": rng.random(n) < 0.4,
        "all": np.ones(n, dtype=bool),
    }[high]

    assigned = float(caps.sum())
    filling = priority & (caps < _CEILING)
    room = float((165.0 - caps[filling]).sum())
    watts = {
        "sliver": epsilon + 0.25,  # One pass hands all of it out.
        "part": 0.3 * room,
        "most": 0.9 * room,  # Units retire; the rest share what they shed.
        "flood": room + 50.0,  # Everyone fills up and budget remains.
    }.get(leftover, 2.0)
    budget = assigned + np.ceil(watts * 4.0) / 4.0
    if leftover in ("ulp under", "on", "ulp over"):
        # The branch is `leftover > budget_epsilon`: put the epsilon on
        # the leftover itself and one ulp to either side of it.
        avail = budget - assigned
        epsilon = {
            "ulp under": np.nextafter(avail, np.inf),
            "on": avail,
            "ulp over": np.nextafter(avail, 0.0),
        }[leftover]
    config = ReadjustConfig(budget_epsilon=float(epsilon))
    return caps, priority, float(budget), config


class TestWaterFillLockstep:
    """Algorithm 4 with its elementwise passes compiled == NumPy throughout,
    in every bit of every cap."""

    @staticmethod
    def _both_hosts(caps, priority, budget, config):
        """The caps each implementation decides, checked fresh and equal."""
        inputs = _bits((caps, priority))
        outputs = []
        for host in (contextlib.nullcontext, no_native):
            with host():
                out = readjust(caps, priority, budget, 165.0, False, config)
            assert not np.shares_memory(out, caps)
            outputs.append(out)
        assert _bits((caps, priority)) == inputs  # Neither input is touched.
        assert _bits(outputs[0]) == _bits(outputs[1])
        return outputs[0]

    @given(case=waterfill_cases())
    @settings(max_examples=300, deadline=None)
    def test_readjust(self, case):
        caps, priority, budget, config = case
        out = self._both_hosts(caps, priority, budget, config)
        np.testing.assert_array_equal(out[~priority], caps[~priority])

    def test_no_high_priority_unit(self):
        caps = np.array([80.0, -0.0, 90.25])
        for budget in (400.0, 100.0):  # Either branch: nobody to serve.
            out = self._both_hosts(
                caps, np.zeros(3, dtype=bool), budget, ReadjustConfig()
            )
            assert _bits(out) == _bits(caps)

    def test_every_high_unit_saturated_never_starts(self):
        """At the maximum, within the tolerance of it, and exactly on the
        ceiling: none is under it, so no pass runs and no bit moves."""
        caps = np.array([165.0, 165.0 - 1e-13, _CEILING, 40.0])
        priority = np.array([True, True, True, False])
        out = self._both_hosts(caps, priority, 900.0, ReadjustConfig())
        assert _bits(out) == _bits(caps)

    def test_one_ulp_under_the_ceiling_is_topped_up(self):
        under = np.nextafter(_CEILING, 0.0)
        caps = np.array([under, _CEILING, 100.0])
        out = self._both_hosts(
            caps, np.ones(3, dtype=bool), 500.0, ReadjustConfig()
        )
        assert out.tolist() == [165.0, _CEILING, 165.0]

    def test_one_pass_exhausts_the_budget(self):
        """Nobody is clipped, so the first pass hands out everything (to
        rounding) and the loop ends on the budget, both units active."""
        caps = np.array([50.0, 100.0, 120.0])
        priority = np.array([True, True, False])
        out = self._both_hosts(caps, priority, 300.0, ReadjustConfig())
        assert out[0] - 50.0 == pytest.approx(20.0)  # 2 : 1, inverse cap.
        assert out[1] - 100.0 == pytest.approx(10.0)
        assert out.sum() == pytest.approx(300.0)

    def test_units_retire_pass_by_pass(self):
        """The first pass clips two units at the maximum and leaves 9 W;
        later passes must recycle it, down to under the epsilon."""
        caps = np.array([164.0, 160.0, 150.0, 100.0, 50.0])
        budget = float(caps.sum()) + 60.0
        out = self._both_hosts(
            caps, np.ones(5, dtype=bool), budget, ReadjustConfig()
        )
        assert out[0] == out[1] == 165.0
        assert (out[2:] < 165.0).all() and (out[2:] > caps[2:]).all()
        assert 0.0 <= budget - out.sum() <= 1.0

    def test_fill_runs_dry_with_budget_to_spare(self):
        """Every active unit fills up in the first pass: the loop ends on
        an empty active set, with most of the leftover unassigned."""
        caps = np.array([160.0, 150.0, 40.0])
        priority = np.array([True, True, False])
        out = self._both_hosts(caps, priority, 1000.0, ReadjustConfig())
        assert out.tolist() == [165.0, 165.0, 40.0]

    def test_caps_at_and_under_the_weight_floor(self):
        """``1 / max(cap, 1e-9)``: a cap of zero, of either sign, or under
        the floor weighs as the floor does, and outweighs a real cap by
        eleven orders of magnitude."""
        caps = np.array([0.0, -0.0, 5e-10, 1e-9, 100.0])
        out = self._both_hosts(
            caps, np.ones(5, dtype=bool), 140.0, ReadjustConfig()
        )
        assert out[0] == out[1] == pytest.approx(10.0)
        assert out[2] == pytest.approx(10.0) and out[3] == pytest.approx(10.0)
        assert 0.0 < out[4] - 100.0 < 1e-6


def _views(clean):
    """``clean`` again as arrays a kernel must not be handed as they are:
    ``(label, array)`` with the same values (callers pass quarter-watt
    values, which float32 holds exactly)."""
    strided = np.repeat(clean, 2, axis=-1)[..., ::2]
    readonly = clean.copy()
    readonly.flags.writeable = False
    return [
        ("strided", strided),
        ("negative stride", np.ascontiguousarray(clean[..., ::-1])[..., ::-1]),
        ("read-only", readonly),
        ("float32", clean.astype(np.float32)),
        ("list", clean.tolist()),
    ]


class TestCallSiteInputs:
    """Each of the five Python call sites hands C only what it checked:
    anything else is copied first or raises ``ValueError`` -- on a host
    with the kernels and on one without, alike."""

    N = 37

    @pytest.fixture
    def arrays(self):
        rng = np.random.default_rng(8)
        # Multiples of 1/4 W: exact in float32 too.
        return _grid(rng, 40.0, 160.0, self.N), _grid(rng, 60.0, 165.0, self.N)

    @_hosts
    def test_mimd_step(self, host, arrays):
        power, caps = arrays
        budget = float(caps.sum()) + 50.0

        def run(power, caps):
            rng = np.random.default_rng(2)
            out = mimd_step(
                power, caps, budget, 165.0, 30.0, StatelessConfig(), rng
            )
            return _bits((tuple(out), rng.bit_generator.state))

        with host():
            want = run(power, caps)
            for (label, p), (_, c) in zip(_views(power), _views(caps)):
                assert run(p, caps) == want, f"power {label}"
                assert run(power, c) == want, f"caps {label}"
            for bad in (power[:-1], power[None, :], np.float64(100.0)):
                with pytest.raises(ValueError, match="shape"):
                    run(bad, caps)
                with pytest.raises(ValueError, match="shape"):
                    run(power, bad)

    @_hosts
    @pytest.mark.parametrize("validate", [True, False])
    def test_kalman_update(self, host, validate, arrays):
        first, second = arrays

        def run(z):
            bank = KalmanBank(self.N)
            bank.update(first)
            return _bits(
                (bank.update(z, validate=validate), bank.variance.copy())
            )

        with host():
            want = run(second)
            for label, z in _views(second):
                assert run(z) == want, label
            for bad in (second[:-1], second[:1], second[None, :], 100.0):
                with pytest.raises(ValueError, match="shape"):
                    run(bad)

    @_hosts
    def test_priority_update(self, host):
        rng = np.random.default_rng(4)
        window = _grid(rng, 40.0, 160.0, 20 * self.N).reshape(20, self.N)

        def run(history):
            module = PriorityModule(self.N)
            return _bits((module.update(history, 1.0), module.high_freq.copy()))

        with host():
            want = run(window)
            views = _views(window) + [("fortran", np.asfortranarray(window))]
            for label, history in views:
                assert run(history) == want, label
            for bad in (window[:, :-1], window[0], window[None]):
                with pytest.raises(ValueError, match="history shape"):
                    run(bad)

    @_hosts
    def test_readjust(self, host, arrays):
        _, caps = arrays
        high = np.arange(self.N) % 3 != 0
        budget = float(caps.sum()) + 200.0

        def run(caps, priority):
            out = readjust(
                caps, priority, budget, 165.0, False, ReadjustConfig()
            )
            return _bits(out)

        readonly = high.copy()
        readonly.flags.writeable = False
        truths = [
            ("strided", np.repeat(high, 2)[::2]),
            ("read-only", readonly),
            ("int64", high.astype(np.int64)),
            ("float64", high * 0.5),
            ("bytes other than 1", (high * 254).astype(np.uint8).view(bool)),
            ("list", high.tolist()),
        ]
        with host():
            want = run(caps, high)
            assert want != _bits(caps)  # The water-fill did run.
            for label, c in _views(caps):
                assert run(c, high) == want, f"caps {label}"
            for label, p in truths:
                assert run(caps, p) == want, f"priority {label}"
            for bad in (caps[:-1], caps[None, :], np.float64(100.0)):
                with pytest.raises(ValueError, match="shape"):
                    run(bad, high)
            for bad in (high[:-1], high[None, :], np.True_):
                with pytest.raises(ValueError, match="shape"):
                    run(caps, bad)

    @_hosts
    def test_manager_step(self, host, arrays):
        power, _ = arrays

        def run(reading):
            manager = _bound(DPSManager(DPSConfig()), self.N, 5)
            for _ in range(6):
                manager.step(power)
            return _bits(manager.step(reading))

        with host():
            want = run(power)
            for label, reading in _views(power):
                assert run(reading) == want, label
            for bad in (power[:-1], power[None, :]):
                with pytest.raises(ValueError, match="shape"):
                    run(bad)
            with pytest.raises(ValueError, match="non-finite"):
                run(np.where(np.arange(self.N) == 3, np.nan, power))

    @_hosts
    def test_restored_flags_are_one_byte_truths(self, host):
        """A document's flag arrays may hold any nonzero byte for True
        (``np.frombuffer(..., dtype=bool)`` keeps what it is given); the
        classify kernel computes on the bytes, so restore stores 1."""
        raw = np.frombuffer(bytes([0, 1, 2, 255]), dtype=bool)
        rising = np.linspace(90.0, 130.0, 6)[:, None] * np.ones((1, 4))
        with host():
            module = PriorityModule(4)
            module.restore({"high_freq": raw, "priority": raw})
            assert module.high_freq.view(np.uint8).tolist() == [0, 1, 1, 1]
            assert module.priority.view(np.uint8).tolist() == [0, 1, 1, 1]
            # Flagged units keep flag and priority whatever the slope;
            # the unflagged one rises to high priority.
            assert module.update(rising, 1.0).tolist() == [True] * 4
            assert module.high_freq.tolist() == [False, True, True, True]

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda manager: pickle.loads(pickle.dumps(manager))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copied_manager_owns_its_arrays(self, clone):
        """The bank and the classifier keep raw addresses of their state
        arrays; a copy must take its own, not write into the original."""
        readings = _powers(9, self.N, 30)
        reference = _steps(_bound(DPSManager(DPSConfig()), self.N, 5), readings)

        original = _bound(DPSManager(DPSConfig()), self.N, 5)
        head = _steps(original, readings[:10])
        twin = clone(original)
        frozen = _bits(original.snapshot())
        tail = _steps(twin, readings[10:])
        assert _bits(original.snapshot()) == frozen
        _assert_runs_equal(head + tail, reference)
        _assert_runs_equal(head + _steps(original, readings[10:]), reference)


class TestConcurrentManagers:
    def test_four_managers_in_threads_equal_their_serial_runs(self):
        """ctypes drops the GIL for the length of a kernel call, and a
        caller may step managers from threads of its own: nothing in the
        kernels or their loader may be shared between managers."""
        n, steps, workers = 2_000, 40, 4

        def run(seed):
            manager = _bound(DPSManager(DPSConfig()), n, seed)
            return _bits(_steps(manager, _powers(seed, n, steps)))

        serial = [run(seed) for seed in range(workers)]
        threaded = [None] * workers

        def work(seed):
            threaded[seed] = run(seed)

        threads = [
            threading.Thread(target=work, args=(seed,), daemon=True)
            for seed in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


class TestNoNative:
    """The decision core on a host without a C compiler."""

    @pytest.mark.parametrize("n", [1, 7, 16])
    @pytest.mark.usefixtures("no_native")
    def test_dps_run_bit_identical_without_kernel(self, n):
        powers = _powers(n, n, 40)

        def factory():
            return _bound(DPSManager(DPSConfig()), n, 3)

        assert _native.peak_features() is None
        fallback = _run_manager(factory, powers)
        with pytest.MonkeyPatch.context() as mp:
            # Lift the fixture's patch for the kernel-on run.
            mp.setattr(_native, "_cache", {"resolved": False, "fn": None})
            _needs_kernel()
            kernel = _run_manager(factory, powers)
        _assert_runs_equal(fallback, kernel)

    def test_missing_compiler_falls_back(self, monkeypatch, tmp_path):
        """``CC`` naming a missing binary: no kernel, same decisions."""
        n = 7
        powers = _powers(11, n, 30)

        def factory():
            return _bound(DPSManager(DPSConfig()), n, 3)

        with_kernel = _run_manager(factory, powers)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(
            _native, "_cache", {"resolved": False, "fn": None}
        )
        assert _native.peak_features() is None
        _assert_runs_equal(_run_manager(factory, powers), with_kernel)


def _script(path, body):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return path


class TestCompilerResolution:
    """``CC`` is split like a command line, and a fallback says why."""

    @staticmethod
    def _run():
        return _run_manager(
            lambda: _bound(DPSManager(DPSConfig()), 7, 3), _powers(11, 7, 30)
        )

    @pytest.fixture
    def reference(self):
        """A short DPS run as this host decides it before any patching."""
        return self._run()

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path, reference):
        """An unresolved loader with an empty cache directory."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(
            _native, "_cache", {"resolved": False, "fn": None}
        )
        return tmp_path

    def _decides_as(self, reference):
        _assert_runs_equal(self._run(), reference)

    def test_cc_with_a_wrapper_and_flags_builds(
        self, monkeypatch, fresh, reference
    ):
        """``CC="ccache gcc"`` / ``CC="gcc -m64"``: first word resolved on
        PATH, the rest passed on -- not the whole string looked up."""
        try:
            real = _native._find_compiler()[0]
        except _native._Unavailable as why:
            pytest.skip(str(why))
        log = fresh / "calls"
        _script(fresh / "bin" / "ccwrap", f'echo "$@" >> "{log}"\nexec "$@"\n')
        monkeypatch.setenv(
            "PATH", f"{fresh / 'bin'}{os.pathsep}{os.environ['PATH']}"
        )
        monkeypatch.setenv("CC", f"ccwrap {real} -DREPRO_TEST_FLAG=1")
        assert _native._find_compiler() == [
            str(fresh / "bin" / "ccwrap"), real, "-DREPRO_TEST_FLAG=1",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled, detail = _native.status()
        assert compiled, detail
        assert detail.startswith(str(fresh / "cache"))
        assert f"{real} -DREPRO_TEST_FLAG=1 -O3" in log.read_text()
        self._decides_as(reference)

    @pytest.mark.parametrize("cc", ["no-such-cc", "no-such-cc -O2", "'", " "])
    def test_cc_naming_nothing_falls_back_silently(
        self, monkeypatch, fresh, reference, cc
    ):
        monkeypatch.setenv("CC", cc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Nothing to fix: no warning.
            compiled, detail = _native.status()
        if cc.strip():
            assert (compiled, detail) == (
                False, f"CC={cc!r} names no executable on PATH",
            )
            assert _native.kernels() is None
        self._decides_as(reference)

    def test_failed_build_warns_once_with_the_compilers_words(
        self, monkeypatch, fresh, reference
    ):
        cc = _script(
            fresh / "failcc",
            'echo "failcc: line one" >&2\n'
            'echo "failcc: cannot compile this" >&2\nexit 1\n',
        )
        monkeypatch.setenv("CC", str(cc))
        with pytest.warns(RuntimeWarning, match="cannot compile this") as seen:
            compiled, detail = _native.status()
            assert _native.kernels() is None
            self._decides_as(reference)
        assert len(seen) == 1
        assert not compiled
        assert f"{cc} exited 1" in detail
        assert "cannot compile this" in detail
        assert not list((fresh / "cache").glob("*"))  # No debris either.

    def test_switched_off_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with no_native():
                assert _native.status() == (False, "switched off")
                assert _native.kernels() is None
                assert _native.peak_features() is None


class TestKernelCache:
    def test_cache_tag_names_the_host_cpu(self, monkeypatch, tmp_path):
        """The shared object is ``-march=native`` code: a cache directory
        carried to another CPU must miss, not load foreign instructions."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        source = b"void f(void) {}"
        avx2 = "x86_64\nmodel name : A\nflags : avx2"
        paths = {
            _native._lib_path(source, fingerprint)
            for fingerprint in (
                avx2,
                "x86_64\nmodel name : A\nflags : sse2",
                "aarch64\nFeatures : asimd",
            )
        }
        assert len(paths) == 3
        assert {path.parent for path in paths} == {tmp_path}
        assert _native._lib_path(source, avx2) in paths  # deterministic
        assert _native._lib_path(source + b" ", avx2) not in paths

    def test_host_fingerprint_is_stable_and_names_the_machine(self):
        fingerprint = _native._host_fingerprint()
        assert fingerprint == _native._host_fingerprint()
        assert fingerprint.splitlines()[0] == platform.machine()
