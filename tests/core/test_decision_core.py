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
"""

import contextlib
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import _native, priority
from repro.core.config import (
    DPSConfig,
    PriorityConfig,
    StatelessConfig,
)
from repro.core.dps import DPSManager
from repro.core.history import HistoryBuffer
from repro.core.peaks import (
    _count_walk,
    count_prominent_peaks_multi,
    fill_features,
    peak_prominences,
)
from repro.core.priority import PriorityModule
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
    )
    @settings(max_examples=60, deadline=None)
    def test_flags_bit_identical_over_random_runs(
        self, host, n, seed, steps, pp_threshold, prominence, std_threshold
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
                pair.update(_phase_history(rng, h, n, config))

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
