"""Prominent-peak detection: unit cases, reference cross-check, properties."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peaks import (
    _count_walk,
    count_prominent_peaks,
    count_prominent_peaks_multi,
    fill_features,
    peak_prominences,
)
from tests.core.oracles import no_native


def _reference_count(x: np.ndarray, min_prominence: float) -> int:
    """Count via the full prominence computation (the readable reference)."""
    _, prom = peak_prominences(x)
    return int(np.count_nonzero(prom >= min_prominence))


class TestPeakProminences:
    def test_single_triangle(self):
        x = np.array([0.0, 10.0, 0.0])
        idx, prom = peak_prominences(x)
        assert idx.tolist() == [1]
        assert prom[0] == pytest.approx(10.0)

    def test_two_peaks_with_valley(self):
        x = np.array([0.0, 50.0, 20.0, 40.0, 0.0])
        idx, prom = peak_prominences(x)
        assert idx.tolist() == [1, 3]
        # Peak 1 dominates: prominence to the global floor.
        assert prom[0] == pytest.approx(50.0)
        # Peak 3 is bounded by the valley at 20 toward the higher peak.
        assert prom[1] == pytest.approx(20.0)

    def test_monotone_series_has_no_peaks(self):
        idx, prom = peak_prominences(np.arange(10.0))
        assert idx.size == 0 and prom.size == 0

    def test_flat_series_has_no_peaks(self):
        idx, _ = peak_prominences(np.full(10, 5.0))
        assert idx.size == 0

    def test_plateau_counts_once(self):
        x = np.array([0.0, 5.0, 5.0, 5.0, 0.0])
        idx, prom = peak_prominences(x)
        assert idx.tolist() == [1]
        assert prom[0] == pytest.approx(5.0)

    def test_plateau_then_rise_not_a_peak(self):
        # The plateau at 5 is followed by a climb to 8; its right valley
        # floor equals its height, so prominence is 0 and it is dropped.
        x = np.array([0.0, 5.0, 5.0, 8.0, 0.0])
        idx, prom = peak_prominences(x)
        assert idx.tolist() == [3]

    def test_endpoints_never_peaks(self):
        x = np.array([10.0, 0.0, 10.0])
        idx, _ = peak_prominences(x)
        assert idx.size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            peak_prominences(np.zeros((3, 3)))


class TestCountProminentPeaks:
    def test_threshold_filters(self):
        x = np.array([0.0, 30.0, 10.0, 15.0, 0.0])
        assert count_prominent_peaks(x, 20.0) == 1  # Only the 30 peak.
        assert count_prominent_peaks(x, 4.0) == 2

    def test_square_wave_counts_every_burst(self):
        x = np.array([0.0, 100.0, 0.0, 100.0, 0.0, 100.0, 0.0])
        assert count_prominent_peaks(x, 50.0) == 3

    def test_rejects_nonpositive_prominence(self):
        with pytest.raises(ValueError, match="min_prominence"):
            count_prominent_peaks(np.zeros(5), 0.0)

    def test_short_series(self):
        assert count_prominent_peaks(np.array([1.0, 2.0]), 1.0) == 0
        assert count_prominent_peaks(np.array([5.0]), 1.0) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fast_walk_matches_reference(self, seed):
        """The hot-path walk and the full prominence computation agree."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 160.0, size=rng.integers(3, 40))
        threshold = float(rng.uniform(1.0, 80.0))
        assert count_prominent_peaks(x, threshold) == _reference_count(
            x, threshold
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_count_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 160.0, size=25)
        counts = [count_prominent_peaks(x, th) for th in (5.0, 20.0, 60.0)]
        assert counts[0] >= counts[1] >= counts[2]


class TestCountMulti:
    def test_matches_per_column(self, rng):
        history = rng.uniform(40, 160, size=(20, 6))
        multi = count_prominent_peaks_multi(history, 25.0)
        for u in range(6):
            assert multi[u] == count_prominent_peaks(history[:, u], 25.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            count_prominent_peaks_multi(np.zeros(5), 1.0)

    def test_rejects_nonpositive_prominence(self):
        with pytest.raises(ValueError, match="min_prominence"):
            count_prominent_peaks_multi(np.zeros((5, 2)), -1.0)

    @pytest.mark.parametrize(
        "host", [contextlib.nullcontext, no_native], ids=["kernel", "walk"]
    )
    def test_rejects_out_the_kernel_cannot_write(self, host):
        """A narrower or strided ``out`` must never reach the C kernel
        (which writes C longs through the raw pointer), and the fallback
        rejects it the same way."""
        history = np.zeros((5, 4))
        with host():
            with pytest.raises(ValueError, match="got int32"):
                count_prominent_peaks_multi(
                    history, 1.0, out=np.zeros(4, dtype=np.int32)
                )
            with pytest.raises(ValueError, match=r"strides \(16,\)"):
                count_prominent_peaks_multi(
                    history, 1.0, out=np.zeros(8, dtype=np.intp)[::2]
                )
            with pytest.raises(ValueError, match=r"got int64 \(3,\)"):
                count_prominent_peaks_multi(
                    history, 1.0, out=np.zeros(3, dtype=np.intp)
                )
            with pytest.raises(ValueError, match="got float32"):
                fill_features(
                    history, 1.0, None, np.zeros(4, dtype=np.float32)
                )

    @pytest.mark.parametrize(
        "host", [contextlib.nullcontext, no_native], ids=["kernel", "walk"]
    )
    def test_rejects_flags_the_kernel_cannot_read(self, host):
        """The kernel reads the verdict context's flags one byte per unit
        through the raw pointer: a wider dtype, a strided view (it would
        read the wrong units) or a wrong length never reaches it, nor does
        a context without the std its skip rule compares."""
        history = np.zeros((5, 4))
        pp = np.zeros(4, dtype=np.intp)
        std = np.zeros(4)

        def fill(flagged, std_out=std):
            fill_features(
                history, 1.0, pp, std_out,
                flagged=flagged, pp_threshold=1, std_threshold=12.0,
            )

        with host():
            with pytest.raises(ValueError, match="flagged must be .* got int64"):
                fill(np.zeros(4, dtype=np.int64))
            with pytest.raises(ValueError, match=r"flagged .* strides \(2,\)"):
                fill(np.zeros(8, dtype=bool)[::2])
            with pytest.raises(ValueError, match=r"flagged .* got bool \(3,\)"):
                fill(np.zeros(3, dtype=bool))
            with pytest.raises(ValueError, match="needs std_out"):
                fill(np.zeros(4, dtype=bool), std_out=None)
            fill(np.zeros(4, dtype=bool))

    def test_oscillating_column_flagged_high(self):
        t = np.arange(20)
        osc = np.where(t % 4 < 2, 150.0, 60.0)
        flat = np.full(20, 100.0)
        history = np.stack([osc, flat], axis=1)
        counts = count_prominent_peaks_multi(history, 30.0)
        assert counts[0] >= 3
        assert counts[1] == 0


_hosts = pytest.mark.parametrize(
    "host", [contextlib.nullcontext, no_native], ids=["kernel", "walk"]
)


def _features(history, prominence, **verdict):
    """``(pp, std)`` from ``fill_features`` on fresh output arrays."""
    pp = np.empty(history.shape[1], dtype=np.intp)
    std = np.empty(history.shape[1])
    fill_features(history, prominence, pp, std, **verdict)
    return pp, std


class TestFillFeaturesProminence:
    """The kernel's counter and the walk agree only for a positive
    threshold, so the public dispatch refuses anything else itself."""

    @_hosts
    @pytest.mark.parametrize("prominence", [0.0, -0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_and_nan(self, host, prominence):
        history = np.array([[0.0], [10.0], [10.0], [0.0]])
        pp = np.zeros(1, dtype=np.intp)
        with host():
            with pytest.raises(ValueError, match="min_prominence must be > 0"):
                fill_features(history, prominence, pp, None)
            with pytest.raises(ValueError, match="min_prominence must be > 0"):
                fill_features(history, prominence, None, np.zeros(1))
        assert pp[0] == 0  # Nothing was written.

    @_hosts
    def test_smallest_positive_threshold_counts_every_peak(self, host):
        history = np.array([[0.0], [1.0], [1.0], [0.5], [1.0], [0.0]])
        with host():
            pp, _ = _features(history, 5e-324)
        assert pp[0] == 2


#: Unevenly spaced, so differences hit a threshold exactly (4, 5), miss it
#: by one grid step either way, and tie in height wherever they can.
_GRID_VALUES = (0.0, 2.0, 5.0, 6.0, 10.0)
_GRID_PROMINENCES = (1.0, 4.0, 5.0, 7.0)


def _grid_columns(length, values):
    """Every sequence of ``length`` samples over ``values``, one a column."""
    columns = np.array(list(itertools.product(values, repeat=length)))
    return np.ascontiguousarray(columns.T)


class TestHysteresisCounter:
    """The kernel counts by a one-pass rule (``_peaks_kernel.c``), not by
    the walk that defines the count: the two, and the full prominence
    computation, must agree on every input, ties above all."""

    @pytest.mark.parametrize(
        "length, values",
        [(length, _GRID_VALUES) for length in range(1, 8)]
        + [(8, _GRID_VALUES[:4])],
        ids=lambda value: str(value) if isinstance(value, int) else "",
    )
    def test_every_short_sequence(self, length, values):
        """Exhaustive: kernel == walk == prominences, exact and capped."""
        history = _grid_columns(length, values)
        columns = history.T.tolist()
        n = len(columns)
        prominences = [peak_prominences(column)[1] for column in history.T]
        unflagged = np.zeros(n, dtype=bool)
        for prominence in _GRID_PROMINENCES:
            exact = count_prominent_peaks_multi(history, prominence)
            assert exact.tolist() == [
                _count_walk(column, prominence) for column in columns
            ]
            assert exact.tolist() == [
                np.count_nonzero(prom >= prominence) for prom in prominences
            ]
            for cap in (1, 2):
                capped, _ = _features(
                    history, prominence,
                    flagged=unflagged, pp_threshold=cap, std_threshold=1.0,
                )
                assert capped.tolist() == [
                    _count_walk(column, prominence, cap) for column in columns
                ]
                np.testing.assert_array_equal(
                    capped, np.minimum(exact, cap + 1)
                )

    @_hosts
    @pytest.mark.parametrize(
        "series, prominence, count",
        [
            # Two maxima of one height over a valley too shallow to split
            # them: both stand 10 above the floor on either side.  (A
            # zigzag counter that confirms swings >= P sees one.)
            ([0, 10, 5, 10, 0], 6.0, 2),
            ([0, 10, 5, 10, 0], 4.0, 2),
            ([0, 10, 5, 10, 5, 10, 0], 6.0, 3),
            ([0, 10, 5, 10, 5, 10, 0], 4.0, 3),
            # A plateau counts once, at its left edge, and again when the
            # height is re-attained from below.
            ([0, 10, 10, 5, 10, 0], 6.0, 2),
            ([0, 10, 10, 10, 0], 6.0, 1),
            ([0, 10, 5, 10, 10, 0], 6.0, 2),
            # A lower maximum inside the fall shares the valley: no count.
            ([0, 10, 5, 8, 0], 6.0, 1),
            ([0, 8, 5, 10, 0], 6.0, 1),
            ([0, 8, 5, 10, 0], 3.0, 2),
            # A tie on the last sample never counts, and does not lend the
            # earlier maximum a right-hand valley it does not have.
            ([0, 10, 5, 10], 6.0, 0),
            ([0, 10, 5, 10], 4.0, 1),
            ([0, 10, 0, 10], 6.0, 1),
            ([10, 0, 10], 6.0, 0),
            # The threshold itself is prominent; one ulp over it is not.
            ([0, 6, 0], 6.0, 1),
            ([0, 6, 0], float(np.nextafter(6.0, 7.0)), 0),
            ([0, 6, 1], 6.0, 0),
            ([1, 6, 0], 6.0, 0),
        ],
    )
    def test_pinned_ties(self, host, series, prominence, count):
        column = np.array(series, dtype=np.float64)
        with host():
            pp, _ = _features(column[:, None], prominence)
        assert pp[0] == count
        assert _count_walk(column.tolist(), prominence) == count
        assert _reference_count(column, prominence) == count

    @given(
        seed=st.integers(0, 2**32 - 1),
        prominence=st.sampled_from([0.25, 1.0, 5.0, 20.0, 33.3]),
        grid=st.sampled_from([None, 0.25, 10.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_columns(self, seed, prominence, grid):
        """Continuous, quarter-watt and 10 W values (the coarser the grid,
        the more ties), every history length the kernel takes."""
        rng = np.random.default_rng(seed)
        h, n = int(rng.integers(1, 65)), int(rng.integers(1, 200))
        history = rng.uniform(0.0, 165.0, (h, n))
        if grid is not None:
            history = np.round(history / grid) * grid
        kernel = count_prominent_peaks_multi(history, prominence)
        for u, column in enumerate(history.T):
            assert kernel[u] == _count_walk(column.tolist(), prominence)
            assert kernel[u] == _reference_count(column, prominence)


def _classed_history(rng, h, walked):
    """A verdict-context input with a known outcome per column.

    ``walked`` marks the columns the kernel must count (unflagged, wide
    swings on the 5 W grid, ties frequent).  The others alternate between
    the two skips: quiet (range under the prominence: reads 0) and flagged
    with a std over the threshold (a 120 W swing every sample: reads
    ``pp_threshold``).

    Returns:
        ``(history, flagged)``.
    """
    n = walked.shape[0]
    skipped = np.flatnonzero(~walked)
    quiet, noisy = skipped[::2], skipped[1::2]
    # Each column holds a drawn level for 1-8 samples: from a peak every
    # other sample down to a single step.
    levels = np.round(rng.uniform(40.0, 160.0, (h, n)) / 5.0) * 5.0
    held = np.arange(h)[:, None] // rng.integers(1, 9, n)[None, :]
    history = np.take_along_axis(levels, held, axis=0)
    history[:, quiet] = 100.0 + np.round(rng.uniform(0.0, 4.0, (h, quiet.size)))
    swing = np.where(np.arange(h) % 2 == 0, 40.0, 160.0)[:, None]
    history[:, noisy] = swing + 5.0 * rng.integers(0, 2, (h, noisy.size))
    flagged = np.zeros(n, dtype=bool)
    flagged[noisy] = True
    return history, flagged


#: Which columns of the bank are left for the counter, by name.
_WALKED = {
    "none": lambda n: np.zeros(n, dtype=bool),
    "one": lambda n: np.arange(n) == n // 2,
    "ragged": lambda n: np.arange(n) % 3 == 1,
    "all": lambda n: np.ones(n, dtype=bool),
}


class TestLanePacking:
    """The kernel packs the columns that survive both skips side by side,
    a vector's worth at a time within each block of 128: every count must
    land in its own column whatever the pack holds."""

    @pytest.mark.parametrize("h", [1, 2, 3, 20, 64, 65])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 257])
    @pytest.mark.parametrize("pattern", list(_WALKED))
    def test_bank_shapes(self, n, h, pattern):
        """Block edges, packs short by every amount, h up to the kernel's
        limit and one past it (65 takes the Python walk)."""
        rng = np.random.default_rng(1000 * n + h)
        walked = _WALKED[pattern](n)
        history, flagged = _classed_history(rng, h, walked)
        verdict = dict(flagged=flagged, pp_threshold=1, std_threshold=12.0)
        exact, std = _features(history, 20.0)
        lazy, lazy_std = _features(history, 20.0, **verdict)
        with no_native():
            walk_exact, walk_std = _features(history, 20.0)
            walk_lazy, _ = _features(history, 20.0, **verdict)
        np.testing.assert_array_equal(exact, walk_exact)
        np.testing.assert_array_equal(lazy, walk_lazy)
        assert std.tobytes() == walk_std.tobytes() == lazy_std.tobytes()
        columns = history.T.tolist()
        assert exact.tolist() == [_count_walk(col, 20.0) for col in columns]
        if h >= 2:  # One sample has no std to be noisy by.
            skipped = flagged & (std >= 12.0)
            np.testing.assert_array_equal(skipped, flagged)
            np.testing.assert_array_equal(
                lazy, np.where(skipped, 1, np.minimum(exact, 2))
            )

    @pytest.mark.parametrize("pp_threshold", [1, 2, 3])
    def test_every_pack_mixes_skip_outcomes(self, pp_threshold):
        """Flagged-and-noisy, quiet and counted columns in turn, so no
        pack holds neighbours: skipped columns keep their neutral values
        and no count is stored one column off."""
        rng = np.random.default_rng(7)
        n = 1000
        walked = np.arange(n) % 3 == 2
        history, flagged = _classed_history(rng, 20, walked)
        verdict = dict(
            flagged=flagged, pp_threshold=pp_threshold, std_threshold=12.0
        )
        lazy, std = _features(history, 20.0, **verdict)
        with no_native():
            walk_lazy, walk_std = _features(history, 20.0, **verdict)
        np.testing.assert_array_equal(lazy, walk_lazy)
        assert std.tobytes() == walk_std.tobytes()
        assert (lazy[flagged] == pp_threshold).all()
        quiet = ~walked & ~flagged
        assert (lazy[quiet] == 0).all()
        counted = [
            _count_walk(col, 20.0, pp_threshold)
            for col in history[:, walked].T.tolist()
        ]
        assert lazy[walked].tolist() == counted
        assert len(set(counted)) > 1  # Not all saturated, not all zero.
