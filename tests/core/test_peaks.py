"""Prominent-peak detection: unit cases, reference cross-check, properties."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peaks import (
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
