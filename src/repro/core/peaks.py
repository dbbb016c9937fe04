"""Prominent-peak detection for power histories (paper Algorithm 2, [32]).

The priority module counts *prominent peaks* in each unit's recent power
history to detect high-frequency power phases.  The paper cites Palshikar's
simple time-series peak detectors; we implement the topographic-prominence
variant from scratch (no SciPy dependency in the hot path): a local maximum's
prominence is its height above the higher of the two valley floors separating
it from the nearest higher samples on each side.

This runs once per unit per control step, behind one dispatch
(:func:`fill_features`): the compiled kernel of :mod:`repro.core._native`
— one fused, cache-blocked pass over every unit — when the host has a C
compiler, otherwise the per-column native-float walk (:func:`_count_walk`)
plus a row-sequential std in the kernel's summation order.  The walk is the
definition.  The kernel is a *different algorithm* — a one-pass hysteresis
counter run over packed vector lanes, stated and argued in the header of
``_peaks_kernel.c`` — that returns the same bits; the test suite holds the
two against each other (exhaustively on short sequences) and against the
full prominence computation (:func:`peak_prominences`), kept in NumPy as
the readable reference.  There is deliberately no NumPy batch tier in
between: at 100k x 20 it measured 25x off the kernel, and at the paper's 20
units slower than the walk (docs/algorithms.md).  A *single* short history
is walked in plain Python — ~12x faster than slice-based NumPy on 20
samples (DESIGN.md §8).
"""

from __future__ import annotations

import numpy as np

from repro.core import _native

__all__ = [
    "peak_prominences",
    "count_prominent_peaks",
    "count_prominent_peaks_multi",
    "fill_features",
]


def _candidate_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of local maxima: strictly above the left neighbour, not below
    the right one (a flat-topped plateau counts once, at its left edge;
    plateaus that then rise are eliminated later by zero prominence)."""
    if x.shape[0] < 3:
        return np.empty(0, dtype=np.intp)
    interior = x[1:-1]
    mask = (interior > x[:-2]) & (interior >= x[2:])
    return np.flatnonzero(mask) + 1


def _base(height: float, side: np.ndarray) -> float:
    """Valley floor between a peak and the nearest strictly-higher sample.

    Args:
        height: the peak's value.
        side: samples walking away from the peak (nearest first).

    Returns:
        The minimum over the walked range, or ``height`` if the walk is
        empty (peak at the array edge).
    """
    if side.size == 0:
        return height
    higher = side > height
    if higher.any():
        stop = int(np.argmax(higher))
        if stop == 0:
            return height
        return float(side[:stop].min())
    return float(side.min())


def peak_prominences(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Find local maxima of ``x`` and their topographic prominences.

    Args:
        x: 1-D series (power history of one unit).

    Returns:
        ``(indices, prominences)`` — both 1-D arrays of equal length.
        Prominence of a peak is ``height - max(left_base, right_base)`` where
        each base is the minimum of the series between the peak and the
        nearest strictly higher sample on that side (or the series edge).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D series, got shape {x.shape}")
    idx = _candidate_maxima(x)
    if idx.size == 0:
        return idx, np.empty(0, dtype=np.float64)

    prominences = np.empty(idx.size, dtype=np.float64)
    for k, i in enumerate(idx):
        height = float(x[i])
        left_base = _base(height, x[i - 1 :: -1])
        right_base = _base(height, x[i + 1 :])
        prominences[k] = height - max(left_base, right_base)
    keep = prominences > 0.0
    return idx[keep], prominences[keep]


def _count_walk(
    xs: list[float], min_prominence: float, cap: int | None = None
) -> int:
    """Count prominent peaks of a native-float list (the hot path).

    Semantics match :func:`peak_prominences`: a candidate is strictly above
    its left neighbour and not below its right one; each side's valley floor
    is the minimum up to (excluding) the nearest strictly-higher sample.
    With ``cap`` the walk stops once the count exceeds it and returns
    ``min(count, cap + 1)`` (the verdict context of :func:`fill_features`).
    """
    n = len(xs)
    if cap is None:
        cap = n  # n samples have fewer than n peaks: never stops.
    count = 0
    for i in range(1, n - 1):
        h = xs[i]
        if not (h > xs[i - 1] and h >= xs[i + 1]):
            continue
        left_base = h
        j = i - 1
        while j >= 0 and xs[j] <= h:
            if xs[j] < left_base:
                left_base = xs[j]
            j -= 1
        if h - left_base < min_prominence:
            continue
        right_base = h
        j = i + 1
        while j < n and xs[j] <= h:
            if xs[j] < right_base:
                right_base = xs[j]
            j += 1
        if h - (left_base if left_base > right_base else right_base) >= (
            min_prominence
        ):
            count += 1
            if count > cap:
                break
    return count


def count_prominent_peaks(x: np.ndarray, min_prominence: float) -> int:
    """Number of local maxima of ``x`` with prominence >= ``min_prominence``.

    This is ``count_prominent_peaks`` from paper Algorithm 2.
    """
    if min_prominence <= 0:
        raise ValueError(f"min_prominence must be > 0, got {min_prominence}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D series, got shape {x.shape}")
    return _count_walk(x.tolist(), float(min_prominence))


def fill_features(
    history: np.ndarray,
    min_prominence: float,
    pp_out: np.ndarray | None,
    std_out: np.ndarray | None,
    flagged: np.ndarray | None = None,
    pp_threshold: int = 0,
    std_threshold: float = 0.0,
) -> None:
    """Fill per-unit prominent-peak counts and population stds.

    The one place that chooses between the compiled kernel and its Python
    fallback; the two are bit-identical, so the choice never shows.

    ``flagged`` turns on the *verdict context*: the caller is Algorithm 2,
    which only ever asks ``pp > pp_threshold`` of an unflagged unit and
    ``pp < pp_threshold and std < std_threshold`` of a flagged one, so the
    conjunction is evaluated cheap-first.  A flagged unit whose std is at
    or over ``std_threshold`` can neither set nor clear: it is not walked
    and ``pp_out`` reads the neutral ``pp_threshold``.  Every other unit
    reads ``min(count, pp_threshold + 1)`` (the walk stops there), which
    answers both comparisons exactly as the count does.  ``std_out`` is
    exact either way; without ``flagged`` so is ``pp_out``.

    Args:
        history: float64 ``(history_len, n_units)``, oldest sample first,
            every sample finite (:meth:`PowerManager.step` enforces it;
            on an infinity or NaN kernel and fallback may disagree).
        min_prominence: prominence threshold in watts; zero, negative or
            NaN raises ValueError (the kernel's counter and the walk agree
            only for a positive threshold).
        pp_out / std_out: C-contiguous ``np.intp`` / ``float64`` arrays of
            shape ``(n_units,)`` to fill (anything else raises ValueError:
            the kernel writes through raw pointers), or None to skip.
        flagged: the units' high-frequency flags as they stand before this
            step, a C-contiguous ``bool`` array of shape ``(n_units,)``
            (same ValueError; needs ``std_out``), or None for exact counts.
        pp_threshold / std_threshold: Algorithm 2's thresholds; read only
            with ``flagged``.
    """
    if not min_prominence > 0:
        raise ValueError(f"min_prominence must be > 0, got {min_prominence}")
    h, n_units = history.shape
    for name, arr, dtype in (
        ("pp_out", pp_out, np.intp),
        ("std_out", std_out, np.float64),
        ("flagged", flagged, np.bool_),
    ):
        if arr is not None and not (
            arr.shape == (n_units,)
            and arr.dtype == dtype
            and arr.flags.c_contiguous
        ):
            raise ValueError(
                f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
                f"of shape ({n_units},), got {arr.dtype.name} {arr.shape} "
                f"with strides {arr.strides}"
            )
    if flagged is not None and std_out is None:
        raise ValueError("a verdict context (flagged) needs std_out")
    # The kernel takes a C long; flooring a fractional threshold moves
    # neither comparison.
    pp_threshold = int(pp_threshold)
    kernel = _native.peak_features()
    if kernel is not None and 1 <= h <= _native.MAX_HISTORY:
        kernel(
            history,
            min_prominence,
            pp_out,
            std_out,
            flagged,
            pp_threshold,
            std_threshold,
        )
        return
    if std_out is not None:
        # Rows accumulated in order, exactly as _peaks_kernel.c does
        # (np.std sums a single-column history pairwise: an ulp away).
        total = np.zeros(n_units)
        for row in history:
            total += row
        mean = total / h
        var = np.zeros(n_units)
        for row in history:
            dev = row - mean
            var += dev * dev
        np.sqrt(var / h, out=std_out)
    if pp_out is None:
        return
    if flagged is None:
        skip, cap = [False] * n_units, None
    else:
        skip = (flagged & (std_out >= std_threshold)).tolist()
        cap = pp_threshold
    for u, col in enumerate(history.T.tolist()):
        pp_out[u] = (
            pp_threshold if skip[u] else _count_walk(col, min_prominence, cap)
        )


def count_prominent_peaks_multi(
    history: np.ndarray,
    min_prominence: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Prominent-peak counts for a bank of unit histories.

    Args:
        history: shape ``(history_len, n_units)``; column ``u`` is unit
            ``u``'s power history, oldest sample first.
        min_prominence: prominence threshold in watts, > 0
            (:func:`fill_features` raises ValueError otherwise).
        out: optional preallocated C-contiguous ``np.intp`` array of shape
            ``(n_units,)`` the counts are written into.

    Returns:
        Integer array of shape ``(n_units,)`` (``out`` when provided).
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 2:
        raise ValueError(f"expected 2-D history, got shape {history.shape}")
    if out is None:
        out = np.empty(history.shape[1], dtype=np.intp)
    fill_features(history, float(min_prominence), out, None)
    return out
