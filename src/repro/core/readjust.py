"""Cap-readjusting module: restore and readjust (paper Algorithms 3 and 4).

The readjusting module runs after the stateless module and turns the
priorities produced by :class:`~repro.core.priority.PriorityModule` into the
final cap decision:

* **Restore** (Algorithm 3): if *no* unit is drawing meaningful power
  (every reading is below ``restore_threshold`` of the constant cap), all
  caps snap back to the constant cap so any unit's incoming work immediately
  has headroom.
* **Readjust** (Algorithm 4): otherwise, leftover budget is handed to the
  high-priority units, weighted *inversely* to their current caps (lower-
  capped rising units need more budget to reach peak power and would
  otherwise be penalized hardest); when the budget is exhausted the caps of
  all high-priority units are equalized, which both repairs any unfairness
  introduced by the stateless module's random increase order and gives the
  constant-allocation lower bound.

Faithfulness note: Algorithm 4's first branch computes
``ratio[u] = budget_high / cap[u]`` and then ``cap[u] <- min(max,
avail * ratio[u] / total)`` — *replacing* the cap with a share of the
leftover, which would shrink caps whenever the leftover is small.  Matching
the paper's prose ("allocates this unassigned budget to all the
high-priority units"), we *add* the inverse-cap-weighted share instead, with
a short water-fill loop so budget clipped off at the per-unit maximum is
recycled to the remaining high-priority units.

The water-fill runs behind one dispatch inside :func:`readjust`: its
elementwise passes compiled (:mod:`repro.core._native`) around two sums
NumPy keeps when the host has a C compiler, otherwise the NumPy passes of
:func:`_water_fill`.  The two return the same bits
(``tests/core/test_decision_core.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import _native
from repro.core.config import ReadjustConfig

__all__ = ["RestoreResult", "restore", "readjust"]

#: Caps within this many watts of the per-unit maximum count as saturated
#: for the water-fill: any grant they could still absorb is numerical
#: noise, so they are excluded from the active set up front (the same
#: tolerance the in-loop refilter applies — a unit 1e-13 below TDP must
#: not cost a full pass for a ~0 W grant).
SATURATION_EPS_W = 1e-12


class RestoreResult(NamedTuple):
    """Outcome of the restore pass.

    Attributes:
        caps: per-unit caps after the pass (fresh array).
        restored: True if all caps were reset to the constant cap.
    """

    caps: np.ndarray
    restored: bool


def restore(
    power_w: np.ndarray,
    caps_w: np.ndarray,
    initial_cap_w: float,
    config: ReadjustConfig,
) -> RestoreResult:
    """Snap all caps back to the constant cap when the system is quiet.

    Args:
        power_w: per-unit power readings (W).
        caps_w: per-unit caps after the stateless module (not modified).
        initial_cap_w: the constant cap (budget / n_units).
        config: holds ``restore_threshold``.

    Returns:
        :class:`RestoreResult`; when not restored, ``caps`` is an unmodified
        copy of the input.
    """
    power = np.asarray(power_w, dtype=np.float64)
    caps = np.asarray(caps_w, dtype=np.float64).copy()
    if power.shape != caps.shape or power.ndim != 1:
        raise ValueError(
            f"power shape {power.shape} and caps shape {caps.shape} must be "
            "equal 1-D shapes"
        )
    if initial_cap_w <= 0:
        raise ValueError(f"initial_cap_w must be > 0, got {initial_cap_w}")

    if np.any(power > initial_cap_w * config.restore_threshold):
        return RestoreResult(caps=caps, restored=False)
    caps.fill(initial_cap_w)
    return RestoreResult(caps=caps, restored=True)


def _water_fill(
    caps: np.ndarray,
    high: np.ndarray,
    avail: float,
    max_cap_w: float,
    budget_epsilon: float,
) -> None:
    """Grant ``avail`` to the units ``high``, inverse-cap weighted; mutates
    caps.  Anything clipped at the per-unit maximum is recycled.

    The water-fill iterates on a compact copy of the active caps — one
    gather up front, one scatter per retired unit batch — instead of
    re-gathering ``caps[active]`` several times per pass; the element
    order and arithmetic are unchanged, so the grants are identical to
    filling in place.
    """
    gathered = caps[high]
    keep = gathered < max_cap_w - SATURATION_EPS_W
    active = high[keep]
    c = gathered[keep]
    remaining = avail
    # Each pass either exhausts the budget or saturates at least one
    # unit, so this terminates in at most len(active) passes.
    while remaining > budget_epsilon and active.size > 0:
        weights = 1.0 / np.maximum(c, 1e-9)
        weights /= weights.sum()
        grant = np.minimum(remaining * weights, max_cap_w - c)
        c += grant
        remaining -= float(grant.sum())
        keep = c < max_cap_w - SATURATION_EPS_W
        if not keep.all():
            done = ~keep
            caps[active[done]] = c[done]
            active = active[keep]
            c = c[keep]
    caps[active] = c


def _water_fill_compiled(
    kernels: _native.Kernels,
    caps: np.ndarray,
    prio: np.ndarray,
    avail: float,
    max_cap_w: float,
    budget_epsilon: float,
) -> None:
    """:func:`_water_fill` with its elementwise passes compiled and both
    sums left to NumPy (same reduction, same bits); mutates caps.

    The kernels read and write through raw addresses: caps is the
    caller's own C-contiguous float64 copy, prio is made contiguous here,
    and the three scratch arrays are allocated here, all ``n`` long.
    """
    n = caps.shape[0]
    prio = np.ascontiguousarray(prio)
    unit = np.empty(n, dtype=np.intp)  # C long is np.intp wherever loaded.
    c = np.empty(n)
    w = np.empty(n)
    caps_at, unit_at, c_at, w_at = (
        arr.ctypes.data for arr in (caps, unit, c, w)
    )
    max_cap_w = float(max_cap_w)
    ceiling = max_cap_w - SATURATION_EPS_W
    k = kernels.fill_select(
        prio.ctypes.data, caps_at, n, ceiling, unit_at, c_at
    )
    remaining = avail
    while remaining > budget_epsilon and k > 0:
        kernels.fill_weights(c_at, w_at, k)
        wsum = float(w[:k].sum())
        kernels.fill_grant(c_at, w_at, k, remaining, wsum, max_cap_w)
        remaining -= float(w[:k].sum())  # w holds the grants now.
        # Writes every active cap back, so there is no scatter at the end.
        k = kernels.fill_retire(caps_at, unit_at, c_at, k, ceiling)


def readjust(
    caps_w: np.ndarray,
    priority: np.ndarray,
    budget_w: float,
    max_cap_w: float,
    restored: bool,
    config: ReadjustConfig,
) -> np.ndarray:
    """Hand leftover budget to high-priority units, or equalize their caps.

    Args:
        caps_w: per-unit caps after the stateless and restore passes.
        priority: boolean high-priority mask, shape ``(n_units,)``.
        budget_w: cluster-wide budget (W).
        max_cap_w: per-unit maximum cap (TDP).
        restored: flag from :func:`restore`; when True this pass is a no-op
            (Algorithm 4 line 3).
        config: holds ``budget_epsilon``.

    Returns:
        Final per-unit caps (fresh array).
    """
    caps = np.asarray(caps_w, dtype=np.float64).copy()
    prio = np.asarray(priority, dtype=bool)
    if caps.shape != prio.shape or caps.ndim != 1:
        raise ValueError(
            f"caps shape {caps.shape} and priority shape {prio.shape} must "
            "be equal 1-D shapes"
        )
    if restored:
        return caps

    avail = budget_w - float(caps.sum())
    if avail > config.budget_epsilon:
        # Distribute the leftover to high-priority units, inverse-cap
        # weighted; recycle anything clipped at the per-unit maximum.
        kernels = _native.kernels()
        if kernels is None:
            high = np.flatnonzero(prio)
            _water_fill(caps, high, avail, max_cap_w, config.budget_epsilon)
        else:
            _water_fill_compiled(
                kernels, caps, prio, avail, max_cap_w, config.budget_epsilon
            )
    else:
        # Budget exhausted: equalize the caps of all high-priority units.
        high = np.flatnonzero(prio)
        if high.size > 0:
            caps[high] = min(float(caps[high].mean()), max_cap_w)

    return caps
