"""MIMD stateless allocation core (paper Algorithm 1).

This is the multiplicative-increase / multiplicative-decrease controller
inspired by SLURM's power-management plugin.  It is used in two places:

* standalone, as the :class:`repro.core.slurm.SlurmManager` baseline, and
* as the first stage of the DPS pipeline, producing the temporary cap
  allocation that the priority and cap-readjusting modules then refine.

Faithfulness notes (documented deviations from the paper's pseudocode):

* Algorithm 1 line 12 reads ``tempt <- min(cap[u] * inc_percentile,
  avail_budget)`` and then *assigns* ``cap[u] <- tempt``, which would set a
  unit's cap to the leftover budget rather than grow it by at most the
  leftover.  We implement the evident intent: the cap grows multiplicatively,
  but the *increase amount* is limited by the remaining budget (and the
  per-unit maximum).
* Caps are additionally clamped to ``[min_cap_w, max_cap_w]`` — the RAPL
  constraint range — which the pseudocode leaves implicit.

Both loops run behind one dispatch inside :func:`mimd_step`: the compiled
per-unit walks of :mod:`repro.core._native` when the host has a C compiler,
otherwise the whole-array passes below (:func:`_decrease`,
:func:`_increase`).  The two return the same bits, and both are held
against the per-unit walks kept in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import _native
from repro.core.config import StatelessConfig

__all__ = ["MimdResult", "mimd_step"]


class MimdResult(NamedTuple):
    """Outcome of one MIMD pass.

    Attributes:
        caps: new per-unit caps (W), shape ``(n_units,)``.
        changed: boolean mask of units whose cap this pass modified
            (``set_flag`` in the paper's pseudocode).
        avail_budget_w: budget left unassigned after the pass (W).
    """

    caps: np.ndarray
    changed: np.ndarray
    avail_budget_w: float


def _decrease(
    power: np.ndarray,
    caps: np.ndarray,
    changed: np.ndarray,
    min_cap_w: float,
    max_cap_w: float,
    config: StatelessConfig,
) -> None:
    """Decrease pass (Alg. 1 first loop); mutates caps/changed.

    Whole-array compute plus a masked copyto: elementwise identical to
    fancy-indexed updates, without the gather/scatter cost of boolean
    indexing on the unit axis.  The max and the clip are spelled as
    selects because ``np.maximum``/``np.clip`` do not promise which zero a
    ``-0.0``/``0.0`` tie returns; here, as in Python's
    ``min(max(x, lo), hi)``, the first argument keeps a tie.
    """
    dec_mask = power < caps * config.dec_threshold
    if np.any(dec_mask):
        lowered = caps * config.dec_factor
        lowered = np.where(lowered > power, lowered, power)
        lowered = np.where(lowered < min_cap_w, min_cap_w, lowered)
        lowered = np.where(lowered > max_cap_w, max_cap_w, lowered)
        np.logical_and(dec_mask, lowered != caps, out=changed)
        np.copyto(caps, lowered, where=dec_mask)


def _increase(
    caps: np.ndarray,
    want: np.ndarray,
    order: np.ndarray,
    avail: float,
    max_cap_w: float,
    inc_factor: float,
    changed: np.ndarray,
) -> float:
    """Random-order increase pass (Alg. 1 second loop); mutates caps/changed.

    A sequential walk over ``order`` grants each wanting unit its full growth
    until the remaining budget no longer covers one, which then receives the
    remainder and exhausts the budget.  ``np.subtract.accumulate`` reproduces
    that walk's running remainder with the same left-to-right rounding (units
    the walk skips subtract exactly 0.0), so the admission set, the one
    partial grant, and the leftover are all bit-exact against it.
    """
    desired = np.minimum(caps * inc_factor, max_cap_w)
    desired -= caps
    np.maximum(desired, 0.0, out=desired)
    desired *= want  # d * 0.0 == 0.0, d * 1.0 == d: exact mask-out.

    d = desired[order]
    chain = np.empty(d.shape[0] + 1)
    chain[0] = avail
    chain[1:] = d
    np.subtract.accumulate(chain, out=chain)
    # chain[k] is now the budget remaining before the k-th unit in `order`
    # (under full grants); once it crosses zero it only decreases, so there
    # is exactly one boundary unit.  A unit with budget left gets
    # min(demand, remaining) -- its full demand or the boundary partial
    # grant -- and past the boundary the minimum is no longer positive.
    grant = np.minimum(d, chain[:-1])
    granted = grant > 0.0
    # Only granted units are written, as in the walk: a skipped unit keeps
    # its bits (cap + 0.0 would turn a -0.0 cap into +0.0).
    hit = order[granted]
    caps[hit] += grant[granted]
    changed[hit] = True
    # After a partial grant the walk's remainder is exactly 0.0 while the
    # chain keeps subtracting skipped demands; both clamp to 0 at return.
    return float(chain[-1])


def mimd_step(
    power_w: np.ndarray,
    caps_w: np.ndarray,
    budget_w: float,
    max_cap_w: float,
    min_cap_w: float,
    config: StatelessConfig,
    rng: np.random.Generator,
) -> MimdResult:
    """Run one multiplicative-increase / multiplicative-decrease pass.

    First loop: every unit drawing less than ``dec_threshold`` of its cap has
    its cap lowered to ``max(power, cap * dec_factor)`` — the budget it was
    not using is reclaimed.  Second loop, in random order so no unit has a
    standing advantage: every unit drawing more than ``inc_threshold`` of its
    cap grows its cap by up to ``(inc_factor - 1) * cap``, limited by the
    unassigned budget and the per-unit maximum.

    Args:
        power_w: current per-unit power readings (W).
        caps_w: current per-unit caps (W); not modified.
        budget_w: cluster-wide budget (W).
        max_cap_w: per-unit maximum cap (TDP).
        min_cap_w: per-unit minimum cap.
        config: MIMD thresholds and factors.
        rng: randomness source for the increase-loop ordering; one
            permutation is drawn from it, only when there is leftover
            budget.

    Returns:
        :class:`MimdResult` with the new caps (a fresh array).
    """
    power = np.asarray(power_w, dtype=np.float64)
    caps = np.asarray(caps_w, dtype=np.float64).copy()
    if power.shape != caps.shape or power.ndim != 1:
        raise ValueError(
            f"power shape {power.shape} and caps shape {caps.shape} must be "
            "equal 1-D shapes"
        )
    n = caps.shape[0]
    changed = np.zeros(n, dtype=bool)
    kernels = _native.kernels()

    # --- First loop: decrease caps of under-consuming units.
    if kernels is None:
        _decrease(power, caps, changed, min_cap_w, max_cap_w, config)
    else:
        # The kernels read and write through raw addresses: caps, changed
        # and (below) order are this call's own C-contiguous arrays of n
        # elements; power is the caller's, n float64 by the check above.
        power = np.ascontiguousarray(power)
        at = (power.ctypes.data, caps.ctypes.data, changed.ctypes.data)
        kernels.mimd_decrease(
            *at,
            n,
            config.dec_threshold,
            config.dec_factor,
            float(min_cap_w),
            float(max_cap_w),
        )

    # --- Second loop: increase caps of capped-out units in random order.
    avail = budget_w - float(caps.sum())
    if avail > 0.0:
        order = rng.permutation(n)
        if kernels is None:
            want = power > caps * config.inc_threshold
            avail = _increase(
                caps, want, order, avail, max_cap_w, config.inc_factor, changed
            )
        else:
            # C long is np.intp wherever the kernels load.
            order = np.ascontiguousarray(order, dtype=np.intp)
            avail = kernels.mimd_increase(
                *at,
                order.ctypes.data,
                n,
                avail,
                config.inc_threshold,
                config.inc_factor,
                float(max_cap_w),
            )

    return MimdResult(caps=caps, changed=changed, avail_budget_w=max(avail, 0.0))
