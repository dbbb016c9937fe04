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

The random-order increase loop runs as one array pass (:func:`_increase`),
bit-exact against the per-unit walk kept in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


def _mimd_scratch(scratch: dict, n: int) -> dict:
    """(Re)size the preallocated work arrays of the pass.

    ``mimd_step`` runs every control step; at cluster scale its float64
    temporaries are megabytes of fresh mmap traffic per call, so managers
    pass a persistent dict the work arrays are cached in across steps.
    """
    if scratch.get("n") != n:
        scratch["n"] = n
        for key in ("f1", "f2", "g1", "g2"):
            scratch[key] = np.empty(n, dtype=np.float64)
        for key in ("b1", "b2", "b3"):
            scratch[key] = np.empty(n, dtype=bool)
        scratch["chain"] = np.empty(n + 1, dtype=np.float64)
    return scratch


def _increase(
    caps: np.ndarray,
    want: np.ndarray,
    order: np.ndarray,
    avail: float,
    max_cap_w: float,
    inc_factor: float,
    changed: np.ndarray,
    scratch: dict,
) -> float:
    """Random-order increase pass (Alg. 1 second loop); mutates caps/changed.

    A sequential walk over ``order`` grants each wanting unit its full growth
    until the remaining budget no longer covers one, which then receives the
    remainder and exhausts the budget.  ``np.subtract.accumulate`` reproduces
    that walk's running remainder with the same left-to-right rounding (units
    the walk skips subtract exactly 0.0), so the admission set, the one
    partial grant, and the leftover are all bit-exact against it.
    """
    desired = np.multiply(caps, inc_factor, out=scratch["f1"])
    np.minimum(desired, max_cap_w, out=desired)
    desired -= caps
    np.maximum(desired, 0.0, out=desired)
    desired *= want  # d * 0.0 == 0.0, d * 1.0 == d: exact mask-out.

    d = np.take(desired, order, out=scratch["g1"])
    chain = scratch["chain"]
    chain[0] = avail
    chain[1:] = d
    np.subtract.accumulate(chain, out=chain)
    # chain[k] is now the budget remaining before the k-th unit in `order`
    # (under full grants); once it crosses zero it only decreases, so there
    # is exactly one boundary unit.  A unit with budget left gets
    # min(demand, remaining) — its full demand or the boundary partial
    # grant — and a closed unit gets exactly 0.0 via the bool multiply
    # (min(d, before) can be negative past the boundary; x * 0.0 is at
    # worst -0.0, which is > 0-false and addition-neutral).
    before = chain[:-1]
    open_ = np.greater(before, 0.0, out=scratch["b1"])
    grant = np.minimum(d, before, out=scratch["g2"])
    grant *= open_

    granted = np.greater(grant, 0.0, out=scratch["b2"])
    caps[order] += grant
    # Scatter-store through the permutation, then one whole-array OR —
    # same result as `changed[order] |= granted` without its extra gather.
    scattered = scratch["b3"]
    scattered[order] = granted
    np.logical_or(changed, scattered, out=changed)
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
    scratch: dict | None = None,
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
        scratch: optional dict the pass caches its work arrays
            in across calls (per-step scratch reuse on the control path);
            pass the same dict every call.

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
    scratch = _mimd_scratch(scratch if scratch is not None else {}, n)
    changed = np.zeros(n, dtype=bool)

    # --- First loop: decrease caps of under-consuming units (vectorized).
    # Whole-array compute plus a masked copyto: elementwise identical to
    # fancy-indexed updates, without the gather/scatter cost of boolean
    # indexing on the unit axis.
    dec_mask = np.multiply(caps, config.dec_threshold, out=scratch["f1"])
    dec_mask = np.less(power, dec_mask, out=scratch["b1"])
    if np.any(dec_mask):
        lowered = np.multiply(caps, config.dec_factor, out=scratch["f2"])
        np.maximum(power, lowered, out=lowered)
        np.clip(lowered, min_cap_w, max_cap_w, out=lowered)
        np.not_equal(lowered, caps, out=scratch["b2"])
        np.logical_and(dec_mask, scratch["b2"], out=changed)
        np.copyto(caps, lowered, where=dec_mask)

    # --- Second loop: increase caps of capped-out units in random order.
    avail = budget_w - float(caps.sum())
    if avail > 0.0:
        want = np.multiply(caps, config.inc_threshold, out=scratch["f2"])
        want = np.greater(power, want, out=scratch["b1"])
        order = rng.permutation(n)
        avail = _increase(
            caps,
            want,
            order,
            avail,
            max_cap_w,
            config.inc_factor,
            changed,
            scratch,
        )

    return MimdResult(caps=caps, changed=changed, avail_budget_w=max(avail, 0.0))
