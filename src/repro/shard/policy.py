"""Budget redistribution across shards — DPS's readjust shape, one level up.

:func:`redistribute` is the arbiter's decision step.  It is deliberately
the same three-branch shape :mod:`repro.core.readjust` applies to units:

* **restore** — when every shard's committed power sits comfortably
  below its proportional base lease, all leases return to base (the
  analog of :func:`repro.core.readjust.restore`);
* **hand out** — otherwise, live shards are drawn down toward their
  committed power plus a headroom allowance, and the reclaimed watts are
  water-filled to high-priority shards below their ceilings with
  inverse-per-unit-lease weights (smaller per-unit leases fill first,
  exactly the readjusting module's fairness);
* **equalize** — with no leftover to hand out, high-priority shards are
  equalized per unit, the analog of the readjust equalization branch.

The function is **pure and deterministic**: same inputs, same leases —
no RNG, no wall clock, no hidden state.  Frozen shards (dark, or holding
an expired lease) are never touched: their entry in ``lease_w`` is the
power the arbiter must assume they hold (its envelope's held view), and
the function fits every live shard around that.

Two properties hold for every return value (the Hypothesis suite in
``tests/shard/test_policy.py`` drives them):

1. ``sum(leases) <= budget_w`` (within float tolerance);
2. a live shard's lease never falls below its *protected* power —
   ``clip(committed, floor, old_lease)`` — so the arbiter only reclaims
   headroom the shard has proven unused.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.shard.lease import ArbiterConfig

__all__ = ["Redistribution", "redistribute"]

#: Relative budget tolerance (matches the manager-level invariant).
_REL_TOL = 1e-9
#: Water-fill rounds before giving up on distributing a residue.
_MAX_FILL_ROUNDS = 64


class Redistribution(NamedTuple):
    """Outcome of one arbiter decision.

    Attributes:
        leases_w: new per-shard leases (frozen shards keep their input
            value untouched).
        granted_w: per-shard lease increase over the input (0 where the
            lease shrank or the shard is frozen) — the arbiter guard's
            shaveable grants.
        reclaimed_w: total watts drawn down from live shards.
        restored: True when the restore branch fired.
    """

    leases_w: np.ndarray
    granted_w: np.ndarray
    reclaimed_w: float
    restored: bool


def redistribute(
    lease_w: np.ndarray,
    committed_w: np.ndarray,
    floor_w: np.ndarray,
    ceiling_w: np.ndarray,
    n_units: np.ndarray,
    priority: np.ndarray,
    frozen: np.ndarray,
    budget_w: float,
    config: ArbiterConfig | None = None,
) -> Redistribution:
    """Redistribute the global budget across shards.

    Args:
        lease_w: current lease per shard; for frozen shards, the power
            the arbiter must assume held (its envelope's held view).
        committed_w: steady committed power per shard from the latest
            summary (NaN where no summary exists — such shards must be
            flagged frozen).
        floor_w: hard per-shard lease floor (``n_units * min_cap_w``).
        ceiling_w: per-shard lease ceiling (``n_units * max_cap_w``).
        n_units: units per shard.
        priority: True for shards running high-priority demand.
        frozen: True for shards the arbiter must not touch (dark, or
            self-frozen on an expired lease).
        budget_w: the global budget.
        config: thresholds (defaults if omitted).

    Returns:
        The new leases and their accounting.

    Raises:
        ValueError: inconsistent shapes, a live shard with NaN committed
            power, or an infeasible input (frozen holds plus live
            protected power exceed the budget — the caller's invariant
            already failed upstream).
    """
    cfg = config or ArbiterConfig()
    lease = np.asarray(lease_w, dtype=np.float64)
    committed = np.asarray(committed_w, dtype=np.float64)
    floor = np.asarray(floor_w, dtype=np.float64)
    ceiling = np.asarray(ceiling_w, dtype=np.float64)
    units = np.asarray(n_units, dtype=np.float64)
    prio = np.asarray(priority, dtype=bool)
    dark = np.asarray(frozen, dtype=bool)
    n = lease.shape[0]
    for name, arr in (
        ("committed_w", committed),
        ("floor_w", floor),
        ("ceiling_w", ceiling),
        ("n_units", units),
        ("priority", prio),
        ("frozen", dark),
    ):
        if arr.shape != (n,):
            raise ValueError(f"{name} shape {arr.shape} != ({n},)")
    if n == 0:
        raise ValueError("redistribute needs at least one shard")
    live = ~dark
    if np.any(live & ~np.isfinite(committed)):
        raise ValueError(
            "live shards "
            f"{np.flatnonzero(live & ~np.isfinite(committed)).tolist()} "
            "have no committed power — flag them frozen"
        )

    tol = budget_w * _REL_TOL + 1e-9
    # Protected power: what a live shard has proven it uses.  Reclaiming
    # below it would cut a shard off mid-commitment, so it is the lower
    # bound for every draw-down and shave below.
    protected = np.where(
        live, np.clip(committed, floor, np.maximum(lease, floor)), lease
    )
    if float(protected.sum()) > budget_w + tol:
        raise ValueError(
            f"infeasible: frozen holds plus live protected power "
            f"{float(protected.sum()):.3f} W exceed budget {budget_w:.3f} W"
        )

    # Restore branch: every shard comfortably below its proportional base.
    base = budget_w * units / float(units.sum())
    if not np.any(dark) and np.all(
        committed <= cfg.restore_threshold * base + tol
    ):
        new = np.clip(base, floor, ceiling)
        new = _fit(new, protected, live, budget_w, tol)
        return _package(new, lease, live, restored=True)

    # Draw live shards toward committed power plus the headroom
    # allowance; a lease never grows in this step and never drops below
    # the protected power.
    target = np.where(
        live,
        np.maximum(
            protected,
            np.minimum(lease, committed * (1.0 + cfg.headroom_fraction)),
        ),
        lease,
    )

    leftover = budget_w - float(target.sum())
    if leftover > cfg.budget_epsilon:
        target = _water_fill(
            target, ceiling, units, live, prio, leftover, cfg
        )
    elif int(np.count_nonzero(live & prio)) >= 2:
        # Equalize the per-unit lease across high-priority shards (the
        # readjust equalization branch): redistribute their own total.
        sel = live & prio
        per_unit = float(target[sel].sum()) / float(units[sel].sum())
        target = target.copy()
        target[sel] = np.clip(per_unit * units[sel], protected[sel], ceiling[sel])

    new = _fit(target, protected, live, budget_w, tol)
    return _package(new, lease, live, restored=False)


def _water_fill(
    target: np.ndarray,
    ceiling: np.ndarray,
    units: np.ndarray,
    live: np.ndarray,
    prio: np.ndarray,
    leftover: float,
    cfg: ArbiterConfig,
) -> np.ndarray:
    """Hand leftover watts to eligible shards, smaller per-unit lease first.

    Weights are ``n_units**2 / lease`` — proportional allocation of
    per-unit watts by inverse per-unit lease, the shard-level analog of
    the readjusting module's inverse-cap weighting.  High-priority
    shards fill first; remaining watts spill to every live shard.
    """
    new = target.copy()
    for eligible_mask in (live & prio, live):
        for _ in range(_MAX_FILL_ROUNDS):
            eligible = eligible_mask & (new < ceiling - 1e-12)
            if leftover <= cfg.budget_epsilon or not np.any(eligible):
                break
            weights = np.where(
                eligible, units**2 / np.maximum(new, 1e-9), 0.0
            )
            share = leftover * weights / float(weights.sum())
            # A frozen lease an ulp over its ceiling must not shrink.
            add = np.where(live, np.minimum(share, ceiling - new), 0.0)
            new = new + add
            leftover -= float(add.sum())
        if leftover <= cfg.budget_epsilon:
            break
    return new


def _fit(
    new: np.ndarray,
    protected: np.ndarray,
    live: np.ndarray,
    budget_w: float,
    tol: float,
) -> np.ndarray:
    """Shave live leases proportionally to their slack above protected
    power until the total fits the budget (feasibility was validated)."""
    total = float(new.sum())
    if total <= budget_w + tol:
        return new
    over = total - budget_w
    slack = np.where(live, new - protected, 0.0)
    total_slack = float(slack.sum())
    if total_slack <= 0.0:
        return new  # Already at protected everywhere; input was feasible.
    return new - slack * min(1.0, over / total_slack)


def _package(
    new: np.ndarray, lease: np.ndarray, live: np.ndarray, restored: bool
) -> Redistribution:
    granted = np.where(live, np.maximum(new - lease, 0.0), 0.0)
    reclaimed = float(np.where(live, np.maximum(lease - new, 0.0), 0.0).sum())
    return Redistribution(
        leases_w=new,
        granted_w=granted,
        reclaimed_w=reclaimed,
        restored=restored,
    )
