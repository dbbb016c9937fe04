"""Budget enforcement at the actuation boundary.

:class:`BudgetGuard` is the last gate a cap vector passes before it is
dispatched or actuated.  It asks the :class:`~repro.safety.envelope.
BudgetEnvelope` for the worst-case committed power of the coming interval
and, when the *steady-state* commitment (what the cluster will hold once
this cycle's dispatch lands) exceeds the budget, walks a graded
degradation ladder over the reachable units:

1. **Shave grants** — undo (part of) the readjusting module's most
   recent grants: the newest watts handed out are the cheapest to take
   back, and pre-grant caps already satisfied the budget.
2. **Scale down** — proportional reduction of every reachable cap above
   its per-unit floor (the same shape as the manager-level rescale, but
   aware of unreachable units' held power).
3. **Emergency drop** — forced safe mode: every reachable unit falls to
   the constant cap that fits the remaining budget, or to the floor when
   even that does not fit (the overshoot is then bounded by hardware
   limits and reported, never silent).

After the ladder the guard *paces raises*: a unit whose new cap is above
its held value counts at the max of both until the dispatch is
acknowledged, so when those transients together would push worst-case
committed power past the budget the raises are proportionally deferred
(``budget_raise_deferred``) — the decrease side of a redistribution
lands this cycle, the increase side follows one cycle later, and the
union of old and new caps never exceeds the budget.  What remains is
held power the controller cannot touch (cold start, a just-quarantined
node's old caps): that excursion is reported by a ``budget_overshoot``
event and by construction lasts at most until the next dispatch is
acknowledged.

Each rung emits a structured ``budget_*`` telemetry event carrying the
computed overshoot.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.core.managers import manager_stack
from repro.safety.envelope import BudgetEnvelope, CommittedPower
from repro.telemetry.log import ResilienceEventLog

__all__ = ["BudgetGuard", "GuardDecision", "last_readjust_grants"]


def last_readjust_grants(manager: object) -> np.ndarray | None:
    """The most recent readjust grant vector of a manager stack, if any.

    The first member of :func:`~repro.core.managers.manager_stack` that
    exposes ``last_grants_w`` answers; None when no member does.
    """
    for node in manager_stack(manager):
        if hasattr(node, "last_grants_w"):
            grants = node.last_grants_w
            if grants is None:
                return None
            return np.asarray(grants, dtype=np.float64)
    return None


class GuardDecision(NamedTuple):
    """Outcome of one guard pass.

    Attributes:
        caps_w: the (possibly degraded) caps to dispatch.
        rung: ladder rung taken — None, ``"budget_shave_grants"``,
            ``"budget_scale_down"``, or ``"budget_emergency_drop"``.
        overshoot_w: steady-state overshoot (W) before enforcement
            (0.0 when no rung was taken).
        committed: the envelope's committed-power breakdown under the
            caps actually being dispatched (post-ladder) — candidate
            caps a rung rejected never reach hardware and are not
            committed power.
    """

    caps_w: np.ndarray
    rung: str | None
    overshoot_w: float
    committed: CommittedPower


class BudgetGuard:
    """Enforces the cluster budget on worst-case committed power.

    Args:
        envelope: the cap-view ledger this guard reads.
        min_cap_w: per-unit cap floor rungs 2 and 3 respect.
        events: the run's event log for ``budget_*`` emissions; without
            one the guard keeps its own, stamped with the number of
            cycles it has gated.
        tol_w: absolute slack (W) below which an overshoot is treated as
            float noise, not an excursion.  The default covers the wire
            quantization of a thousand units.
        dry_run: account and emit ``budget_overshoot`` events but never
            modify caps (no ladder rung is ever taken).
    """

    def __init__(
        self,
        envelope: BudgetEnvelope,
        min_cap_w: float = 0.0,
        events: ResilienceEventLog | None = None,
        tol_w: float = 1e-6,
        dry_run: bool = False,
    ) -> None:
        if min_cap_w < 0:
            raise ValueError(f"min_cap_w must be >= 0, got {min_cap_w}")
        if tol_w <= 0:
            raise ValueError(f"tol_w must be > 0, got {tol_w}")
        self.envelope = envelope
        self.min_cap_w = float(min_cap_w)
        self.events = events if events is not None else ResilienceEventLog(
            lambda: self.cycles
        )
        self.tol_w = float(tol_w)
        self.dry_run = dry_run
        #: Cycles gated so far.
        self.cycles = 0
        #: Cycles whose worst-case committed power exceeded the budget.
        self.excursions = 0
        #: Ladder rungs taken, by event kind.
        self.rungs_taken: dict[str, int] = {}
        #: Cycles in which cap raises were deferred to pace worst case.
        self.raises_deferred = 0

    def enforce(
        self,
        caps_w: np.ndarray,
        unreachable: np.ndarray | None = None,
        assume_tdp: bool = False,
        pending: Sequence[np.ndarray] = (),
        grants_w: np.ndarray | None = None,
    ) -> GuardDecision:
        """Gate one cycle's candidate caps against the budget.

        Args:
            caps_w: the manager's candidate caps for this cycle.
            unreachable: mask of units no dispatch can reach this cycle.
            assume_tdp: count unreachable units at TDP (pessimistic).
            pending: in-flight actuator command vectors.
            grants_w: the readjusting module's most recent grant vector
                (rung 1 input); rung 1 is skipped when omitted.

        Returns:
            The caps to dispatch plus the rung/overshoot accounting.
        """
        self.cycles += 1
        envelope = self.envelope
        budget = envelope.budget_w
        caps = np.asarray(caps_w, dtype=np.float64).copy()
        committed = envelope.assess(
            caps, unreachable=unreachable, assume_tdp=assume_tdp,
            pending=pending,
        )
        if unreachable is None:
            unreachable = np.zeros(envelope.n_units, dtype=bool)
        else:
            unreachable = np.asarray(unreachable, dtype=bool)

        reach = ~unreachable
        held_w = float(committed.steady_w[unreachable].sum())
        target = budget - held_w
        over = float(caps[reach].sum()) - target
        rung: str | None = None
        if not self.dry_run and over > self.tol_w and reach.any():
            rung = self._degrade(caps, reach, over, target, grants_w)
            self.rungs_taken[rung] = self.rungs_taken.get(rung, 0) + 1
            self.events.emit(
                rung,
                detail=(
                    f"overshoot={over:.3f}W held={held_w:.3f}W "
                    f"target={target:.3f}W"
                ),
            )
            # Committed power is what actually goes to hardware: the
            # candidate the ladder just rejected never reaches it.
            committed = envelope.assess(
                caps, unreachable=unreachable, assume_tdp=assume_tdp,
                pending=pending,
            )

        # Pace raises: until the dispatch is acknowledged a unit counts
        # at max(held, new), so a redistribution's increase side can
        # push the worst case over budget even though the steady sums
        # fit.  Defer (part of) the raises — the held values they would
        # max against are fixed, so every deferred watt reduces the
        # worst case one-for-one; the raise goes through next cycle once
        # the decrease side has confirmed.
        if not self.dry_run:
            excess = committed.worst_case_total_w - budget
            if excess > self.tol_w:
                base = envelope.assess(
                    np.zeros(envelope.n_units),
                    unreachable=unreachable,
                    assume_tdp=assume_tdp,
                    pending=pending,
                ).worst_case_w
                raises = np.where(reach, np.maximum(caps - base, 0.0), 0.0)
                total_raise = float(raises.sum())
                if total_raise > self.tol_w:
                    frac = min(1.0, excess / total_raise)
                    caps -= raises * frac
                    self.raises_deferred += 1
                    self.events.emit(
                        "budget_raise_deferred",
                        detail=(
                            f"deferred={total_raise * frac:.3f}W "
                            f"excess={excess:.3f}W"
                        ),
                    )
                    committed = envelope.assess(
                        caps, unreachable=unreachable,
                        assume_tdp=assume_tdp, pending=pending,
                    )

        worst_over = committed.worst_case_total_w - budget
        if worst_over > self.tol_w:
            self.excursions += 1
            self.events.emit(
                "budget_overshoot",
                detail=(
                    f"worst_case={committed.worst_case_total_w:.3f}W "
                    f"overshoot={worst_over:.3f}W"
                ),
            )

        return GuardDecision(
            caps_w=caps,
            rung=rung,
            overshoot_w=(
                over if rung is not None or self.dry_run else 0.0
            ),
            committed=committed,
        )

    def _degrade(
        self,
        caps: np.ndarray,
        reach: np.ndarray,
        over: float,
        target: float,
        grants_w: np.ndarray | None,
    ) -> str:
        """Apply the cheapest sufficient ladder rung to ``caps`` in place.

        Returns the event kind naming the rung taken.
        """
        # Rung 1: take back the most recent readjust grants.  Only
        # sufficient grants qualify — a partial shave would still need
        # rung 2, so go straight there instead of stacking reductions.
        if grants_w is not None:
            grants = np.where(
                reach, np.maximum(np.asarray(grants_w, np.float64), 0.0), 0.0
            )
            total_grant = float(grants.sum())
            if total_grant >= over:
                caps -= grants * (over / total_grant)
                return "budget_shave_grants"

        # Rung 2: proportional scale-down above the per-unit floor.
        slack = np.where(reach, np.maximum(caps - self.min_cap_w, 0.0), 0.0)
        total_slack = float(slack.sum())
        if total_slack >= over:
            caps -= slack * (over / total_slack)
            return "budget_scale_down"

        # Rung 3: emergency constant cap — forced safe mode.  Even the
        # floors may not fit under the remaining budget (the held power
        # of unreachable units is outside our control); drop to the
        # floor and report, the residual excursion is hardware-bounded.
        n_reach = int(reach.sum())
        constant = max(self.min_cap_w, target / n_reach)
        caps[reach] = np.minimum(constant, self.envelope.max_cap_w)
        return "budget_emergency_drop"
