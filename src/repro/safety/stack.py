"""The hardened decision step, built once for every transport.

Paper §4.3 is one loop: readings in, the manager decides, caps out.
:class:`ControlStack` is its budget-safe form.  The simulator and the
deploy server each build one and supply only what their transport knows:
the simulator the domains' read-back caps and the actuator's in-flight
pipeline, the server its quarantine mask and its acknowledgements
(``envelope.confirm_applied`` at ingest).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.managers import manager_stack
from repro.safety.config import SafetyConfig
from repro.safety.envelope import BudgetEnvelope
from repro.safety.guard import BudgetGuard, last_readjust_grants
from repro.safety.invariants import InvariantContext, InvariantMonitor
from repro.telemetry.log import ResilienceEventLog

__all__ = ["ControlStack"]


class ControlStack:
    """A stepper plus, when ``safety`` is given, envelope, guard and monitors.

    Args:
        stepper: a bound power manager or a
            :class:`~repro.recovery.controller.RecoverableController`.
        safety: budget-safety configuration; None only steps.
        events: the run's event log: every ``budget_*`` /
            ``invariant_violation`` event, and ``budget_rescaled`` from
            every member of the manager stack whose rescale observer is
            unset or an earlier stack's.

    Attributes:
        envelope / guard / monitor: None while disabled (``monitor`` also
            under ``invariant_mode="off"``).
    """

    def __init__(
        self,
        stepper: object,
        safety: SafetyConfig | None,
        events: ResilienceEventLog,
    ) -> None:
        self.stepper = stepper
        self.events = events
        self.envelope: BudgetEnvelope | None = None
        self.guard: BudgetGuard | None = None
        self.monitor: InvariantMonitor | None = None
        if safety is None:
            return
        self.envelope = BudgetEnvelope(
            stepper.n_units, stepper.budget_w, stepper.max_cap_w
        )
        self.guard = BudgetGuard(
            self.envelope, stepper.min_cap_w, events, dry_run=not safety.guard
        )
        if safety.invariant_mode != "off":
            self.monitor = InvariantMonitor(
                mode=safety.invariant_mode, sample_every=safety.sample_every,
                events=events, raise_on_violation=safety.raise_on_violation,
            )
        # The newest stack takes over from an earlier one (a restarted
        # attempt around a durable manager); any other observer stays.
        for node in manager_stack(stepper):
            hook = getattr(node, "on_budget_rescaled", False)
            if hook is None or isinstance(
                getattr(hook, "__self__", None), ControlStack
            ):
                node.on_budget_rescaled = self._rescaled

    def _rescaled(self, name: str, over_w: float) -> None:
        detail = f"manager={name} overshoot={over_w:.3f}W"
        self.events.emit("budget_rescaled", detail=detail)

    def decide(
        self, readings: np.ndarray, demand: np.ndarray | None,
        applied_w: np.ndarray | None = None,
        unreachable: np.ndarray | None = None, assume_tdp: bool = False,
        pending: Sequence[np.ndarray] = (),
    ) -> tuple[np.ndarray, str | None]:
        """Step the manager and gate its caps; returns ``(caps, rung)``.

        ``applied_w``, every unit's read-back cap, is recorded before the
        guard judges the candidate; the rest is passed to
        :meth:`~repro.safety.guard.BudgetGuard.enforce`.
        """
        caps = self.stepper.step(readings, demand)
        if self.envelope is None:
            return caps, None
        if applied_w is not None:
            self.envelope.record_applied(slice(None), applied_w)
        self.envelope.record_commanded(caps)
        decision = self.guard.enforce(
            caps,
            unreachable=unreachable,
            assume_tdp=assume_tdp,
            pending=pending,
            grants_w=last_readjust_grants(self.stepper),
        )
        return decision.caps_w, decision.rung

    def dispatched(self, units: slice | np.ndarray, caps: np.ndarray) -> None:
        """Record the caps that left for ``units``."""
        if self.envelope is not None:
            self.envelope.record_dispatched(units, caps)

    def check(self, caps: np.ndarray, readings: np.ndarray) -> None:
        """Run the invariant monitors over one cycle's dispatched caps."""
        if self.monitor is not None:
            stepper = self.stepper
            ctx = InvariantContext(
                budget_w=stepper.budget_w,
                min_cap_w=stepper.min_cap_w,
                max_cap_w=stepper.max_cap_w,
                caps_w=caps,
                readings_w=readings,
                manager=stepper,
            )
            self.monitor.run(ctx)

    def set_budget_w(self, budget_w: float) -> None:
        """Re-lease the budget to the stepper and the guard alike."""
        self.stepper.set_budget_w(budget_w)
        if self.envelope is not None:
            self.envelope.budget_w = float(budget_w)
