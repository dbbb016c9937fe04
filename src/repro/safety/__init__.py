"""Budget-safety envelope: end-to-end cap accounting and runtime guards.

The §6 guarantee — the cluster never exceeds its power budget — is easy
to state at the decision point (:class:`~repro.core.managers.PowerManager`
rescales over-allocating subclasses) but the *system* applies caps through
a longer path: protocol clamps and 0.1 W quantization at dispatch, an
asynchronous client-side apply, an in-flight actuator pipeline, and
quarantined nodes whose hardware silently holds whatever cap it last
received.  Each of those can diverge from the manager's intent; none of
them used to be reconciled.

This package closes the loop:

* :class:`~repro.safety.envelope.BudgetEnvelope` tracks the three cap
  views the system already produces — *commanded* (manager output),
  *dispatched* (post-clamp wire value), *applied* (read-back / client
  acknowledgement) — and computes the worst-case committed power of the
  coming interval.
* :class:`~repro.safety.guard.BudgetGuard` sits at the actuation boundary
  and, when committed power would exceed the budget, walks a graded
  degradation ladder: shave the most recent readjust grants, scale the
  reachable caps down proportionally above their floors, and finally drop
  to the emergency constant cap (forced safe mode).
* :class:`~repro.safety.invariants.InvariantMonitor` runs a pluggable
  registry of runtime invariants (budget conservation, cap bounds,
  readjust water-fill conservation, finite Kalman state, snapshot/restore
  idempotence) every cycle in strict mode or on a sampling cadence in
  deployment.
* :class:`~repro.safety.stack.ControlStack` builds those three around a
  manager stack once — the one hardened decision step the simulator and
  the deploy server both run.

Every enforcement action and violation is a structured ``budget_*`` /
``invariant_violation`` telemetry event, so an excursion is detected,
bounded, and visible — never silent.
"""

from repro.safety.config import SafetyConfig
from repro.safety.envelope import BudgetEnvelope, CommittedPower
from repro.safety.guard import BudgetGuard, GuardDecision, last_readjust_grants
from repro.safety.invariants import (
    Invariant,
    InvariantContext,
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
    available_invariants,
    default_invariants,
    register_invariant,
)
from repro.safety.stack import ControlStack

__all__ = [
    "SafetyConfig",
    "BudgetEnvelope",
    "CommittedPower",
    "ControlStack",
    "BudgetGuard",
    "GuardDecision",
    "last_readjust_grants",
    "Invariant",
    "InvariantContext",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "available_invariants",
    "default_invariants",
    "register_invariant",
]
