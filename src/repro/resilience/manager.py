"""Safe-mode wrapper turning any power manager fault-tolerant.

Cerf et al. stress that a power controller's first obligation under
disturbance is to keep its constraint satisfied while degrading
performance gracefully.  :class:`ResilientManager` wraps any registered
:class:`~repro.core.managers.PowerManager` with exactly that contract:

1. every incoming reading is screened against the stuck/dropout/spike
   fault taxonomy of :mod:`repro.powercap.faults` (detection lives in
   :mod:`repro.resilience.validate`);
2. suspect readings are replaced by the unit's last-good Kalman estimate
   before the inner manager sees them;
3. when more than ``safe_fraction`` of the units are unobservable in one
   cycle, the wrapper drops to **safe mode** — the paper's constant
   allocation (budget evenly divided, trivially budget-respecting) — and
   only re-engages the inner manager after ``reengage_cycles``
   consecutive clean cycles.

The cluster budget is respected in *every* mode: the inner manager's caps
pass through the base-class invariant, and safe-mode caps are the
constant allocation by construction.  The inner manager keeps being
stepped in shadow while safe mode is active so its filters and history
are warm at re-engagement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.dps import DPSManager
from repro.core.kalman import KalmanBank
from repro.core.managers import PowerManager, register_manager
from repro.recovery.state import encode_array, read_leaf
from repro.resilience.validate import ReadingValidator, ValidatorConfig
from repro.telemetry.log import ResilienceEventLog

__all__ = ["ResilientConfig", "ResilientManager", "ResilienceStepInfo"]


@dataclass(frozen=True)
class ResilientConfig:
    """Safe-mode thresholds of :class:`ResilientManager`.

    Attributes:
        validator: detector thresholds for the reading screen.
        safe_fraction: unobservable-unit fraction (exclusive) above which
            the wrapper falls back to constant allocation.
        reengage_cycles: consecutive clean cycles required before DPS (or
            whatever the inner manager is) is re-engaged.
        reengage_fraction: a cycle counts as clean when its suspect
            fraction is at or below this.
    """

    validator: ValidatorConfig = field(default_factory=ValidatorConfig)
    safe_fraction: float = 0.5
    reengage_cycles: int = 5
    reengage_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.safe_fraction <= 1.0:
            raise ValueError(
                f"safe_fraction must be in (0, 1], got {self.safe_fraction}"
            )
        if self.reengage_cycles < 1:
            raise ValueError(
                f"reengage_cycles must be >= 1, got {self.reengage_cycles}"
            )
        if not 0.0 <= self.reengage_fraction < self.safe_fraction:
            raise ValueError(
                "reengage_fraction must be in [0, safe_fraction), got "
                f"{self.reengage_fraction}"
            )


class ResilienceStepInfo(NamedTuple):
    """Introspection record of one resilient decision.

    Attributes:
        suspect / stuck / dropout / spike: per-unit detector masks.
        sanitized_w: the readings actually fed to the inner manager.
        safe_mode: True if the returned caps are the safe-mode constant
            allocation.
        clean_streak: consecutive clean cycles counted toward
            re-engagement (0 outside safe mode).
    """

    suspect: np.ndarray
    stuck: np.ndarray
    dropout: np.ndarray
    spike: np.ndarray
    sanitized_w: np.ndarray
    safe_mode: bool
    clean_streak: int


@register_manager
class ResilientManager(PowerManager):
    """Fault-validating, safe-mode-capable wrapper manager.

    Args:
        inner: the wrapped manager (default: a fresh
            :class:`~repro.core.dps.DPSManager`).
        config: safe-mode thresholds.
    """

    name = "resilient"

    def __init__(
        self,
        inner: PowerManager | None = None,
        config: ResilientConfig | None = None,
    ) -> None:
        super().__init__()
        self.inner = inner if inner is not None else DPSManager()
        self.config = config or ResilientConfig()
        # Forward the inner manager's demand requirement (instance
        # attribute shadows the ClassVar).
        self.requires_demand = self.inner.requires_demand
        #: Structured log of suspect readings and safe-mode transitions.
        self.events = ResilienceEventLog()
        self._validator: ReadingValidator | None = None
        self._kalman: KalmanBank | None = None
        self._safe_mode = False
        self._clean_streak = 0
        self._cycle = 0
        self._prev_suspect = np.zeros(0, dtype=bool)
        self._last_info: ResilienceStepInfo | None = None

    def blank(self) -> ResilientManager:
        return type(self)(self.inner.blank(), self.config)

    def _on_bind(self) -> None:
        cfg = self.config
        self._validator = ReadingValidator(self.n_units, cfg.validator)
        self._kalman = KalmanBank(self.n_units)
        self._safe_mode = False
        self._clean_streak = 0
        self._cycle = 0
        self._prev_suspect = np.zeros(self.n_units, dtype=bool)
        self._last_info = None
        self.events = ResilienceEventLog()
        self.inner.bind(
            n_units=self.n_units,
            budget_w=self.budget_w,
            max_cap_w=self.max_cap_w,
            min_cap_w=self.min_cap_w,
            dt_s=self.dt_s,
            rng=self._rng.spawn(1)[0],
        )

    def _snapshot_state(self) -> dict:
        assert self._validator is not None and self._kalman is not None
        # The event log is telemetry, not control state: a restored
        # controller starts a fresh log (the recovery layer emits its own
        # restore events), so caps stay bit-exact without replaying logs.
        return {
            "validator": self._validator.snapshot(),
            "kalman": self._kalman.snapshot(),
            "safe_mode": self._safe_mode,
            "clean_streak": self._clean_streak,
            "cycle": self._cycle,
            "prev_suspect": encode_array(self._prev_suspect),
            "inner": self.inner.snapshot(),
        }

    def _restore_state(self, state: dict) -> None:
        assert self._validator is not None and self._kalman is not None
        self._validator.restore(state["validator"])
        self._kalman.restore(state["kalman"])
        self._safe_mode = bool(state["safe_mode"])
        self._clean_streak = int(state["clean_streak"])
        self._cycle = int(state["cycle"])
        prev_suspect = read_leaf(state["prev_suspect"])
        if prev_suspect.shape != (self.n_units,):
            raise ValueError(
                f"snapshot prev_suspect shape {prev_suspect.shape} != "
                f"({self.n_units},)"
            )
        self._prev_suspect = prev_suspect.astype(bool)
        # The inner manager's nested restore overwrites the rng the bind
        # above spawned for it, repositioning its stream exactly.
        self.inner.restore(state["inner"])

    def set_budget_w(self, budget_w: float) -> None:
        """Re-lease the budget on the wrapper *and* the shadowed inner
        manager, so safe-mode constant allocation and the inner policy
        agree on the envelope."""
        super().set_budget_w(budget_w)
        self.inner.set_budget_w(budget_w)

    @property
    def safe_mode(self) -> bool:
        """True while caps come from the constant-allocation fallback."""
        return self._safe_mode

    @property
    def last_grants_w(self) -> np.ndarray | None:
        """The inner manager's most recent readjust grants, or None in
        safe mode (constant-allocation caps carry no grants to shave)."""
        if self._safe_mode:
            return None
        return getattr(self.inner, "last_grants_w", None)

    @property
    def last_resilience(self) -> ResilienceStepInfo | None:
        """Breakdown of the most recent decision, or None before any."""
        return self._last_info

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        assert self._validator is not None and self._kalman is not None
        cfg = self.config
        self._cycle += 1
        now = self._cycle * self.dt_s

        estimate = (
            self._kalman.estimate
            if self._cycle > 1
            else np.full(self.n_units, self.initial_cap_w)
        )
        result = self._validator.validate(power_w, self._caps, estimate)
        sanitized = np.where(result.suspect, estimate, power_w)
        # Both branches of `sanitized` are already validated: the reading
        # at the step() boundary, the estimate by filter induction.
        self._kalman.update(sanitized, validate=False)

        newly_suspect = result.suspect & ~self._prev_suspect
        for unit in np.flatnonzero(newly_suspect):
            mode = (
                "stuck"
                if result.stuck[unit]
                else "dropout"
                if result.dropout[unit]
                else "spike"
            )
            self.events.emit(
                now, "reading_suspect", unit=int(unit), detail=mode
            )
        self._prev_suspect = result.suspect.copy()

        frac = float(result.suspect.mean())
        if not self._safe_mode and frac > cfg.safe_fraction:
            self._safe_mode = True
            self._clean_streak = 0
            self.events.emit(
                now, "safe_mode_entered", detail=f"suspect_frac={frac:.3f}"
            )
        elif self._safe_mode:
            if frac <= cfg.reengage_fraction:
                self._clean_streak += 1
            else:
                self._clean_streak = 0
            if self._clean_streak >= cfg.reengage_cycles:
                self._safe_mode = False
                self._clean_streak = 0
                self.events.emit(
                    now,
                    "safe_mode_exited",
                    detail=f"clean_cycles={cfg.reengage_cycles}",
                )

        # The inner manager always sees the sanitized readings — in safe
        # mode it runs in shadow so its state is warm at re-engagement.
        inner_caps = self.inner.step(
            sanitized, demand_w if self.requires_demand else None
        )
        if self._safe_mode:
            caps = np.full(self.n_units, self.initial_cap_w)
        else:
            caps = inner_caps

        self._last_info = ResilienceStepInfo(
            suspect=result.suspect,
            stuck=result.stuck,
            dropout=result.dropout,
            spike=result.spike,
            sanitized_w=sanitized,
            safe_mode=self._safe_mode,
            clean_streak=self._clean_streak,
        )
        return caps
