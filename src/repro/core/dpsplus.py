"""DPS+ — DPS extended with model-free demand estimation (paper §7).

DPS's cap-readjusting module must *assume* every high-priority unit demands
maximum power, because demand is unobservable (§4.4).  DPS+ replaces that
assumption with the :class:`~repro.core.demand.DemandEstimator`: the same
Kalman-filtered power stream feeds a per-unit demand estimate, and the caps
come from equal-satisfaction water-filling over those estimates — the
oracle's allocation rule applied to *estimated* rather than true demand.
Everything stays model-free and power-only (design principles of §4.1).

A floor of half the constant cap on every estimate preserves the restore
module's motivation: an idle unit keeps headroom for incoming work instead
of being squeezed to its idle draw.

With ``guarantee_floor=True`` (the default), DPS+ additionally restores
DPS's constant-allocation lower bound for *demanding* units: any unit
whose estimated demand reaches the constant cap is raised to at least the
constant cap after water-filling, funded proportionally from the other
units' surplus — combining the §4.4 guarantee with demand-proportional
allocation.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DPSConfig
from repro.core.demand import DemandEstimator, DemandEstimatorConfig
from repro.core.kalman import KalmanBank
from repro.core.managers import PowerManager, register_manager

__all__ = ["DPSPlusManager"]


@register_manager
class DPSPlusManager(PowerManager):
    """Demand-estimating variant of DPS (registered as ``"dps+"``).

    Args:
        config: reuses :class:`DPSConfig` for the Kalman settings.
        estimator: demand-estimator tuning.
        headroom: multiplicative margin granted above the estimated demand
            when the budget allows (like the oracle's).
        guarantee_floor: raise demanding units (estimate >= constant cap)
            to at least the constant cap after water-filling, restoring
            DPS's §4.4 lower bound on top of demand estimation.
    """

    name = "dps+"

    def __init__(
        self,
        config: DPSConfig | None = None,
        estimator: DemandEstimatorConfig | None = None,
        headroom: float = 1.05,
        guarantee_floor: bool = True,
    ) -> None:
        super().__init__()
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1, got {headroom}")
        self.config = config or DPSConfig()
        self.estimator_config = estimator or DemandEstimatorConfig()
        self.headroom = headroom
        self.guarantee_floor = guarantee_floor
        self._kalman: KalmanBank | None = None
        self._estimator: DemandEstimator | None = None

    def blank(self) -> DPSPlusManager:
        return type(self)(
            self.config,
            self.estimator_config,
            self.headroom,
            self.guarantee_floor,
        )

    def _on_bind(self) -> None:
        self._kalman = KalmanBank(self.n_units, self.config.kalman)
        self._estimator = DemandEstimator(
            self.n_units, self.max_cap_w, self.estimator_config
        )

    @property
    def demand_estimate(self) -> np.ndarray:
        """Current demand estimates (W) — for telemetry and tests."""
        self._check_bound()
        assert self._estimator is not None
        return self._estimator.estimate

    def _snapshot_state(self) -> dict:
        assert self._kalman is not None and self._estimator is not None
        return {
            "kalman": self._kalman.snapshot(),
            "estimator": self._estimator.snapshot(),
        }

    def _restore_state(self, state: dict) -> None:
        assert self._kalman is not None and self._estimator is not None
        self._kalman.restore(state["kalman"])
        self._estimator.restore(state["estimator"])

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del demand_w
        assert self._kalman is not None and self._estimator is not None

        filtered = (
            # step() validated the reading already; skip the bank's re-scan.
            self._kalman.update(power_w, validate=False)
            if self.config.use_kalman
            else np.asarray(power_w, dtype=np.float64)
        )
        estimate = self._estimator.update(filtered, self._caps)

        # Floor: every unit keeps headroom for incoming work (the restore
        # module's job in plain DPS).
        floored = np.maximum(estimate, 0.5 * self.initial_cap_w)
        wanted = np.minimum(floored * self.headroom, self.max_cap_w)

        total_wanted = float(wanted.sum())
        if total_wanted <= self.budget_w:
            # Demand fits: grant it and spread the slack proportionally.
            slack = self.budget_w - total_wanted
            caps = wanted + slack * wanted / max(total_wanted, 1e-9)
            return np.minimum(caps, self.max_cap_w)

        # Contention: equal-satisfaction scaling with a min-cap water-fill.
        caps = wanted * (self.budget_w / total_wanted)
        for _ in range(4):
            low = caps < self.min_cap_w
            if not np.any(low):
                break
            deficit = float((self.min_cap_w - caps[low]).sum())
            caps[low] = self.min_cap_w
            free = ~low
            reducible = caps[free] - self.min_cap_w
            total_reducible = float(reducible.sum())
            if total_reducible <= 0:
                break
            caps[free] -= reducible * min(1.0, deficit / total_reducible)

        if self.guarantee_floor:
            caps = self._apply_floor(caps, wanted)
        return caps

    def _apply_floor(self, caps: np.ndarray, wanted: np.ndarray) -> np.ndarray:
        """Raise demanding units to the constant cap, funded from surplus.

        A unit is *demanding* when its (headroom-adjusted) estimate reaches
        the constant cap; under equal-satisfaction scaling such units can
        land below it, violating the §4.4 guarantee.  The shortfall is
        taken proportionally from every unit's surplus above its own floor
        (the constant cap for demanding units, the minimum cap otherwise).
        """
        floor_cap = min(self.initial_cap_w, self.max_cap_w)
        demanding = wanted >= floor_cap
        deficit = np.where(demanding, np.maximum(floor_cap - caps, 0.0), 0.0)
        need = float(deficit.sum())
        if need <= 0:
            return caps
        caps = caps + deficit
        own_floor = np.where(demanding, floor_cap, self.min_cap_w)
        surplus = np.maximum(caps - own_floor, 0.0)
        total_surplus = float(surplus.sum())
        if total_surplus > 0:
            caps = caps - surplus * min(1.0, need / total_surplus)
        return caps
