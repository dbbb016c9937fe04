"""Oracle power manager (paper §5.2, Figure 1 row 3).

The oracle stands in for a *perfect model-based* system: at every step it is
told each unit's true uncapped power demand (which no real manager can
measure — the whole point of DPS) and allocates the budget to maximize
performance under the paper's demand-proportional fairness definition:

* if total demand fits in the budget, every unit's cap covers its demand,
  with a small multiplicative headroom so RAPL never throttles at the
  boundary, and the remaining slack is spread demand-proportionally;
* otherwise caps are set for *equal satisfaction* — each unit receives the
  same fraction of its demand (Eq. 1/2 fairness = 1) — via a water-filling
  pass that recycles budget clipped at the per-unit bounds.

The paper only evaluates the oracle in the low-utility group (implementing
one under contention with variable Spark workloads "is extremely difficult"
on real hardware); here it works for any scenario, which the ablation
benches exploit.
"""

from __future__ import annotations

import numpy as np

from repro.core.managers import PowerManager, register_manager

__all__ = ["OracleManager"]


@register_manager
class OracleManager(PowerManager):
    """Demand-clairvoyant allocator with equal-satisfaction water-filling.

    Args:
        headroom: multiplicative margin above demand granted when the budget
            allows (keeps RAPL from shaving the top off every phase).
    """

    name = "oracle"
    requires_demand = True

    def __init__(self, headroom: float = 1.05) -> None:
        super().__init__()
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1, got {headroom}")
        self.headroom = headroom

    def blank(self) -> OracleManager:
        return type(self)(self.headroom)

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del power_w
        assert demand_w is not None  # Guaranteed by requires_demand.
        demand = np.clip(demand_w, self.min_cap_w, self.max_cap_w)

        wanted = np.minimum(demand * self.headroom, self.max_cap_w)
        total_wanted = float(wanted.sum())
        if total_wanted <= self.budget_w:
            # Demand fits: grant it, then spread the slack proportionally.
            slack = self.budget_w - total_wanted
            caps = wanted + slack * demand / max(float(demand.sum()), 1e-9)
            return np.minimum(caps, self.max_cap_w)

        # Contention: equal-satisfaction scaling with water-filling around
        # the per-unit minimum cap (units pushed below min_cap_w keep it;
        # the excess is recovered from the rest).
        caps = demand * (self.budget_w / max(float(demand.sum()), 1e-9))
        for _ in range(4):  # Converges in <= #distinct-clip-levels passes.
            clipped_low = caps < self.min_cap_w
            if not np.any(clipped_low):
                break
            deficit = float((self.min_cap_w - caps[clipped_low]).sum())
            caps[clipped_low] = self.min_cap_w
            free = ~clipped_low
            reducible = caps[free] - self.min_cap_w
            total_reducible = float(reducible.sum())
            if total_reducible <= 0:
                break
            caps[free] -= reducible * min(1.0, deficit / total_reducible)
        return caps
