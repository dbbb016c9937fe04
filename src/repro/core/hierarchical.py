"""Two-level hierarchical stateless manager (Argo-style, paper §2.3).

The Argo project's "conclave-node two-level stateless power management
system" [7-9, 34] is the other deployed model-free design the paper cites.
This reimplementation serves as an additional baseline:

* **level 1** splits the cluster budget among *groups* (nodes, or any
  partition) proportionally to each group's recent power draw, bounded so
  no group falls below an equal-share fraction ``min_group_share`` — the
  conclave-level reallocation;
* **level 2** runs the MIMD stateless allocator *within* each group on
  its sub-budget — the node-level controller.

Like all stateless designs it keeps no history beyond the current caps, so
it inherits the same starvation failure mode inside a group, but the
group-proportional level-1 split recovers some cross-group fairness.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StatelessConfig
from repro.core.managers import PowerManager, register_manager
from repro.core.stateless import mimd_step

__all__ = ["HierarchicalManager"]


@register_manager
class HierarchicalManager(PowerManager):
    """Two-level (group, unit) stateless manager (registered as
    ``"hierarchical"``).

    Args:
        group_size: units per group (consecutive unit ids); the last group
            absorbs any remainder.  Defaults to 2 — one group per
            dual-socket node.
        config: MIMD parameters for the level-2 allocator.
        min_group_share: fraction of a group's equal share it is always
            guaranteed at level 1 (prevents a quiet group losing all
            headroom), in (0, 1].
    """

    name = "hierarchical"

    def __init__(
        self,
        group_size: int = 2,
        config: StatelessConfig | None = None,
        min_group_share: float = 0.5,
    ) -> None:
        super().__init__()
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if not 0 < min_group_share <= 1:
            raise ValueError(
                f"min_group_share must be in (0, 1], got {min_group_share}"
            )
        self.group_size = group_size
        self.config = config or StatelessConfig()
        self.min_group_share = min_group_share
        self._groups: list[np.ndarray] = []

    def blank(self) -> HierarchicalManager:
        return type(self)(self.group_size, self.config, self.min_group_share)

    def _on_bind(self) -> None:
        ids = np.arange(self.n_units)
        n_groups = max(self.n_units // self.group_size, 1)
        self._groups = [
            ids[g * self.group_size : (g + 1) * self.group_size]
            for g in range(n_groups - 1)
        ]
        self._groups.append(ids[(n_groups - 1) * self.group_size :])

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del demand_w
        n_groups = len(self._groups)
        group_power = np.asarray(
            [float(power_w[g].sum()) for g in self._groups]
        )
        group_units = np.asarray([g.size for g in self._groups], dtype=float)

        # Level 1: draw-proportional budgets with an equal-share floor.
        equal = self.budget_w * group_units / self.n_units
        floor = equal * self.min_group_share
        total_power = float(group_power.sum())
        if total_power <= 0:
            budgets = equal.copy()
        else:
            proportional = self.budget_w * group_power / total_power
            budgets = np.maximum(proportional, floor)
            # Renormalize the excess over the floors so the sum meets the
            # budget exactly.
            over = budgets - floor
            total_over = float(over.sum())
            spare = self.budget_w - float(floor.sum())
            if total_over > 0:
                budgets = floor + over * (spare / total_over)
        # A group's budget never exceeds what its units can absorb.
        budgets = np.minimum(budgets, group_units * self.max_cap_w)

        # Level 2: MIMD within each group on its sub-budget.
        caps = self._caps.copy()
        for g, group_budget in zip(self._groups, budgets):
            sub = mimd_step(
                power_w[g],
                caps[g],
                float(group_budget),
                self.max_cap_w,
                self.min_cap_w,
                self.config,
                self._rng,
            )
            caps[g] = sub.caps
            # When level 1 shrank this group's budget below its current
            # caps, scale the group down to its sub-budget.
            total = float(caps[g].sum())
            if total > group_budget:
                slack = caps[g] - self.min_cap_w
                total_slack = float(slack.sum())
                if total_slack > 0:
                    caps[g] -= slack * min(
                        1.0, (total - group_budget) / total_slack
                    )
        return caps
