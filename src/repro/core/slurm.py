"""Reimplementation of SLURM's power-management plugin (paper §2.3, [51]).

SLURM's plugin is the canonical *stateless model-free* manager: it keeps no
history and resets each unit's cap from the current power reading alone,
using the MIMD policy of :mod:`repro.core.stateless`.  It is the primary
competitor DPS is evaluated against; the path-dependent starvation the paper
illustrates in Figure 1 (a unit capped low during a quiet phase cannot
reclaim budget that another capped-out unit is holding) emerges from exactly
this logic.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StatelessConfig
from repro.core.managers import PowerManager, register_manager
from repro.core.stateless import mimd_step

__all__ = ["SlurmManager"]


@register_manager
class SlurmManager(PowerManager):
    """Stateless MIMD manager mirroring the SLURM power plugin.

    Args:
        config: MIMD thresholds; defaults match the DPS stateless module so
            head-to-head comparisons isolate the value of power dynamics.
    """

    name = "slurm"

    def __init__(self, config: StatelessConfig | None = None) -> None:
        super().__init__()
        self.config = config or StatelessConfig()

    def blank(self) -> SlurmManager:
        return type(self)(self.config)

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del demand_w
        result = mimd_step(
            power_w,
            self._caps,
            self.budget_w,
            self.max_cap_w,
            self.min_cap_w,
            self.config,
            self._rng,
        )
        return result.caps
