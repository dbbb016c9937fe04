"""Model-free demand estimation (the paper's §7 future-work direction).

The paper closes by hoping power dynamics can push model-free managers
"even closer to the model-based systems".  The missing quantity is each
unit's *demand* — unobservable while the unit is capped (§3's challenge 1).
:class:`DemandEstimator` estimates it from the same signals DPS already
has, with three rules:

* **visible demand** — a unit drawing clearly below its cap is satisfied;
  its demand is simply its (filtered) power;
* **hidden demand** — a unit pinned at its cap demands *at least* the cap;
  the estimate grows multiplicatively above the cap, probing upward the
  way MIMD probes caps, until the unit unpins or TDP is reached;
* **decay** — when power falls, the estimate relaxes toward power
  exponentially, so stale peaks do not hoard budget.

This stays strictly model-free: no application knowledge, no training —
only power and cap history, per the paper's design principles (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.recovery.state import encode_array, read_leaf

__all__ = ["DemandEstimatorConfig", "DemandEstimator"]


@dataclass(frozen=True)
class DemandEstimatorConfig:
    """Tuning of the demand estimator.

    Attributes:
        pin_threshold: fraction of the cap above which a unit counts as
            pinned (demand hidden by the cap).
        probe_factor: multiplicative growth of a pinned unit's estimate per
            step (> 1).  Deliberately aggressive — a pinned unit's true
            demand is unbounded from the estimator's viewpoint, and a slow
            probe reproduces the very starvation window DPS's priorities
            exist to close (measured in the DPS+ probe sweep; an
            over-estimate self-corrects through the decay on unpin).
        decay: per-step relaxation rate of the estimate toward visible
            power when the unit is not pinned, in (0, 1].
    """

    pin_threshold: float = 0.95
    probe_factor: float = 1.3
    decay: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.pin_threshold <= 1:
            raise ValueError(
                f"pin_threshold must be in (0, 1], got {self.pin_threshold}"
            )
        if self.probe_factor <= 1.0:
            raise ValueError(
                f"probe_factor must be > 1, got {self.probe_factor}"
            )
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")


class DemandEstimator:
    """Per-unit power-demand estimates from power and cap observations.

    Args:
        n_units: number of units tracked.
        max_demand_w: upper bound on any estimate (unit TDP).
        config: estimator tuning.
    """

    def __init__(
        self,
        n_units: int,
        max_demand_w: float,
        config: DemandEstimatorConfig | None = None,
    ) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if max_demand_w <= 0:
            raise ValueError(f"max_demand_w must be > 0, got {max_demand_w}")
        self.n_units = n_units
        self.max_demand_w = float(max_demand_w)
        self.config = config or DemandEstimatorConfig()
        self._estimate = np.zeros(n_units, dtype=np.float64)

    @property
    def estimate(self) -> np.ndarray:
        """Current demand estimates (W), shape ``(n_units,)`` (read-only)."""
        view = self._estimate.view()
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        """Forget all estimates."""
        self._estimate.fill(0.0)

    def snapshot(self) -> dict:
        """JSON-able document of the demand estimates."""
        return {"estimate": encode_array(self._estimate)}

    def restore(self, state: dict) -> None:
        """Overwrite the estimates with a snapshot's content."""
        estimate = read_leaf(state["estimate"])
        if estimate.shape != (self.n_units,):
            raise ValueError(
                f"snapshot shape {estimate.shape} != ({self.n_units},)"
            )
        self._estimate[:] = estimate

    def update(self, power_w: np.ndarray, caps_w: np.ndarray) -> np.ndarray:
        """Advance the estimates one step.

        Args:
            power_w: (filtered) per-unit power readings (W).
            caps_w: caps in effect when those readings were taken (W).

        Returns:
            Updated estimates (W) — a copy.
        """
        power = np.asarray(power_w, dtype=np.float64)
        caps = np.asarray(caps_w, dtype=np.float64)
        if power.shape != (self.n_units,) or caps.shape != (self.n_units,):
            raise ValueError(
                f"power shape {power.shape} / caps shape {caps.shape} != "
                f"({self.n_units},)"
            )
        cfg = self.config
        pinned = power >= caps * cfg.pin_threshold

        est = self._estimate
        # Pinned: demand is at least the cap; probe upward from there.
        probe = np.maximum(est, caps) * cfg.probe_factor
        # Unpinned: demand is visible; relax toward it (never below it).
        relax = np.maximum(est + (power - est) * cfg.decay, power)
        est[:] = np.where(pinned, probe, relax)
        np.clip(est, 0.0, self.max_demand_w, out=est)
        return est.copy()
