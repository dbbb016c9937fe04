"""The Dynamic Power Scheduler — the paper's primary contribution (§4).

DPS is a *model-free stateful* power manager: it keeps no workload model,
only the recent power dynamics of each unit, and composes four modules per
decision loop (paper Figure 3):

1. a Kalman filter turns the noisy power readings into estimated power and
   pushes it into the per-unit power history;
2. the stateless MIMD module produces a temporary cap allocation from the
   current (estimated) power alone;
3. the priority module classifies each unit high/low priority from the
   history's prominent-peak frequency and first derivative;
4. the cap-readjusting module restores all caps to the constant cap when the
   whole system is quiet, otherwise hands leftover budget to high-priority
   units or equalizes their caps when the budget is exhausted.

The equalize path is what gives DPS the constant-allocation lower bound the
paper proves informally in §4.4 and verifies in §6.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.config import DPSConfig
from repro.core.history import HistoryBuffer
from repro.core.kalman import KalmanBank
from repro.core.managers import PowerManager, register_manager
from repro.core.priority import PriorityModule
from repro.core.readjust import readjust, restore
from repro.core.stateless import mimd_step

__all__ = ["DPSManager", "DPSStepInfo"]


class DPSStepInfo(NamedTuple):
    """Introspection record of one DPS decision (for telemetry and tests).

    Attributes:
        estimate_w: Kalman power estimates used this step.
        stateless_caps_w: temporary caps produced by the stateless module.
        priority: high-priority mask after the priority module.
        high_freq: high-frequency flags after the priority module.
        restored: True if the restore pass reset all caps.
        caps_w: final caps sent to the units.
        grants_w: per-unit watts the readjusting module granted on top of
            the restore-pass caps this step (what the budget-safety
            guard's first degradation rung may shave back).
    """

    estimate_w: np.ndarray
    stateless_caps_w: np.ndarray
    priority: np.ndarray
    high_freq: np.ndarray
    restored: bool
    caps_w: np.ndarray
    grants_w: np.ndarray


@register_manager
class DPSManager(PowerManager):
    """Model-free stateful power manager (the paper's DPS).

    Args:
        config: full DPS configuration; see
            :class:`~repro.core.config.DPSConfig` for the ablation switches.
    """

    name = "dps"

    def __init__(self, config: DPSConfig | None = None) -> None:
        super().__init__()
        self.config = config or DPSConfig()
        self._kalman: KalmanBank | None = None
        self._priority_mod: PriorityModule | None = None
        self._history: HistoryBuffer | None = None
        self._last_info: DPSStepInfo | None = None

    def blank(self) -> DPSManager:
        return type(self)(self.config)

    def _on_bind(self) -> None:
        cfg = self.config
        self._kalman = KalmanBank(self.n_units, cfg.kalman)
        self._priority_mod = PriorityModule(
            self.n_units, cfg.priority, use_frequency=cfg.use_frequency
        )
        self._history = HistoryBuffer(cfg.priority.history_len, self.n_units)
        self._last_info = None

    @property
    def last_info(self) -> DPSStepInfo | None:
        """Full breakdown of the most recent decision, or None before any."""
        return self._last_info

    @property
    def last_grants_w(self) -> np.ndarray | None:
        """Watts the readjusting module granted per unit on the most
        recent step, or None before any step."""
        if self._last_info is None:
            return None
        return self._last_info.grants_w

    @property
    def priority(self) -> np.ndarray:
        """Current high-priority mask (False for all units before binding-warmup)."""
        self._check_bound()
        assert self._priority_mod is not None
        return self._priority_mod.priority

    def _snapshot_state(self) -> dict:
        assert (
            self._kalman is not None
            and self._priority_mod is not None
            and self._history is not None
        )
        return {
            "kalman": self._kalman.snapshot(),
            "priority": self._priority_mod.snapshot(),
            "history": self._history.snapshot(),
        }

    def _restore_state(self, state: dict) -> None:
        assert (
            self._kalman is not None
            and self._priority_mod is not None
            and self._history is not None
        )
        self._kalman.restore(state["kalman"])
        self._priority_mod.restore(state["priority"])
        self._history.restore(state["history"])

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del demand_w
        assert (
            self._kalman is not None
            and self._priority_mod is not None
            and self._history is not None
        )
        cfg = self.config

        # 1. Filter the noisy reading and extend the power history.  The
        # base-class step() already validated shape and finiteness, so the
        # bank skips its own re-scan of the same vector.
        estimate = self._kalman.update(power_w, validate=False)
        signal = estimate if cfg.use_kalman else np.asarray(
            power_w, dtype=np.float64
        )
        self._history.push(signal)

        # 2. Temporary allocation from the stateless module, and 3.
        # priorities from the power dynamics, classified while the
        # stateless module draws its random order (disjoint state).
        classified = []
        mimd = mimd_step(
            signal,
            self._caps,
            self.budget_w,
            self.max_cap_w,
            self.min_cap_w,
            cfg.stateless,
            self._rng,
            alongside=lambda: classified.append(
                self._priority_mod.update(
                    self._history.chronological(), self.dt_s
                )
            ),
        )
        (priority,) = classified

        # 4. Restore when quiet, else steer budget by priority.
        restored_result = restore(
            signal, mimd.caps, self.initial_cap_w, cfg.readjust
        )
        caps = readjust(
            restored_result.caps,
            priority,
            self.budget_w,
            self.max_cap_w,
            restored_result.restored,
            cfg.readjust,
        )

        self._last_info = DPSStepInfo(
            estimate_w=estimate,
            stateless_caps_w=mimd.caps,
            priority=priority,
            high_freq=self._priority_mod.high_freq.copy(),
            restored=restored_result.restored,
            caps_w=caps.copy(),
            grants_w=np.maximum(caps - restored_result.caps, 0.0),
        )
        return caps
