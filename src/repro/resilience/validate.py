"""Reading validation against the measurement-fault taxonomy.

:mod:`repro.powercap.faults` injects the three failure modes real RAPL
telemetry exhibits beyond Gaussian noise — stuck counters, dropouts, and
spikes.  :class:`ReadingValidator` is the detection side of that taxonomy:
it screens each per-unit reading before it reaches a power manager and
flags the ones that cannot be trusted, so the manager can substitute its
last-good (Kalman) estimate instead of reacting to garbage.

Detection is deliberately physical, not statistical:

* **dropout** — a reading at (near) zero watts while the unit was recently
  observed well above idle.  Powered silicon never reads 0 W; the meter's
  noise floor sits at the idle power.
* **spike** — a reading materially above the unit's *currently programmed
  cap*.  RAPL enforces the cap within one control period, so such a value
  is physically impossible and must be a transient/decode glitch.  (Spikes
  that stay under the cap are indistinguishable from real load shifts and
  are left to the Kalman filter to smooth.)
* **stuck** — the exact same float repeated several cycles in a row.
  Under measurement noise an exact repeat is vanishingly unlikely; a run
  of them means the counter stalled.  In noise-free simulations a settled
  unit can trip this check, but the substitution is then a no-op (the
  estimate equals the repeated value), so the flag is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.recovery.state import encode_array, read_leaf

__all__ = ["ValidatorConfig", "ValidationResult", "ReadingValidator"]


@dataclass(frozen=True)
class ValidatorConfig:
    """Thresholds of the three fault detectors.

    Attributes:
        dropout_floor_w: readings at or below this are dropout candidates.
        dropout_min_estimate_w: a dropout is only flagged when the last
            good estimate was above this (a unit that really idles near
            zero is believed).
        spike_cap_slack: a reading above ``cap * spike_cap_slack +
            spike_margin_w`` is physically impossible and flagged.
        spike_margin_w: absolute headroom on the spike bound (absorbs
            measurement noise and cap-actuation lag).
        stuck_run: exact-repeat run length at which a unit is flagged
            stuck.
    """

    dropout_floor_w: float = 1.0
    dropout_min_estimate_w: float = 5.0
    spike_cap_slack: float = 1.1
    spike_margin_w: float = 15.0
    stuck_run: int = 3

    def __post_init__(self) -> None:
        if self.dropout_floor_w < 0:
            raise ValueError(
                f"dropout_floor_w must be >= 0, got {self.dropout_floor_w}"
            )
        if self.dropout_min_estimate_w <= self.dropout_floor_w:
            raise ValueError(
                "dropout_min_estimate_w must exceed dropout_floor_w "
                f"({self.dropout_min_estimate_w} <= {self.dropout_floor_w})"
            )
        if self.spike_cap_slack < 1.0:
            raise ValueError(
                f"spike_cap_slack must be >= 1, got {self.spike_cap_slack}"
            )
        if self.spike_margin_w < 0:
            raise ValueError(
                f"spike_margin_w must be >= 0, got {self.spike_margin_w}"
            )
        if self.stuck_run < 2:
            raise ValueError(f"stuck_run must be >= 2, got {self.stuck_run}")


class ValidationResult(NamedTuple):
    """Per-unit verdicts of one validation pass.

    Attributes:
        suspect: union of the three fault masks.
        stuck / dropout / spike: the individual detector masks.
    """

    suspect: np.ndarray
    stuck: np.ndarray
    dropout: np.ndarray
    spike: np.ndarray


class ReadingValidator:
    """Stateful per-unit screen for stuck/dropout/spike readings.

    Args:
        n_units: number of units validated per pass.
        config: detector thresholds.
    """

    def __init__(
        self, n_units: int, config: ValidatorConfig | None = None
    ) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self.n_units = n_units
        self.config = config or ValidatorConfig()
        self._prev = np.full(n_units, np.nan)
        self._run = np.zeros(n_units, dtype=np.intp)

    def validate(
        self,
        readings_w: np.ndarray,
        caps_w: np.ndarray,
        estimate_w: np.ndarray,
    ) -> ValidationResult:
        """Screen one reading vector.

        Args:
            readings_w: raw per-unit readings (W), shape ``(n_units,)``.
            caps_w: caps currently programmed per unit (the spike bound).
            estimate_w: last good per-unit power estimate (the dropout
                plausibility reference).

        Returns:
            Boolean masks per fault mode plus their union.
        """
        z = np.asarray(readings_w, dtype=np.float64)
        caps = np.asarray(caps_w, dtype=np.float64)
        est = np.asarray(estimate_w, dtype=np.float64)
        for name, arr in (("readings", z), ("caps", caps), ("estimate", est)):
            if arr.shape != (self.n_units,):
                raise ValueError(
                    f"{name} shape {arr.shape} != ({self.n_units},)"
                )
        cfg = self.config

        repeat = z == self._prev
        self._run = np.where(repeat, self._run + 1, 1)
        self._prev = z.copy()
        stuck = self._run >= cfg.stuck_run

        dropout = (z <= cfg.dropout_floor_w) & (
            est > cfg.dropout_min_estimate_w
        )
        spike = z > caps * cfg.spike_cap_slack + cfg.spike_margin_w
        return ValidationResult(
            suspect=stuck | dropout | spike,
            stuck=stuck,
            dropout=dropout,
            spike=spike,
        )

    def reset(self) -> None:
        """Forget the repeat-run state (e.g. after a rebind)."""
        self._prev.fill(np.nan)
        self._run.fill(0)

    def snapshot(self) -> dict:
        """JSON-able document of the repeat-run detector state."""
        return {
            "prev": encode_array(self._prev),
            "run": encode_array(self._run),
        }

    def restore(self, state: dict) -> None:
        """Overwrite the detector state with a snapshot's content."""
        prev = read_leaf(state["prev"])
        run = read_leaf(state["run"])
        if prev.shape != (self.n_units,) or run.shape != (self.n_units,):
            raise ValueError(
                f"snapshot shapes {prev.shape}/{run.shape} != "
                f"({self.n_units},)"
            )
        self._prev[:] = prev
        self._run[:] = run
