"""Measurement-fault probabilities for robustness testing.

The paper "assume[s] pessimistically that RAPL bares certain measurement
noise" (§4.3) and builds the Kalman filter against it.  Real telemetry
fails in more ways than Gaussian noise: counters stall (stuck readings),
samplers drop (zero readings), and transients spike.  A
:class:`FaultConfig` set on a unit range of a
:class:`~repro.powercap.rapl.RaplBank` (``RaplBank.set_faults``) corrupts
that range's readings with those three fault modes, so the test suite
can verify the managers degrade gracefully — budgets still respected, no
crashes, recovery after the fault clears.  ``Simulation(fault_config=...)``
sets one on every unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FaultConfig"]


@dataclass(frozen=True)
class FaultConfig:
    """Per-reading fault probabilities and magnitudes.

    Attributes:
        stuck_prob: probability a reading repeats the previous value
            (counter stall).
        dropout_prob: probability a reading is 0.0 (sampler miss).
        spike_prob: probability a reading is multiplied by ``spike_gain``
            (electrical transient / decode glitch).
        spike_gain: multiplier applied on a spike.
    """

    stuck_prob: float = 0.0
    dropout_prob: float = 0.0
    spike_prob: float = 0.0
    spike_gain: float = 3.0

    def __post_init__(self) -> None:
        for name in ("stuck_prob", "dropout_prob", "spike_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.stuck_prob + self.dropout_prob + self.spike_prob
        if total > 1.0:
            raise ValueError(
                f"fault probabilities sum to {total}, must be <= 1"
            )
        if not (math.isfinite(self.spike_gain) and self.spike_gain > 0):
            raise ValueError(
                f"spike_gain must be finite and > 0, got {self.spike_gain}"
            )
