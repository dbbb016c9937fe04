"""Measurement- and actuation-fault injection for robustness testing.

The paper "assume[s] pessimistically that RAPL bares certain measurement
noise" (§4.3) and builds the Kalman filter against it.  Real telemetry
fails in more ways than Gaussian noise: counters stall (stuck readings),
samplers drop (zero readings), and transients spike.  :class:`FaultyMeter`
wraps any power meter with those three fault modes so the test suite can
verify the managers degrade gracefully — budgets still respected, no
crashes, recovery after the fault clears.

The write path fails too: a powercap sysfs write can be silently dropped
(EAGAIN under MSR contention, firmware-clamped limits, stale cached
values).  :class:`FlakyDomain` wraps a :class:`RaplDomain` so a
``set_cap_w`` sometimes does not take, which is exactly the fault the
actuator's read-back verification exists to catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.powercap.rapl import PowerMeter, RaplDomain

__all__ = ["FaultConfig", "FaultyMeter", "FlakyDomain"]


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


class FaultyMeter:
    """A power meter wrapper injecting stuck/dropout/spike faults.

    Exposes the same ``read_power_w`` interface as
    :class:`~repro.powercap.rapl.PowerMeter`, so it drops into any code
    that meters sockets.

    Args:
        meter: the healthy meter being wrapped.
        config: fault probabilities.
        rng: fault randomness (seed for reproducibility).
    """

    def __init__(
        self,
        meter: PowerMeter,
        config: FaultConfig,
        rng: np.random.Generator,
    ) -> None:
        self.meter = meter
        self.config = config
        self._rng = rng
        self._last_w = 0.0
        self._has_last = False
        self.faults_injected = 0

    def read_power_w(self, dt_s: float) -> float:
        """Read the underlying meter, possibly corrupted.

        The healthy meter is *always* advanced (its energy-counter cursor
        must track real time), then the returned value may be replaced.
        A stuck fault needs a previous value to repeat; on the very first
        reading it passes the healthy value through instead of returning
        the meaningless 0.0 initial state (which would be a dropout, not
        a stall).
        """
        healthy = self.meter.read_power_w(dt_s)
        roll = self._rng.random()
        cfg = self.config
        if roll < cfg.stuck_prob:
            if self._has_last:
                self.faults_injected += 1
                return self._last_w
            self._last_w = healthy
            self._has_last = True
            return healthy
        roll -= cfg.stuck_prob
        if roll < cfg.dropout_prob:
            self.faults_injected += 1
            self._last_w = 0.0
            self._has_last = True
            return 0.0
        roll -= cfg.dropout_prob
        if roll < cfg.spike_prob:
            self.faults_injected += 1
            self._last_w = healthy * cfg.spike_gain
            self._has_last = True
            return self._last_w
        self._last_w = healthy
        self._has_last = True
        return healthy

    def rebaseline(self) -> None:
        """Re-anchor the wrapped meter's energy cursor (see PowerMeter)."""
        self.meter.rebaseline()


class FlakyDomain:
    """A RAPL domain wrapper whose cap writes sometimes do not take.

    Drops each ``set_cap_w`` with probability ``drop_prob`` (the limit
    silently keeps its previous value, as a failed sysfs write leaves it),
    optionally only for the first ``max_drops`` writes so tests can model
    transient contention that a bounded retry rides out.  Reads and
    physics pass straight through to the wrapped domain.

    Args:
        domain: the healthy domain being wrapped.
        drop_prob: probability any given write is silently dropped.
        rng: fault randomness (seed for reproducibility).
        max_drops: total writes ever dropped (None = unlimited).
    """

    def __init__(
        self,
        domain: RaplDomain,
        drop_prob: float,
        rng: np.random.Generator,
        max_drops: int | None = None,
    ) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob}")
        if max_drops is not None and max_drops < 0:
            raise ValueError(f"max_drops must be >= 0, got {max_drops}")
        self.domain = domain
        self.drop_prob = drop_prob
        self._rng = rng
        self.max_drops = max_drops
        #: Writes silently dropped so far.
        self.writes_dropped = 0

    @property
    def name(self) -> str:
        return self.domain.name

    @property
    def max_power_w(self) -> float:
        return self.domain.max_power_w

    @property
    def min_power_w(self) -> float:
        return self.domain.min_power_w

    @property
    def cap_w(self) -> float:
        return self.domain.cap_w

    @property
    def power_w(self) -> float:
        return self.domain.power_w

    def set_cap_w(self, cap_w: float) -> float:
        """Program a limit — unless this write is the one that fails."""
        budget_left = (
            self.max_drops is None or self.writes_dropped < self.max_drops
        )
        if budget_left and self._rng.random() < self.drop_prob:
            self.writes_dropped += 1
            return self.domain.cap_w
        return self.domain.set_cap_w(cap_w)

    def read_energy_uj(self) -> int:
        return self.domain.read_energy_uj()

    def power_off(self) -> None:
        self.domain.power_off()

    def step(self, demand_w: float, dt_s: float) -> float:
        return self.domain.step(demand_w, dt_s)
