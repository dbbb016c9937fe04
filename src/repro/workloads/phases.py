"""Phase-based power-demand programs (paper §3.1, Figure 2).

The paper characterizes application power by its *phases*: intervals of
distinct power demand whose duration, peak power, and first derivative all
vary across and within applications.  A workload here is a
:class:`PhaseProgram` — a sequence of primitive phases — evaluated by
*application progress* (nominal seconds of uncapped execution), not wall
time: a capped unit advances progress slower than wall time, so its phases
stretch, exactly as a throttled Spark stage takes longer on real hardware.
This progress indexing is what makes greedy stateless allocation
path-dependent (DESIGN.md §6).

Primitives:

* :class:`Hold` — constant demand;
* :class:`Ramp` — linear demand change (the diverse first derivatives of
  Figure 2a/2b);
* :class:`Oscillate` — square-wave bursts with a configurable period and
  duty cycle (the sub-10 s phases of LR, Figure 2c).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["Hold", "Ramp", "Oscillate", "Phase", "PhaseProgram", "repeat"]


def _check_duration(duration_s: float) -> None:
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")


def _check_power(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Hold:
    """Constant power demand for a fixed progress duration."""

    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        _check_duration(self.duration_s)
        _check_power("power_w", self.power_w)

    def demand_at(self, t_s: float) -> float:
        """Demand (W) at phase-local progress ``t_s`` in [0, duration)."""
        del t_s
        return self.power_w

    def scaled(self, factor: float) -> "Hold":
        """Copy with the duration scaled by ``factor``."""
        return Hold(self.duration_s * factor, self.power_w)


@dataclass(frozen=True)
class Ramp:
    """Linear power change from ``start_w`` to ``end_w``."""

    duration_s: float
    start_w: float
    end_w: float

    def __post_init__(self) -> None:
        _check_duration(self.duration_s)
        _check_power("start_w", self.start_w)
        _check_power("end_w", self.end_w)

    def demand_at(self, t_s: float) -> float:
        """Demand (W) at phase-local progress ``t_s`` in [0, duration)."""
        frac = min(max(t_s / self.duration_s, 0.0), 1.0)
        return self.start_w + (self.end_w - self.start_w) * frac

    def scaled(self, factor: float) -> "Ramp":
        """Copy with the duration scaled by ``factor``."""
        return Ramp(self.duration_s * factor, self.start_w, self.end_w)


@dataclass(frozen=True)
class Oscillate:
    """Square-wave bursts: ``high_w`` for ``duty`` of each period, else ``low_w``.

    :meth:`scaled` scales the period along with the duration — the number
    of bursts per phase, which is what the paper's frequency detector
    counts, is preserved under time compression — but clamps the period at
    :data:`MIN_PERIOD_S` so a compressed experiment keeps at least a
    couple of control steps per burst cycle.
    """

    #: Floor on a scaled oscillation period (4 control steps at dt = 1 s).
    MIN_PERIOD_S = 4.0

    duration_s: float
    low_w: float
    high_w: float
    period_s: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        _check_duration(self.duration_s)
        _check_power("low_w", self.low_w)
        _check_power("high_w", self.high_w)
        if self.high_w < self.low_w:
            raise ValueError(
                f"high_w must be >= low_w, got {self.high_w} < {self.low_w}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")

    def demand_at(self, t_s: float) -> float:
        """Demand (W) at phase-local progress ``t_s`` in [0, duration)."""
        phase_pos = (t_s % self.period_s) / self.period_s
        return self.high_w if phase_pos < self.duty else self.low_w

    def scaled(self, factor: float) -> "Oscillate":
        """Copy with duration and period scaled (period floored at
        :data:`MIN_PERIOD_S` so bursts stay resolvable at dt = 1 s)."""
        return Oscillate(
            self.duration_s * factor,
            self.low_w,
            self.high_w,
            max(self.period_s * factor, self.MIN_PERIOD_S),
            self.duty,
        )


Phase = Union[Hold, Ramp, Oscillate]


def repeat(phases: list[Phase], times: int) -> list[Phase]:
    """Concatenate ``times`` copies of a phase block."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    return list(phases) * times


class PhaseProgram:
    """An immutable sequence of phases evaluated by application progress.

    Args:
        phases: ordered phase list; total duration is their sum.
    """

    def __init__(self, phases: list[Phase]) -> None:
        if not phases:
            raise ValueError("a program needs at least one phase")
        self._phases = tuple(phases)
        ends = np.cumsum([p.duration_s for p in self._phases])
        starts = ends - np.asarray([p.duration_s for p in self._phases])
        # Python floats: demand_at is a scalar lookup, twice a control cycle.
        self._ends: list[float] = ends.tolist()
        self._starts: list[float] = starts.tolist()

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The phases, in order."""
        return self._phases

    @property
    def duration_s(self) -> float:
        """Total nominal (uncapped) duration of the program."""
        return self._ends[-1]

    def demand_at(self, progress_s: float) -> float:
        """Demand (W) at the given progress point.

        Progress outside ``[0, duration)`` clamps to the nearest end, so a
        just-finished workload reports its final phase's demand until the
        simulator retires it.
        """
        t = min(max(progress_s, 0.0), self._ends[-1] - 1e-9)
        idx = min(bisect_right(self._ends, t), len(self._phases) - 1)
        return self._phases[idx].demand_at(t - self._starts[idx])

    def sample(self, dt_s: float) -> np.ndarray:
        """Demand trace sampled every ``dt_s`` of progress (for Figure 2).

        Returns:
            1-D array of demands at ``t = 0, dt, 2*dt, ...`` covering the
            full program duration.
        """
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        n = int(np.ceil(self.duration_s / dt_s))
        return np.asarray(
            [self.demand_at(i * dt_s) for i in range(n)], dtype=np.float64
        )

    def fraction_above(self, threshold_w: float, dt_s: float = 1.0) -> float:
        """Fraction of (uncapped) time the demand exceeds ``threshold_w``.

        This is the "Above 110W" column of the paper's Tables 2 and 4.
        """
        trace = self.sample(dt_s)
        return float(np.mean(trace > threshold_w))

    def scaled(self, factor: float) -> "PhaseProgram":
        """Program with every phase duration scaled (oscillation periods kept)."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return PhaseProgram([p.scaled(factor) for p in self._phases])

    def __repr__(self) -> str:
        return (
            f"PhaseProgram(n_phases={len(self._phases)}, "
            f"duration_s={self.duration_s:.1f})"
        )
