"""The testbed's per-cycle bodies as they stood before the call-budget
rewrite (PR 21), kept as the reference the rewritten ones are held to.

Each function is the old method body, ``self`` and all, moved here
verbatim: NumPy's Python-level wrappers (``np.clip``, ``np.mean``,
``np.any``, ``np.searchsorted``, ``np.full``) on ten-element vectors and
on scalars.  ``test_cycle_equivalence.py`` requires the bodies in ``src/``
to return the same bytes, leave the same state and draw the same random
numbers.  They are test fixtures, not product: nothing in ``src/`` can
select them.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PerfModelConfig
from repro.workloads.phases import Ramp
from repro.workloads.runtime import RunRecord


def progress_rate(cap_w, demand_w, config=None):
    """``repro.cluster.perfmodel.progress_rate``."""
    cfg = config or PerfModelConfig()
    cap = np.asarray(cap_w, dtype=np.float64)
    demand = np.asarray(demand_w, dtype=np.float64)
    if np.any(cap < 0) or np.any(demand < 0):
        raise ValueError("caps and demands must be >= 0")

    idle = cfg.idle_power_w
    # Units demanding no more than their cap (or no more than idle power —
    # nothing to throttle) run at full speed.
    headroom_cap = np.maximum(cap - idle, 0.0)
    headroom_demand = np.maximum(demand - idle, 1e-9)
    ratio = np.minimum(headroom_cap / headroom_demand, 1.0)
    rate = ratio ** (1.0 / cfg.theta)
    rate = np.where(demand <= np.maximum(cap, idle), 1.0, rate)
    return np.clip(rate, cfg.min_rate, 1.0)


def ramp_demand_at(self, t_s):
    """``Ramp.demand_at``."""
    frac = np.clip(t_s / self.duration_s, 0.0, 1.0)
    return self.start_w + (self.end_w - self.start_w) * float(frac)


def _phase_demand_at(phase, t_s):
    # Hold and Oscillate were not rewritten; a ramp inside a program
    # must go through the old body too.
    if isinstance(phase, Ramp):
        return ramp_demand_at(phase, t_s)
    return phase.demand_at(t_s)


def program_demand_at(self, progress_s):
    """``PhaseProgram.demand_at`` (``_ends``/``_starts`` were arrays; the
    calls below take the lists they are now just the same)."""
    t = float(np.clip(progress_s, 0.0, self.duration_s - 1e-9))
    idx = int(np.searchsorted(self._ends, t, side="right"))
    idx = min(idx, len(self._phases) - 1)
    return _phase_demand_at(self._phases[idx], t - float(self._starts[idx]))


def execution_demand(self):
    """``WorkloadExecution.demand``."""
    out = np.full(self.n_units, self.idle_power_w, dtype=np.float64)
    if self.in_gap:
        return out
    base = program_demand_at(self.program, self.progress_s)
    noisy = base * self._factors + self._rng.normal(
        0.0, self.demand_noise_std_w, size=self.active_ids.size
    )
    out[: self.active_ids.size] = np.clip(
        noisy, self.idle_power_w, self.max_demand_w
    )
    return out


def execution_advance(self, rates, true_power_w, dt_s, now_s):
    """``WorkloadExecution.advance``."""
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s}")
    if self.in_gap:
        self._gap_remaining_s -= dt_s
        if self._gap_remaining_s <= 0.0:
            self._begin_run(now_s)
        return

    n_active = self.active_ids.size
    if self.spec.sync == "min":
        rate = float(np.min(rates[:n_active]))
    else:
        rate = float(np.mean(rates[:n_active]))
    self.progress_s += rate * self._run_speed * dt_s
    self._run_energy_j += float(np.sum(true_power_w[:n_active])) * dt_s
    self._run_time_s += dt_s

    if self.progress_s >= self.program.duration_s:
        avg_power = (
            self._run_energy_j / (self._run_time_s * n_active)
            if self._run_time_s > 0
            else 0.0
        )
        self.records.append(
            RunRecord(
                start_s=self._run_start_s, end_s=now_s, avg_power_w=avg_power
            )
        )
        if self.inter_run_gap_s > 0.0:
            self._gap_remaining_s = self.inter_run_gap_s
        else:
            self._begin_run(now_s)
