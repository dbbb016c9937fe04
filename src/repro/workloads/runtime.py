"""Workload execution state: progress, repeats, and per-socket jitter.

A :class:`WorkloadExecution` owns one workload's runtime state inside the
simulator: which sockets it loads, how far it has progressed, how many
back-to-back runs it has completed, and the accounting needed later for the
paper's *satisfaction* metric (Eq. 1).  It advances by *progress* — the
product of wall time and the per-socket rate the performance model grants —
so power caps stretch phases instead of skipping them.

Repeats model the paper's methodology directly: each workload in a pair is
re-launched as soon as it finishes (after a small job-launch gap) until the
experiment has collected the requested number of runs from both workloads
(§5.2, Appendix: "Spark workload in each pair is repeated at least 10
times"; short NPB apps naturally re-run many times against a long partner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.spec import WorkloadSpec

__all__ = ["RunRecord", "WorkloadExecution"]


@dataclass(frozen=True)
class RunRecord:
    """One completed run of a workload.

    Attributes:
        start_s: wall-clock time the run began.
        end_s: wall-clock time the run completed.
        avg_power_w: mean per-active-socket power over the run.
    """

    start_s: float
    end_s: float
    avg_power_w: float

    @property
    def duration_s(self) -> float:
        """Throughput time of the run (the paper's performance metric)."""
        return self.end_s - self.start_s


class WorkloadExecution:
    """Mutable execution state of one workload on a slice of the cluster.

    Args:
        spec: the workload being run.
        unit_ids: global indices of the sockets in this workload's cluster
            half; the first ``spec.active_units`` of them are loaded (all of
            them when ``active_units`` is None).
        rng: seeded randomness for per-run socket factors and demand noise.
        time_scale: duration multiplier applied to the program.
        inter_run_gap_s: idle gap between consecutive runs (job launch).
        idle_power_w: demand of inactive / gapped sockets.
        max_demand_w: upper clamp on demand (unit TDP).
        socket_jitter_std: std of the per-run multiplicative socket factor
            (executor placement varies run to run).
        demand_noise_std_w: std of the per-step additive demand noise.
        duration_jitter_std: lognormal sigma of a per-run execution-speed
            factor (run-to-run Spark variance, §6.1); 0 = deterministic.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        unit_ids: np.ndarray,
        rng: np.random.Generator,
        time_scale: float = 1.0,
        inter_run_gap_s: float = 5.0,
        idle_power_w: float = 12.0,
        max_demand_w: float = 165.0,
        socket_jitter_std: float = 0.02,
        demand_noise_std_w: float = 1.0,
        duration_jitter_std: float = 0.0,
    ) -> None:
        ids = np.asarray(unit_ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("unit_ids must be a non-empty 1-D index array")
        n_active = spec.active_units if spec.active_units is not None else ids.size
        if n_active > ids.size:
            raise ValueError(
                f"{spec.name} wants {n_active} active units but only "
                f"{ids.size} were assigned"
            )
        self.spec = spec
        self.unit_ids = ids
        self.active_ids = ids[:n_active]
        self.program = spec.program.scaled(time_scale)
        self.inter_run_gap_s = inter_run_gap_s
        self.idle_power_w = idle_power_w
        self.max_demand_w = max_demand_w
        self.socket_jitter_std = socket_jitter_std
        self.demand_noise_std_w = demand_noise_std_w
        self.duration_jitter_std = duration_jitter_std
        self._rng = rng

        self.progress_s = 0.0
        self._gap_remaining_s = 0.0
        self._run_start_s = 0.0
        self._run_energy_j = 0.0
        self._run_time_s = 0.0
        self.records: list[RunRecord] = []
        self._factors = self._draw_factors()
        self._run_speed = self._draw_run_speed()

    def _draw_factors(self) -> np.ndarray:
        factors = self._rng.normal(
            1.0, self.socket_jitter_std, size=self.active_ids.size
        )
        return np.clip(factors, 0.85, 1.15)

    def _draw_run_speed(self) -> float:
        if self.duration_jitter_std <= 0:
            return 1.0
        # Lognormal around 1: a run can be a few percent faster or slower
        # for reasons outside the power manager's control.
        return float(np.exp(self._rng.normal(0.0, self.duration_jitter_std)))

    @property
    def n_units(self) -> int:
        """Sockets assigned to this workload (active + idle)."""
        return self.unit_ids.size

    @property
    def in_gap(self) -> bool:
        """True while waiting out the inter-run launch gap."""
        return self._gap_remaining_s > 0.0

    @property
    def runs_completed(self) -> int:
        """Number of finished runs so far."""
        return len(self.records)

    def demand(self) -> np.ndarray:
        """Current uncapped demand of the assigned sockets (W).

        Returns:
            Array aligned with ``unit_ids``.  Inactive or gapped sockets
            draw the idle floor; active sockets draw the program demand with
            per-run socket factors and per-step noise, clamped to
            ``[idle_power_w, max_demand_w]``.
        """
        out = np.empty(self.unit_ids.size)
        if self._gap_remaining_s > 0.0:
            out.fill(self.idle_power_w)
            return out
        n_active = self.active_ids.size
        noisy = self._rng.normal(0.0, self.demand_noise_std_w, size=n_active)
        noisy += self.program.demand_at(self.progress_s) * self._factors
        noisy.clip(self.idle_power_w, self.max_demand_w, out=out[:n_active])
        out[n_active:] = self.idle_power_w
        return out

    def advance(
        self,
        rates: np.ndarray,
        true_power_w: np.ndarray,
        dt_s: float,
        now_s: float,
    ) -> None:
        """Move the workload forward one simulator step.

        Args:
            rates: per-socket progress rates aligned with ``unit_ids``
                (1 = full speed); the workload advances at the mean rate of
                its *active* sockets, or at the slowest socket's rate when
                the spec declares ``sync="min"`` (barrier-synchronized MPI
                ranks — the NPB kernels).
            true_power_w: per-socket true power aligned with ``unit_ids``
                (for the satisfaction accounting).
            dt_s: step length (s).
            now_s: wall-clock time at the *end* of the step.
        """
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        if self._gap_remaining_s > 0.0:
            self._gap_remaining_s -= dt_s
            if self._gap_remaining_s <= 0.0:
                self._begin_run(now_s)
            return

        n_active = self.active_ids.size
        if self.spec.sync == "min":
            rate = float(rates[:n_active].min())
        else:
            # np.mean's own arithmetic: one pairwise sum, one true divide.
            rate = float(np.add.reduce(rates[:n_active]) / n_active)
        self.progress_s += rate * self._run_speed * dt_s
        self._run_energy_j += float(np.add.reduce(true_power_w[:n_active])) * dt_s
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

    def _begin_run(self, now_s: float) -> None:
        self.progress_s = 0.0
        self._gap_remaining_s = 0.0
        self._run_start_s = now_s
        self._run_energy_j = 0.0
        self._run_time_s = 0.0
        self._factors = self._draw_factors()
        self._run_speed = self._draw_run_speed()

    def mean_duration_s(self) -> float:
        """Mean throughput time over completed runs.

        Raises:
            ValueError: if no run has completed.
        """
        if not self.records:
            raise ValueError(f"{self.spec.name}: no completed runs")
        return float(np.mean([r.duration_s for r in self.records]))

    def mean_power_w(self) -> float:
        """Mean per-socket power over completed runs (satisfaction input)."""
        if not self.records:
            raise ValueError(f"{self.spec.name}: no completed runs")
        return float(np.mean([r.avg_power_w for r in self.records]))
