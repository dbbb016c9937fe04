"""Experiment harness: run workload pairs under managers, normalize results.

This is the reproduction of the artifact's ``exp.py``: "one can execute one
workload with the script by specifying the workloads on two clusters
respectively, the power management system, and workload repeating times".
Every figure normalizes by the same two reference measurements:

* the **uncapped reference** of each workload (solo run with all caps at
  TDP) — the denominator of satisfaction (Eq. 1);
* the **constant-allocation baseline** of each *pair* — the denominator of
  every speedup.

:func:`evaluate` is the one place an evaluation is normalized from those
jobs' results, whether the in-process :class:`ExperimentHarness`, a
campaign or a sweep ran them.  The harness runs its jobs through an
:class:`~repro.experiments.engine.ExperimentEngine` and keeps each result
for the next figure, mirroring how the paper measures its baselines once
and reuses them across figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.cluster.simulator import SimulationResult
from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.jobs import (
    ExperimentConfig,
    JobResult,
    PairOutcome,
    ReferenceStats,
    SimJob,
    baseline_job,
    evaluation_jobs,
    pair_job,
    reference_job,
    simulate,
)
from repro.metrics.fairness import fairness as fairness_fn
from repro.metrics.satisfaction import satisfaction as satisfaction_fn
from repro.metrics.speedup import hmean, paired_hmean_speedup

__all__ = [
    "ExperimentConfig",
    "ExperimentHarness",
    "PairOutcome",
    "PairEvaluation",
    "ReferenceStats",
    "evaluate",
    "evaluate_outcome",
]


@dataclass(frozen=True)
class PairEvaluation:
    """Normalized result of one pair under one manager.

    Attributes:
        outcome: the raw measurement.
        speedup_a / speedup_b: vs the pair's constant-allocation baseline.
        hmean_speedup: harmonic mean of the two speedups (Figs. 5b, 6).
        satisfaction_a / satisfaction_b: Eq. 1 values.
        fairness: Eq. 2 value of the pair.
    """

    outcome: PairOutcome
    speedup_a: float
    speedup_b: float
    hmean_speedup: float
    satisfaction_a: float
    satisfaction_b: float
    fairness: float


def evaluate_outcome(
    baseline: PairOutcome,
    outcome: PairOutcome,
    ref_a: ReferenceStats,
    ref_b: ReferenceStats,
) -> PairEvaluation:
    """Normalize one raw outcome against its baseline and references."""
    speedup_a = hmean(baseline.times_a_s) / hmean(outcome.times_a_s)
    speedup_b = hmean(baseline.times_b_s) / hmean(outcome.times_b_s)
    sat_a = satisfaction_fn(outcome.power_a_w, ref_a.mean_power_w)
    sat_b = satisfaction_fn(outcome.power_b_w, ref_b.mean_power_w)
    return PairEvaluation(
        outcome=outcome,
        speedup_a=speedup_a,
        speedup_b=speedup_b,
        hmean_speedup=paired_hmean_speedup(speedup_a, speedup_b),
        satisfaction_a=sat_a,
        satisfaction_b=sat_b,
        fairness=fairness_fn(sat_a, sat_b),
    )


def evaluate(
    results: Mapping[SimJob, JobResult],
    workload_a: str,
    workload_b: str,
    manager: str,
) -> PairEvaluation:
    """Normalize one (pair, manager) evaluation from its jobs' results.

    ``results`` holds at least :func:`~repro.experiments.jobs.evaluation_jobs`
    of the evaluation.  This is the single normalization path: the
    harness, campaigns and sweeps all call it, so records are bit-identical
    regardless of which executed the simulations.
    """
    return evaluate_outcome(
        results[baseline_job(workload_a, workload_b)],
        results[pair_job(workload_a, workload_b, manager)],
        results[reference_job(workload_a)],
        results[reference_job(workload_b)],
    )


class ExperimentHarness:
    """Memoizing front end over the engine for all figures and tables.

    Args:
        config: campaign configuration.
        cache: optional persistent :class:`ResultCache`.  Lookups consult
            memory, then disk, and only then simulate — so figure scripts,
            sweeps, and CI re-runs only simulate what changed since the
            cache was written.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self._engine = ExperimentEngine(self.config, jobs=1, cache=cache)
        self._results: dict[SimJob, JobResult] = {}

    def _run(self, jobs: Iterable[SimJob]) -> dict[SimJob, JobResult]:
        """The memo, after running whichever of ``jobs`` it lacks."""
        missing = [job for job in jobs if job not in self._results]
        if missing:
            self._results.update(self._engine.run(missing))
        return self._results

    def uncapped_reference(self, workload: str) -> ReferenceStats:
        """Solo run of a workload with every cap at TDP (cached)."""
        job = reference_job(workload)
        return self._run((job,))[job]

    def constant_baseline(self, workload_a: str, workload_b: str) -> PairOutcome:
        """The pair's constant-allocation run (cached; the speedup baseline)."""
        job = baseline_job(workload_a, workload_b)
        return self._run((job,))[job]

    def run_pair(
        self,
        workload_a: str,
        workload_b: str,
        manager_name: str,
        record_telemetry: bool = False,
    ) -> PairOutcome | tuple[PairOutcome, SimulationResult]:
        """Run one pair under one manager and collect raw timings.

        Args:
            workload_a / workload_b: names, placed on halves 0 / 1.
            manager_name: registry name (``constant``/``slurm``/``oracle``/
                ``dps``).
            record_telemetry: also return the full
                :class:`SimulationResult` (with traces) alongside the
                outcome; such a run bypasses every cache.

        Returns:
            The :class:`PairOutcome`, or ``(outcome, result)`` when
            telemetry was requested.
        """
        job = pair_job(workload_a, workload_b, manager_name)
        if record_telemetry:
            return simulate(self.config, job, record_telemetry=True)
        return self._run((job,))[job]

    def evaluate_pair(
        self, workload_a: str, workload_b: str, manager_name: str
    ) -> PairEvaluation:
        """Run (or reuse) the baseline and references, run the manager,
        normalize.

        Returns:
            A fully normalized :class:`PairEvaluation`.
        """
        results = self._run(
            evaluation_jobs(workload_a, workload_b, manager_name)
        )
        return evaluate(results, workload_a, workload_b, manager_name)

    def evaluate_managers(
        self,
        workload_a: str,
        workload_b: str,
        manager_names: tuple[str, ...] = ("slurm", "dps"),
    ) -> dict[str, PairEvaluation]:
        """Evaluate several managers on the same pair.

        Returns:
            Mapping manager name → :class:`PairEvaluation`.
        """
        return {
            m: self.evaluate_pair(workload_a, workload_b, m)
            for m in manager_names
        }
