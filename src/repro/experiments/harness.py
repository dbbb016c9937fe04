"""Experiment harness: run workload pairs under managers, normalize results.

This is the reproduction of the artifact's ``exp.py``: "one can execute one
workload with the script by specifying the workloads on two clusters
respectively, the power management system, and workload repeating times".
The harness additionally owns the two reference measurements every figure
needs:

* the **uncapped reference** of each workload (solo run with all caps at
  TDP) — the denominator of satisfaction (Eq. 1);
* the **constant-allocation baseline** of each *pair* — the denominator of
  every speedup (Appendix: "The harmonic mean throughput time of each
  workload in the Constant Allocation group will be the baseline").

Both are cached per configuration, mirroring how the paper measures its
baselines once and reuses them across figures.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field

from repro.cluster.simulator import Assignment, Simulation, SimulationResult
from repro.core.config import (
    ClusterSpec,
    DPSConfig,
    PerfModelConfig,
    RaplConfig,
    SimulationConfig,
    StatelessConfig,
)
from repro.core.managers import PowerManager, create_manager
from repro.metrics.fairness import fairness as fairness_fn
from repro.metrics.satisfaction import satisfaction as satisfaction_fn
from repro.metrics.speedup import hmean, paired_hmean_speedup
from repro.workloads.registry import get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentHarness",
    "PairOutcome",
    "PairEvaluation",
    "ReferenceStats",
    "evaluate_outcome",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of one experimental campaign.

    Attributes:
        cluster: topology/budget (defaults: the paper's testbed).
        sim: step/scale/gap settings; ``time_scale`` below 1 shrinks runs.
        perf: cap-to-performance model.
        rapl: RAPL noise/lag.
        dps: DPS configuration used whenever the ``"dps"`` manager runs.
        slurm: MIMD configuration used for the ``"slurm"`` manager.
        repeats: completed runs required of each workload per simulation
            (the paper uses >= 10 on hardware; simulation variance is far
            smaller, so a handful suffices).
        seed: campaign master seed; per-(pair, manager) seeds derive from it
            deterministically.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    perf: PerfModelConfig = field(default_factory=PerfModelConfig)
    rapl: RaplConfig = field(default_factory=RaplConfig)
    dps: DPSConfig = field(default_factory=DPSConfig)
    slurm: StatelessConfig = field(default_factory=StatelessConfig)
    repeats: int = 3
    seed: int = 42

    def make_manager(self, name: str) -> PowerManager:
        """Instantiate a fresh manager with this campaign's configuration."""
        if name in ("dps", "dps+"):
            return create_manager(name, config=self.dps)
        if name in ("slurm", "hierarchical"):
            return create_manager(name, config=self.slurm)
        return create_manager(name)

    def derive_seed(self, *tokens: str) -> int:
        """Deterministic per-experiment seed from the campaign seed."""
        h = zlib.crc32("/".join(tokens).encode())
        return (self.seed * 1_000_003 + h) % (2**31 - 1)


@dataclass(frozen=True)
class ReferenceStats:
    """Uncapped solo-run statistics of one workload.

    Attributes:
        mean_duration_s: mean throughput time with caps at TDP.
        mean_power_w: mean per-active-socket power with caps at TDP
            (Eq. 1's denominator).
    """

    mean_duration_s: float
    mean_power_w: float


@dataclass(frozen=True)
class PairOutcome:
    """Raw (un-normalized) result of one pair under one manager.

    Attributes:
        manager: manager name.
        workload_a / workload_b: the pair, half 0 / half 1.
        times_a_s / times_b_s: per-run throughput times.
        power_a_w / power_b_w: mean per-socket power over runs.
        max_caps_sum_w: budget-respect check from the simulation.
        sim_time_s: simulated duration.
    """

    manager: str
    workload_a: str
    workload_b: str
    times_a_s: tuple[float, ...]
    times_b_s: tuple[float, ...]
    power_a_w: float
    power_b_w: float
    max_caps_sum_w: float
    sim_time_s: float


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
    """Normalize one raw outcome against its baseline and references.

    This is the single normalization path: the in-process harness and the
    parallel campaign engine both call it, so records are bit-identical
    regardless of which executed the simulations.
    """
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


class ExperimentHarness:
    """Caching front end over the simulator for all figures and tables.

    Args:
        config: campaign configuration.
        cache: optional persistent result-cache backend (duck-typed to
            :class:`repro.experiments.engine.ResultCache`).  When set, the
            in-memory reference/baseline/pair caches are backed by it:
            lookups consult memory, then disk, and only then simulate —
            so figure scripts, sweeps, and CI re-runs only simulate what
            changed since the cache was written.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        cache: "object | None" = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.cache = cache
        self._reference_cache: dict[str, ReferenceStats] = {}
        self._baseline_cache: dict[tuple[str, str], PairOutcome] = {}

    # ------------------------------------------------------------------
    # Persistent-cache plumbing
    # ------------------------------------------------------------------

    def _cache_load(self, job) -> "object | None":
        """Decoded persistent-cache result for a job, or None."""
        if self.cache is None:
            return None
        from repro.experiments.engine import job_digest  # Avoid a cycle.

        return self.cache.load_result(job_digest(self.config, job))

    def _cache_store(self, job, result) -> None:
        if self.cache is None:
            return
        from repro.experiments.engine import (  # Local to avoid a cycle.
            encode_result,
            job_digest,
        )

        self.cache.store(
            job_digest(self.config, job), job.key, encode_result(result)
        )

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def _assign_pair(
        self, spec_a: WorkloadSpec, spec_b: WorkloadSpec
    ) -> list[Assignment]:
        """Place workload A on cluster half 0 and B on half 1."""
        cluster = self.config.cluster
        return [
            Assignment(spec=spec_a, unit_ids=cluster.half_unit_ids(0)),
            Assignment(spec=spec_b, unit_ids=cluster.half_unit_ids(1)),
        ]

    def _simulate(
        self,
        assignments: list[Assignment],
        manager: PowerManager,
        seed: int,
        cluster_spec: ClusterSpec | None = None,
        record_telemetry: bool = False,
    ) -> SimulationResult:
        sim = Simulation(
            cluster_spec=cluster_spec or self.config.cluster,
            manager=manager,
            assignments=assignments,
            target_runs=self.config.repeats,
            sim_config=self.config.sim,
            perf_config=self.config.perf,
            rapl_config=self.config.rapl,
            seed=seed,
            record_telemetry=record_telemetry,
        )
        result = sim.run()
        if result.truncated:
            names = [a.spec.name for a in assignments]
            raise RuntimeError(
                f"simulation of {names} under {manager.name} hit the "
                f"{self.config.sim.max_steps}-step limit; raise max_steps "
                "or time_scale"
            )
        return result

    # ------------------------------------------------------------------
    # Reference and baseline runs
    # ------------------------------------------------------------------

    def uncapped_reference(self, workload: str) -> ReferenceStats:
        """Solo run of a workload with every cap at TDP (cached).

        Implemented as a constant manager on a budget of 100 % of aggregate
        TDP, so the "cap" never binds — the paper's "average power under no
        cap" condition.
        """
        if workload in self._reference_cache:
            return self._reference_cache[workload]
        from repro.experiments.jobs import reference_job  # Avoid a cycle.

        cached = self._cache_load(reference_job(workload))
        if isinstance(cached, ReferenceStats):
            self._reference_cache[workload] = cached
            return cached
        spec = get_workload(workload)
        uncapped_cluster = dataclasses.replace(
            self.config.cluster, budget_fraction=1.0
        )
        assignments = [
            Assignment(spec=spec, unit_ids=uncapped_cluster.half_unit_ids(0))
        ]
        result = self._simulate(
            assignments,
            self.config.make_manager("constant"),
            seed=self.config.derive_seed("reference", workload),
            cluster_spec=uncapped_cluster,
        )
        execution = result.execution(workload)
        stats = ReferenceStats(
            mean_duration_s=execution.mean_duration_s(),
            mean_power_w=execution.mean_power_w(),
        )
        self._reference_cache[workload] = stats
        self._cache_store(reference_job(workload), stats)
        return stats

    def constant_baseline(self, workload_a: str, workload_b: str) -> PairOutcome:
        """The pair's constant-allocation run (cached; the speedup baseline)."""
        key = (workload_a, workload_b)
        if key not in self._baseline_cache:
            self._baseline_cache[key] = self.run_pair(
                workload_a, workload_b, "constant"
            )
        return self._baseline_cache[key]

    # ------------------------------------------------------------------
    # Pair runs and evaluation
    # ------------------------------------------------------------------

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
                outcome.

        Returns:
            The :class:`PairOutcome`, or ``(outcome, result)`` when
            telemetry was requested.
        """
        from repro.experiments.jobs import pair_job  # Avoid a cycle.

        job = pair_job(workload_a, workload_b, manager_name)
        if not record_telemetry:
            cached = self._cache_load(job)
            if isinstance(cached, PairOutcome):
                return cached
        spec_a = get_workload(workload_a)
        spec_b = get_workload(workload_b)
        if spec_b.name == spec_a.name:
            # A self-pair (seven of the high-utility group's 49): the
            # simulation keys its results by name, so half 1 gets its own.
            spec_b = dataclasses.replace(spec_b, name=f"{spec_b.name}@1")
        manager = self.config.make_manager(manager_name)
        result = self._simulate(
            self._assign_pair(spec_a, spec_b),
            manager,
            seed=self.config.derive_seed(workload_a, workload_b, manager_name),
            record_telemetry=record_telemetry,
        )
        exec_a = result.execution(spec_a.name)
        exec_b = result.execution(spec_b.name)
        outcome = PairOutcome(
            manager=manager_name,
            workload_a=workload_a,
            workload_b=workload_b,
            times_a_s=tuple(r.duration_s for r in exec_a.records),
            times_b_s=tuple(r.duration_s for r in exec_b.records),
            power_a_w=exec_a.mean_power_w(),
            power_b_w=exec_b.mean_power_w(),
            max_caps_sum_w=result.max_caps_sum_w,
            sim_time_s=result.sim_time_s,
        )
        if record_telemetry:
            return outcome, result
        self._cache_store(job, outcome)
        return outcome

    def evaluate_pair(
        self, workload_a: str, workload_b: str, manager_name: str
    ) -> PairEvaluation:
        """Run (or reuse) the baseline, run the manager, normalize.

        Returns:
            A fully normalized :class:`PairEvaluation`.
        """
        baseline = self.constant_baseline(workload_a, workload_b)
        if manager_name == "constant":
            outcome = baseline
        else:
            maybe = self.run_pair(workload_a, workload_b, manager_name)
            assert isinstance(maybe, PairOutcome)
            outcome = maybe
        return evaluate_outcome(
            baseline,
            outcome,
            self.uncapped_reference(workload_a),
            self.uncapped_reference(workload_b),
        )

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
