"""Simulation jobs: what an evaluation runs, and the one body that runs it.

A campaign is >100 (group, pair, manager) evaluations, but the simulations
behind them are heavily shared: every evaluation of a pair divides by the
same constant-allocation baseline, and every satisfaction number divides by
the per-*workload* uncapped reference.  This module names each simulation
as a :class:`SimJob` — a small, picklable, order-able value object the
engine deduplicates and fans out over a process pool — and holds
:func:`simulate`, which runs one, and :func:`build`, the only place an
experiment's :class:`~repro.cluster.simulator.Simulation` is built.

Job kinds
---------

``reference``
    Uncapped solo run of one workload (caps at TDP) — the denominator of
    satisfaction (Eq. 1).  Needed once per distinct workload.
``baseline``
    Constant-allocation run of a pair — the denominator of every speedup
    (Appendix: "The harmonic mean throughput time of each workload in the
    Constant Allocation group will be the baseline").  Needed once per
    distinct pair.
``pair``
    One pair under one non-constant manager — the actual evaluation run.

Each job's seed derives deterministically from the campaign seed and the
job's workload/manager names (``ExperimentConfig.derive_seed``), so the
same job always runs the same simulation regardless of which worker
executes it or in which order.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence, Union

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
from repro.workloads.registry import get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ExperimentConfig",
    "JobResult",
    "PairOutcome",
    "ReferenceStats",
    "SimJob",
    "reference_job",
    "baseline_job",
    "pair_job",
    "evaluation_jobs",
    "build",
    "simulate",
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


JobResult = Union[ReferenceStats, PairOutcome]


@dataclass(frozen=True, order=True)
class SimJob:
    """One simulation a campaign needs, as a picklable value object.

    Attributes:
        kind: ``"reference"``, ``"baseline"``, or ``"pair"``.
        workload_a: first (or only, for references) workload name.
        workload_b: second workload name (empty for references).
        manager: manager registry name (``"constant"`` for references and
            baselines).
    """

    kind: str
    workload_a: str
    workload_b: str = ""
    manager: str = "constant"

    def __post_init__(self) -> None:
        if self.kind not in ("reference", "baseline", "pair"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if not self.workload_a:
            raise ValueError("workload_a must be non-empty")
        if self.kind == "reference" and self.workload_b:
            raise ValueError("reference jobs take a single workload")
        if self.kind in ("baseline", "pair") and not self.workload_b:
            raise ValueError(f"{self.kind} jobs need a workload pair")
        if self.kind in ("reference", "baseline") and self.manager != "constant":
            raise ValueError(
                f"{self.kind} jobs always run the constant manager, "
                f"got {self.manager!r}"
            )
        if self.kind == "pair" and self.manager == "constant":
            raise ValueError(
                "a constant pair run IS the baseline; use baseline_job()"
            )

    @property
    def key(self) -> str:
        """Stable human-readable identity, e.g. ``pair:kmeans/gmm:dps``."""
        if self.kind == "reference":
            return f"reference:{self.workload_a}"
        return f"{self.kind}:{self.workload_a}/{self.workload_b}:{self.manager}"

    @property
    def tokens(self) -> tuple[str, ...]:
        """The digest/seed token tuple identifying this job's simulation."""
        if self.kind == "reference":
            return ("reference", self.workload_a)
        return (self.kind, self.workload_a, self.workload_b, self.manager)


def reference_job(workload: str) -> SimJob:
    """The uncapped solo reference run of one workload."""
    return SimJob(kind="reference", workload_a=workload)


def baseline_job(workload_a: str, workload_b: str) -> SimJob:
    """The constant-allocation baseline run of one pair."""
    return SimJob(kind="baseline", workload_a=workload_a, workload_b=workload_b)


def pair_job(workload_a: str, workload_b: str, manager: str) -> SimJob:
    """One pair under one non-constant manager.

    A request for the ``constant`` manager resolves to the baseline job —
    the evaluation reuses the baseline outcome rather than re-running it.
    """
    if manager == "constant":
        return baseline_job(workload_a, workload_b)
    return SimJob(
        kind="pair",
        workload_a=workload_a,
        workload_b=workload_b,
        manager=manager,
    )


def evaluation_jobs(
    workload_a: str, workload_b: str, manager: str
) -> tuple[SimJob, ...]:
    """Every job one (pair, manager) evaluation needs: the baseline and the
    two references first, then the manager's run (none for ``constant``)."""
    jobs = (
        baseline_job(workload_a, workload_b),
        reference_job(workload_a),
        reference_job(workload_b),
    )
    run = pair_job(workload_a, workload_b, manager)
    return jobs if run.kind == "baseline" else (*jobs, run)


def build(
    config: ExperimentConfig,
    workloads: Sequence[str | WorkloadSpec],
    manager: str,
    tokens: Sequence[str],
    *,
    uncapped: bool = False,
    target_runs: int | None = None,
    **simulation_options: Any,
) -> Simulation:
    """The one recipe that turns an experiment into a :class:`Simulation`.

    Half *k* of the cluster runs ``workloads[k]`` (a name or a spec); a
    name placed twice runs its second copy as ``name@1``, since results
    are keyed by name.  ``uncapped`` budgets 100 % of aggregate TDP, so
    the cap never binds.  The seed is ``config.derive_seed(*tokens)``,
    ``target_runs`` defaults to ``config.repeats``, and the
    ``simulation_options`` go to :class:`Simulation` unchanged.
    """
    cluster = config.cluster
    if uncapped:
        cluster = dataclasses.replace(cluster, budget_fraction=1.0)
    specs: list[WorkloadSpec] = []
    for half, workload in enumerate(workloads):
        spec = get_workload(workload) if isinstance(workload, str) else workload
        if any(s.name == spec.name for s in specs):
            spec = dataclasses.replace(spec, name=f"{spec.name}@{half}")
        specs.append(spec)
    return Simulation(
        cluster_spec=cluster,
        manager=config.make_manager(manager),
        assignments=[
            Assignment(spec=spec, unit_ids=cluster.half_unit_ids(half))
            for half, spec in enumerate(specs)
        ],
        target_runs=config.repeats if target_runs is None else target_runs,
        sim_config=config.sim,
        perf_config=config.perf,
        rapl_config=config.rapl,
        seed=config.derive_seed(*tokens),
        **simulation_options,
    )


def simulate(
    config: ExperimentConfig, job: SimJob, record_telemetry: bool = False
) -> tuple[JobResult, SimulationResult]:
    """Run one job's simulation from scratch; the result and the raw run.

    A reference is the constant manager on an uncapped cluster (the
    paper's "average power under no cap"); a pair places workload A on
    cluster half 0 and B on half 1.

    Raises:
        RuntimeError: the simulation hit ``config.sim.max_steps``.
    """
    reference = job.kind == "reference"
    sim = build(
        config,
        [w for w in (job.workload_a, job.workload_b) if w],
        job.manager,
        # A reference seeds from its job tokens; a pair's drop the kind.
        job.tokens if reference else job.tokens[1:],
        uncapped=reference,
        record_telemetry=record_telemetry,
    )
    result = sim.run()
    if result.truncated:
        names = [a.spec.name for a in sim.assignments]
        raise RuntimeError(
            f"simulation of {names} under {sim.manager.name} hit the "
            f"{config.sim.max_steps}-step limit; raise max_steps "
            "or time_scale"
        )
    if reference:
        (execution,) = result.executions
        stats = ReferenceStats(
            mean_duration_s=execution.mean_duration_s(),
            mean_power_w=execution.mean_power_w(),
        )
        return stats, result
    exec_a, exec_b = result.executions
    outcome = PairOutcome(
        manager=job.manager,
        workload_a=job.workload_a,
        workload_b=job.workload_b,
        times_a_s=tuple(r.duration_s for r in exec_a.records),
        times_b_s=tuple(r.duration_s for r in exec_b.records),
        power_a_w=exec_a.mean_power_w(),
        power_b_w=exec_b.mean_power_w(),
        max_caps_sum_w=result.max_caps_sum_w,
        sim_time_s=result.sim_time_s,
    )
    return outcome, result
