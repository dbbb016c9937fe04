"""Campaign runner: execute whole benchmark groups and persist results.

This is the reproduction of the artifact's ``run_experiment.sh``: it runs
every workload pair of the selected §5.2 groups under each group's
managers, normalizes against the constant-allocation baseline, and collects
one flat record per (group, pair, manager) — serializable to JSON so the
figure generators and external analysis can consume a finished campaign
without re-simulating.

Execution goes through the parallel engine
(:mod:`repro.experiments.engine`): the campaign is enumerated as a list of
:class:`~repro.experiments.jobs.SimJob` (the engine runs shared references
and baselines once), fanned out over ``jobs`` local worker processes in
one batch, and optionally backed by a persistent result cache.  Records
are assembled in deterministic nested-loop order from the result map, so
parallel and sequential runs are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.experiments.engine import (
    EngineTelemetry,
    ExperimentEngine,
    ProgressFn,
    ResultCache,
)
from repro.experiments.harness import ExperimentConfig, evaluate
from repro.experiments.jobs import SimJob, evaluation_jobs
from repro.experiments.setups import (
    GROUP_MANAGERS,
    high_utility_pairs,
    low_utility_pairs,
    spark_npb_pairs,
)
from repro.metrics.summary import GroupStats, summarize

__all__ = ["ExperimentRecord", "CampaignResult", "Campaign"]

_GROUP_PAIRS: dict[str, Callable[[], list[tuple[str, str]]]] = {
    "low_utility": low_utility_pairs,
    "high_utility": high_utility_pairs,
    "spark_npb": spark_npb_pairs,
}

#: Accepted campaign serialization format tags.  v1 predates the parallel
#: engine (no telemetry block); v2 adds the optional ``engine`` document.
_FORMAT_V1 = "repro-campaign-v1"
_FORMAT_V2 = "repro-campaign-v2"


@dataclass(frozen=True)
class ExperimentRecord:
    """One (group, pair, manager) measurement.

    Attributes mirror :class:`~repro.experiments.harness.PairEvaluation`,
    flattened for serialization.
    """

    group: str
    workload_a: str
    workload_b: str
    manager: str
    speedup_a: float
    speedup_b: float
    hmean_speedup: float
    satisfaction_a: float
    satisfaction_b: float
    fairness: float


@dataclass
class CampaignResult:
    """All records of a finished campaign.

    Attributes:
        records: one per (group, pair, manager).
        seed: the campaign seed (for provenance).
        time_scale: the duration multiplier used.
        engine: execution telemetry of the run that produced the records
            (worker count, cache hit/miss traffic, per-job wall times);
            None for campaigns loaded from v1 JSON.
    """

    records: list[ExperimentRecord] = field(default_factory=list)
    seed: int = 0
    time_scale: float = 1.0
    engine: EngineTelemetry | None = None

    def for_group(self, group: str) -> list[ExperimentRecord]:
        """Records of one group, in run order."""
        return [r for r in self.records if r.group == group]

    def for_manager(self, manager: str) -> list[ExperimentRecord]:
        """Records of one manager across groups."""
        return [r for r in self.records if r.manager == manager]

    def _grouped(
        self, value: Callable[[ExperimentRecord], float]
    ) -> dict[tuple[str, str], list[float]]:
        """Single-pass (group, manager) groupby of one record field.

        One scan over the records instead of one filtered scan per key —
        the summaries stay O(records) however many (group, manager) cells
        a campaign has.  Keys come out sorted, so the result is
        independent of record order.
        """
        groups: dict[tuple[str, str], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.group, r.manager), []).append(value(r))
        return dict(sorted(groups.items()))

    def summary(self) -> dict[tuple[str, str], GroupStats]:
        """Per-(group, manager) statistics over the paired hmean speedups."""
        return {
            key: summarize(vals)
            for key, vals in self._grouped(
                lambda r: r.hmean_speedup
            ).items()
        }

    def mean_fairness(self) -> dict[tuple[str, str], float]:
        """Per-(group, manager) mean fairness (the §6.4 aggregates)."""
        return {
            key: float(np.mean(vals))
            for key, vals in self._grouped(lambda r: r.fairness).items()
        }

    def to_json(self) -> str:
        """Serialize the campaign (format tag included)."""
        doc = {
            "format": _FORMAT_V2,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "records": [asdict(r) for r in self.records],
            "engine": (
                self.engine.to_doc() if self.engine is not None else None
            ),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        """Reconstruct a campaign from :meth:`to_json` output.

        Accepts both the current v2 format and pre-engine v1 documents
        (which simply lack telemetry).

        Raises:
            ValueError: unknown format tag.
        """
        doc = json.loads(text)
        fmt = doc.get("format")
        if fmt not in (_FORMAT_V1, _FORMAT_V2):
            raise ValueError(f"unsupported campaign format {fmt!r}")
        engine = None
        if fmt == _FORMAT_V2 and doc.get("engine") is not None:
            engine = EngineTelemetry.from_doc(doc["engine"])
        return cls(
            records=[ExperimentRecord(**r) for r in doc["records"]],
            seed=int(doc["seed"]),
            time_scale=float(doc["time_scale"]),
            engine=engine,
        )


class Campaign:
    """Run the paper's benchmark groups end to end.

    Args:
        config: harness configuration.
        groups: which §5.2 groups to run (default: all three).
        managers: manager override; default is each group's paper set
            (:data:`~repro.experiments.setups.GROUP_MANAGERS`).
        limit_pairs: cap on pairs per group (None = all; useful for smoke
            campaigns, the artifact's "toy examples" mode).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        groups: Iterable[str] = ("low_utility", "high_utility", "spark_npb"),
        managers: tuple[str, ...] | None = None,
        limit_pairs: int | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.groups = tuple(groups)
        for g in self.groups:
            if g not in _GROUP_PAIRS:
                raise ValueError(
                    f"unknown group {g!r}; expected one of "
                    f"{sorted(_GROUP_PAIRS)}"
                )
        if limit_pairs is not None and limit_pairs < 1:
            raise ValueError(f"limit_pairs must be >= 1, got {limit_pairs}")
        self.managers = managers
        self.limit_pairs = limit_pairs

    def plan(self) -> list[tuple[str, tuple[str, str], str]]:
        """The (group, pair, manager) evaluations, deterministic order."""
        out: list[tuple[str, tuple[str, str], str]] = []
        for group in self.groups:
            pairs = _GROUP_PAIRS[group]()
            if self.limit_pairs is not None:
                pairs = pairs[: self.limit_pairs]
            managers = self.managers or GROUP_MANAGERS[group]
            for pair in pairs:
                for manager in managers:
                    out.append((group, pair, manager))
        return out

    def simulation_jobs(self) -> list[SimJob]:
        """Every simulation the campaign needs (duplicates included; the
        engine deduplicates)."""
        jobs: list[SimJob] = []
        for _, (a, b), manager in self.plan():
            jobs.extend(evaluation_jobs(a, b, manager))
        return jobs

    def run(
        self,
        progress: Callable[[str, tuple[str, str], str], None] | None = None,
        jobs: int = 1,
        cache: ResultCache | None = None,
        engine_progress: ProgressFn | None = None,
    ) -> CampaignResult:
        """Execute the campaign through the parallel engine.

        Args:
            progress: optional callback invoked per (group, pair, manager)
                evaluation as records are assembled — hook for logging
                long campaigns (kept from the sequential API).
            jobs: worker-process count; 1 runs inline.  Records are
                bit-identical for any value.
            cache: optional :class:`~repro.experiments.engine.ResultCache`;
                hits skip simulation, fresh results are persisted.
            engine_progress: optional per-*job* callback
                ``(done, total, job, wall_s, cached, eta_s)``.
        """
        engine = ExperimentEngine(self.config, jobs=jobs, cache=cache)
        results = engine.run(self.simulation_jobs(), progress=engine_progress)

        result = CampaignResult(
            seed=self.config.seed,
            time_scale=self.config.sim.time_scale,
            engine=engine.last_telemetry,
        )
        for group, (a, b), manager in self.plan():
            if progress is not None:
                progress(group, (a, b), manager)
            ev = evaluate(results, a, b, manager)
            result.records.append(
                ExperimentRecord(
                    group=group,
                    workload_a=a,
                    workload_b=b,
                    manager=manager,
                    speedup_a=ev.speedup_a,
                    speedup_b=ev.speedup_b,
                    hmean_speedup=ev.hmean_speedup,
                    satisfaction_a=ev.satisfaction_a,
                    satisfaction_b=ev.satisfaction_b,
                    fairness=ev.fairness,
                )
            )
        return result
