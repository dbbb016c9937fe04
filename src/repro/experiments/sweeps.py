"""Parameter sweeps the paper could not afford (§6 preamble).

The paper notes that "experiments with multiple power limits lower than
the TDP can provide a more comprehensive evaluation of DPS", but ran only
the 66.7 % budget because each configuration costs >1,000 machine-hours.
The simulator removes that constraint; this module provides:

* :func:`budget_sweep` — the manager comparison across cluster budget
  fractions, exposing where dynamic management matters most (tight
  budgets) and where every manager converges (ample budgets);
* :func:`noise_sweep` — DPS robustness across RAPL measurement-noise
  levels (complements the Kalman ablation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.harness import ExperimentConfig, evaluate
from repro.experiments.jobs import evaluation_jobs

__all__ = ["SweepPoint", "budget_sweep", "noise_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, manager) measurement of a sweep.

    Attributes:
        parameter: swept value (budget fraction or noise std).
        manager: manager name.
        hmean_speedup: paired harmonic-mean speedup vs constant allocation
            *at the same parameter value*.
        fairness: Eq. 2 fairness of the pair.
    """

    parameter: float
    manager: str
    hmean_speedup: float
    fairness: float


def _sweep(
    values: tuple[float, ...],
    point_config: Callable[[float], ExperimentConfig],
    pair: tuple[str, str],
    managers: tuple[str, ...],
    cache: ResultCache | None,
    jobs: int,
) -> list[SweepPoint]:
    """One engine run per swept value, its managers normalized together.

    References and the baseline are shared across a point's managers;
    ``jobs=1`` runs every simulation inline, and any ``jobs`` gives the
    same bits.
    """
    a, b = pair
    points = []
    for value in values:
        engine = ExperimentEngine(point_config(value), jobs=jobs, cache=cache)
        results = engine.run(
            job for manager in managers for job in evaluation_jobs(a, b, manager)
        )
        for manager in managers:
            ev = evaluate(results, a, b, manager)
            points.append(
                SweepPoint(
                    parameter=value,
                    manager=manager,
                    hmean_speedup=ev.hmean_speedup,
                    fairness=ev.fairness,
                )
            )
    return points


def budget_sweep(
    config: ExperimentConfig,
    pair: tuple[str, str] = ("kmeans", "gmm"),
    budget_fractions: tuple[float, ...] = (0.5, 0.6, 2 / 3, 0.8, 0.9),
    managers: tuple[str, ...] = ("slurm", "dps"),
    cache: ResultCache | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Compare managers across cluster budget fractions.

    Each budget fraction gets its own constant-allocation baseline (the
    per-socket constant cap moves with the budget), exactly as the paper
    normalizes within its single 66.7 % configuration.

    Args:
        config: base campaign configuration (cluster/sim/perf settings).
        pair: the workload pair swept.
        budget_fractions: cluster budget as fractions of aggregate TDP.
        managers: managers evaluated at each point.
        cache: optional persistent result cache shared by every point
            (each point's config replaces knobs, so digests stay distinct).
        jobs: engine worker-process count per point; 1 runs inline
            (bit-identical either way).

    Returns:
        One :class:`SweepPoint` per (fraction, manager), sweep order.
    """
    if not budget_fractions:
        raise ValueError("budget_fractions must be non-empty")

    def point_config(fraction: float) -> ExperimentConfig:
        if not 0 < fraction <= 1:
            raise ValueError(
                f"budget fractions must be in (0, 1], got {fraction}"
            )
        cluster = dataclasses.replace(config.cluster, budget_fraction=fraction)
        return dataclasses.replace(config, cluster=cluster)

    return _sweep(budget_fractions, point_config, pair, managers, cache, jobs)


def noise_sweep(
    config: ExperimentConfig,
    pair: tuple[str, str] = ("kmeans", "gmm"),
    noise_stds_w: tuple[float, ...] = (0.0, 1.5, 4.0, 8.0, 16.0),
    managers: tuple[str, ...] = ("slurm", "dps"),
    cache: ResultCache | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Compare managers across RAPL measurement-noise levels.

    Args:
        config: base campaign configuration.
        pair: the workload pair swept.
        noise_stds_w: Gaussian measurement-noise standard deviations.
        managers: managers evaluated at each point.
        cache: optional persistent result cache shared by every point.
        jobs: engine worker-process count per point; 1 runs inline
            (bit-identical either way).

    Returns:
        One :class:`SweepPoint` per (noise, manager), sweep order.
    """
    if not noise_stds_w:
        raise ValueError("noise_stds_w must be non-empty")

    def point_config(noise: float) -> ExperimentConfig:
        if noise < 0:
            raise ValueError(f"noise stds must be >= 0, got {noise}")
        rapl = dataclasses.replace(config.rapl, noise_std_w=noise)
        return dataclasses.replace(config, rapl=rapl)

    return _sweep(noise_stds_w, point_config, pair, managers, cache, jobs)
