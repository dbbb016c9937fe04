"""Data generators for every figure in the paper (DESIGN.md §4).

Each ``figure*`` function returns a plain dataclass of labels and numeric
series — the exact rows/series the paper plots — computed through the
harness.  Rendering to text is in :mod:`repro.experiments.reporting`; the
benchmarks call these functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.harness import ExperimentConfig, ExperimentHarness
from repro.experiments.jobs import build
from repro.experiments.setups import (
    demanding_spark_names,
    low_utility_pairs,
    spark_npb_pairs,
)
from repro.metrics.fairness import fairness_performance_correlation
from repro.metrics.speedup import hmean
from repro.workloads.registry import workload_names

__all__ = [
    "Figure1Data",
    "FigureBars",
    "Figure7Data",
    "figure1",
    "figure2",
    "figure4",
    "figure5a",
    "figure5b",
    "figure6",
    "figure7",
]


# ---------------------------------------------------------------------------
# Figure 1 — motivational two-node example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Data:
    """Cap schedules of the motivational example (paper Figure 1).

    Attributes:
        timesteps: the T0..T4 axis.
        demand: true per-node demand at each timestep, shape ``(T, 2)``.
        caps: manager name → cap matrix, shape ``(T, 2)``.
        budget_w: the two-node budget.
    """

    timesteps: tuple[int, ...]
    demand: np.ndarray
    caps: dict[str, np.ndarray]
    budget_w: float


def figure1(
    managers: tuple[str, ...] = ("constant", "oracle", "slurm", "dps"),
    config: ExperimentConfig | None = None,
) -> Figure1Data:
    """Re-create the Figure 1 scenario by direct manager stepping.

    Two nodes; node 0 raises its demand to maximum at T1, node 1 follows at
    T3; the budget covers 1.5x the per-node maximum, so once both are high
    the budget binds.  Managers are stepped on the *true* power sequence
    that results from their own caps (a 2-unit closed loop without noise),
    exposing exactly the stateless-starvation story of the figure.
    """
    cfg = config or ExperimentConfig()
    max_w, low_w = 160.0, 30.0
    budget = 1.5 * max_w
    # Demand per node per timestep (T0..T4): node 0 rises at T1, node 1 at T3.
    demand = np.array(
        [
            [low_w, low_w],
            [max_w, low_w],
            [max_w, low_w],
            [max_w, max_w],
            [max_w, max_w],
        ]
    )
    # Give the stateful manager a short prefix so its history exists,
    # mirroring the paper's assumption of an already-running system.  The
    # prefix demand sits just under the initial cap's decrease threshold so
    # no manager walks its caps down before T0 (the figure starts from the
    # constant allocation, per the paper's top row).
    warmup = 6
    warmup_w = budget / 2 * 0.9
    full_demand = np.vstack([np.full((warmup, 2), warmup_w), demand])

    caps_out: dict[str, np.ndarray] = {}
    for name in managers:
        manager = cfg.make_manager(name)
        manager.bind(
            n_units=2,
            budget_w=budget,
            max_cap_w=max_w,
            min_cap_w=0.0,
            dt_s=1.0,
            rng=np.random.default_rng(cfg.derive_seed("figure1", name)),
        )
        trajectory = []
        caps = np.asarray(manager.caps)
        for t in range(full_demand.shape[0]):
            power = np.minimum(full_demand[t], caps)
            caps = manager.step(power, full_demand[t])
            trajectory.append(caps.copy())
        caps_out[name] = np.asarray(trajectory[warmup:])
    return Figure1Data(
        timesteps=tuple(range(demand.shape[0])),
        demand=demand,
        caps=caps_out,
        budget_w=budget,
    )


# ---------------------------------------------------------------------------
# Figure 2 — uncapped power phases
# ---------------------------------------------------------------------------


def figure2(
    workloads: tuple[str, ...] = ("lda", "bayes", "lr"),
    config: ExperimentConfig | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Measured uncapped power traces of the Figure 2 applications.

    Each workload runs solo with every cap at TDP; the returned trace is one
    active socket's true power over time — the same measurement the paper
    plots.

    Returns:
        Mapping workload name → ``(time_s, power_w)``.
    """
    cfg = config or ExperimentConfig()
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in workloads:
        result = build(
            cfg, [name], "constant", ("figure2", name),
            uncapped=True, target_runs=1, record_telemetry=True,
        ).run()
        assert result.telemetry is not None
        out[name] = (result.telemetry.time_s, result.telemetry.power_w[:, 0])
    return out


# ---------------------------------------------------------------------------
# Bar figures (4, 5, 6): per-workload hmean speedups per manager
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureBars:
    """A grouped-bar figure: one value per (workload label, manager).

    Attributes:
        labels: x-axis workload labels, in order.
        series: manager name → per-label speedups (aligned with labels).
        pair_values: manager name → {(a, b) pair → hmean speedup}; the raw
            per-pair values the bars aggregate, kept for the summary-stat
            assertions (e.g. "DPS outperforms SLURM ... mean 8.0 %").
    """

    labels: tuple[str, ...]
    series: dict[str, tuple[float, ...]]
    pair_values: dict[str, dict[tuple[str, str], float]] = field(
        default_factory=dict
    )


def figure4(
    harness: ExperimentHarness,
    managers: tuple[str, ...] = ("slurm", "dps", "oracle"),
    pairs: list[tuple[str, str]] | None = None,
) -> FigureBars:
    """Figure 4: Spark low-utility hmean gain, grouped by demanding workload.

    Each demanding workload is paired with every low-power micro workload;
    the bar is the harmonic mean of the demanding workload's speedups over
    its pairs, normalized to constant allocation.
    """
    pair_list = pairs if pairs is not None else low_utility_pairs()
    labels = tuple(dict.fromkeys(a for a, _ in pair_list))
    series: dict[str, tuple[float, ...]] = {}
    pair_values: dict[str, dict[tuple[str, str], float]] = {}
    for manager in managers:
        per_label: dict[str, list[float]] = {l: [] for l in labels}
        raw: dict[tuple[str, str], float] = {}
        for a, b in pair_list:
            ev = harness.evaluate_pair(a, b, manager)
            per_label[a].append(ev.speedup_a)
            raw[(a, b)] = ev.hmean_speedup
        series[manager] = tuple(hmean(per_label[l]) for l in labels)
        pair_values[manager] = raw
    return FigureBars(labels=labels, series=series, pair_values=pair_values)


def figure5a(
    harness: ExperimentHarness,
    managers: tuple[str, ...] = ("slurm", "dps"),
    mid_workloads: tuple[str, ...] | None = None,
) -> FigureBars:
    """Figure 5(a): each mid-power workload's own speedup when paired with
    the high-power workload (GMM)."""
    mids = (
        mid_workloads
        if mid_workloads is not None
        else tuple(workload_names(suite="spark", power_class="mid"))
    )
    series: dict[str, tuple[float, ...]] = {}
    pair_values: dict[str, dict[tuple[str, str], float]] = {}
    for manager in managers:
        vals = []
        raw: dict[tuple[str, str], float] = {}
        for mid in mids:
            ev = harness.evaluate_pair(mid, "gmm", manager)
            vals.append(ev.speedup_a)
            raw[(mid, "gmm")] = ev.hmean_speedup
        series[manager] = tuple(vals)
        pair_values[manager] = raw
    return FigureBars(labels=mids, series=series, pair_values=pair_values)


def figure5b(
    harness: ExperimentHarness,
    managers: tuple[str, ...] = ("slurm", "dps"),
    workloads: tuple[str, ...] | None = None,
) -> FigureBars:
    """Figure 5(b): harmonic mean of each workload's and its paired GMM's
    speedups."""
    loads = (
        workloads
        if workloads is not None
        else tuple(demanding_spark_names())
    )
    series: dict[str, tuple[float, ...]] = {}
    pair_values: dict[str, dict[tuple[str, str], float]] = {}
    for manager in managers:
        vals = []
        raw: dict[tuple[str, str], float] = {}
        for w in loads:
            ev = harness.evaluate_pair(w, "gmm", manager)
            vals.append(ev.hmean_speedup)
            raw[(w, "gmm")] = ev.hmean_speedup
        series[manager] = tuple(vals)
        pair_values[manager] = raw
    return FigureBars(labels=loads, series=series, pair_values=pair_values)


def figure6(
    harness: ExperimentHarness,
    managers: tuple[str, ...] = ("slurm", "dps"),
    pairs: list[tuple[str, str]] | None = None,
) -> tuple[FigureBars, FigureBars]:
    """Figure 6: Spark x NPB paired hmean gains.

    Returns:
        ``(by_spark, by_npb)`` — the same per-pair hmean speedups grouped by
        the Spark workload (a) and by the NPB workload (b).
    """
    pair_list = pairs if pairs is not None else spark_npb_pairs()
    spark_labels = tuple(dict.fromkeys(a for a, _ in pair_list))
    npb_labels = tuple(dict.fromkeys(b for _, b in pair_list))

    series_spark: dict[str, tuple[float, ...]] = {}
    series_npb: dict[str, tuple[float, ...]] = {}
    pair_values: dict[str, dict[tuple[str, str], float]] = {}
    for manager in managers:
        by_spark: dict[str, list[float]] = {l: [] for l in spark_labels}
        by_npb: dict[str, list[float]] = {l: [] for l in npb_labels}
        raw: dict[tuple[str, str], float] = {}
        for a, b in pair_list:
            ev = harness.evaluate_pair(a, b, manager)
            by_spark[a].append(ev.hmean_speedup)
            by_npb[b].append(ev.hmean_speedup)
            raw[(a, b)] = ev.hmean_speedup
        series_spark[manager] = tuple(hmean(by_spark[l]) for l in spark_labels)
        series_npb[manager] = tuple(hmean(by_npb[l]) for l in npb_labels)
        pair_values[manager] = raw
    return (
        FigureBars(
            labels=spark_labels, series=series_spark, pair_values=pair_values
        ),
        FigureBars(
            labels=npb_labels, series=series_npb, pair_values=pair_values
        ),
    )


# ---------------------------------------------------------------------------
# Figure 7 — fairness distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure7Data:
    """Fairness of the contended workload groups (paper Figure 7 / §6.4).

    Attributes:
        fairness: manager → per-pair fairness values.
        hmean_speedups: manager → matching per-pair hmean speedups.
        mean_fairness: manager → mean fairness.
        correlation: manager → Pearson correlation between fairness and
            hmean speedup (the §6.4 observation).
    """

    fairness: dict[str, tuple[float, ...]]
    hmean_speedups: dict[str, tuple[float, ...]]
    mean_fairness: dict[str, float]
    correlation: dict[str, float]


def figure7(
    harness: ExperimentHarness,
    managers: tuple[str, ...] = ("slurm", "dps"),
    pairs: list[tuple[str, str]] | None = None,
) -> Figure7Data:
    """Fairness distribution over the high-utility (+ optionally Spark-NPB)
    pairs.

    Args:
        harness: the campaign harness.
        managers: managers to compare.
        pairs: pair list; defaults to every demanding workload paired with
            GMM plus a Spark x NPB sample (the groups of Figure 7).
    """
    if pairs is None:
        pairs = [(w, "gmm") for w in demanding_spark_names()] + [
            (w, n)
            for w in ("kmeans", "lr")
            for n in ("ep", "ft")
        ]
    fairness_out: dict[str, tuple[float, ...]] = {}
    speedups_out: dict[str, tuple[float, ...]] = {}
    means: dict[str, float] = {}
    corr: dict[str, float] = {}
    for manager in managers:
        f_vals, s_vals = [], []
        for a, b in pairs:
            ev = harness.evaluate_pair(a, b, manager)
            f_vals.append(ev.fairness)
            s_vals.append(ev.hmean_speedup)
        fairness_out[manager] = tuple(f_vals)
        speedups_out[manager] = tuple(s_vals)
        means[manager] = float(np.mean(f_vals))
        corr[manager] = fairness_performance_correlation(
            np.asarray(f_vals), np.asarray(s_vals)
        )
    return Figure7Data(
        fairness=fairness_out,
        hmean_speedups=speedups_out,
        mean_fairness=means,
        correlation=corr,
    )
