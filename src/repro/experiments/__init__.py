"""Experiment harness, setups, and per-figure/table generators."""

from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentHarness,
    PairEvaluation,
    PairOutcome,
    ReferenceStats,
)
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    ExperimentRecord,
)
from repro.experiments.charts import bar_chart, line_chart, sparkline
from repro.experiments.engine import (
    EngineTelemetry,
    ExperimentEngine,
    JobTiming,
    LocalPoolBackend,
    ResultCache,
    job_digest,
)
from repro.experiments.jobs import (
    SimJob,
    baseline_job,
    evaluation_jobs,
    pair_job,
    reference_job,
)
from repro.experiments.figures import (
    Figure1Data,
    Figure7Data,
    FigureBars,
    figure1,
    figure2,
    figure4,
    figure5a,
    figure5b,
    figure6,
    figure7,
)
from repro.experiments.setups import (
    GROUP_MANAGERS,
    demanding_spark_names,
    high_utility_pairs,
    low_utility_pairs,
    spark_npb_pairs,
)
from repro.experiments.sweeps import SweepPoint, budget_sweep, noise_sweep
from repro.experiments.tables import (
    OverheadRow,
    WorkloadRow,
    overhead_analysis,
    table2,
    table3,
    table4,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "EngineTelemetry",
    "ExperimentEngine",
    "ExperimentRecord",
    "LocalPoolBackend",
    "JobTiming",
    "ResultCache",
    "SimJob",
    "baseline_job",
    "evaluation_jobs",
    "job_digest",
    "pair_job",
    "reference_job",
    "Figure1Data",
    "Figure7Data",
    "FigureBars",
    "OverheadRow",
    "SweepPoint",
    "WorkloadRow",
    "bar_chart",
    "budget_sweep",
    "figure1",
    "line_chart",
    "noise_sweep",
    "sparkline",
    "figure2",
    "figure4",
    "figure5a",
    "figure5b",
    "figure6",
    "figure7",
    "overhead_analysis",
    "table2",
    "table3",
    "table4",
    "ExperimentConfig",
    "ExperimentHarness",
    "GROUP_MANAGERS",
    "PairEvaluation",
    "PairOutcome",
    "ReferenceStats",
    "demanding_spark_names",
    "high_utility_pairs",
    "low_utility_pairs",
    "spark_npb_pairs",
]
