"""Data generators for the paper's tables and the §6.5 overhead analysis."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.comm.protocol import MESSAGE_SIZE_BYTES
from repro.experiments.jobs import ExperimentConfig, build
from repro.workloads.registry import get_workload, workload_names

__all__ = [
    "WorkloadRow",
    "OverheadRow",
    "table2",
    "table3",
    "table4",
    "overhead_analysis",
]


@dataclass(frozen=True)
class WorkloadRow:
    """One row of Table 2 or Table 4: paper values beside measured ones.

    Attributes:
        name: workload name.
        power_class: Table 2 label (or ``npb``).
        data_size: the paper's input-size string.
        paper_duration_s: published constant-cap latency.
        measured_duration_s: simulated constant-cap latency, rescaled to
            full time scale.
        paper_above_110_pct: published time fraction above 110 W.
        measured_above_110_pct: the program's uncapped fraction above 110 W.
    """

    name: str
    power_class: str
    data_size: str
    paper_duration_s: float
    measured_duration_s: float
    paper_above_110_pct: float
    measured_above_110_pct: float


def _constant_cap_duration(name: str, config: ExperimentConfig) -> float:
    """Solo constant-cap run of one workload, full-scale seconds."""
    result = build(config, [name], "constant", ("table", name)).run()
    if result.truncated:
        raise RuntimeError(f"constant-cap run of {name} truncated")
    (execution,) = result.executions
    return execution.mean_duration_s() / config.sim.time_scale


def _workload_rows(names: list[str], config: ExperimentConfig) -> list[WorkloadRow]:
    rows = []
    for name in names:
        spec = get_workload(name)
        rows.append(
            WorkloadRow(
                name=name,
                power_class=spec.power_class,
                data_size=spec.data_size,
                paper_duration_s=spec.paper_duration_s,
                measured_duration_s=_constant_cap_duration(name, config),
                paper_above_110_pct=spec.paper_above_110_pct,
                measured_above_110_pct=spec.program.fraction_above(110.0) * 100,
            )
        )
    return rows


def table2(config: ExperimentConfig | None = None) -> list[WorkloadRow]:
    """Table 2: the 11 Spark workloads under the constant 110 W cap."""
    return _workload_rows(
        workload_names(suite="spark"), config or ExperimentConfig()
    )


def table3() -> list[tuple[str, int, int]]:
    """Table 3: Spark computing resources (power class, executors, cores)."""
    from repro.workloads.registry import executor_config

    return [
        (cls, *executor_config(cls)) for cls in ("low", "mid", "high")
    ]


def table4(config: ExperimentConfig | None = None) -> list[WorkloadRow]:
    """Table 4: the 8 NPB workloads under the constant 110 W cap."""
    return _workload_rows(
        workload_names(suite="npb"), config or ExperimentConfig()
    )


# ---------------------------------------------------------------------------
# §6.5 overhead analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadRow:
    """Measured/projected control-plane cost at one cluster size.

    Attributes:
        n_nodes: nodes in the deployment.
        n_units: power-capping units.
        bytes_per_cycle: protocol traffic per decision loop (up + down).
        network_s: per-cycle wire time — the server's rejoin, poll,
            collect and dispatch phases.
        compute_s: per-cycle controller decision time.
        turnaround_s: total cycle latency.
        projected: True when extrapolated from the measured per-unit costs
            instead of timed on the deploy plane.
    """

    n_nodes: int
    n_units: int
    bytes_per_cycle: int
    network_s: float
    compute_s: float
    turnaround_s: float
    projected: bool


def overhead_analysis(
    measured_nodes: int = 10,
    projected_nodes: tuple[int, ...] = (100, 1_000, 10_000, 1_000_000),
    cycles: int = 30,
    manager_name: str = "dps",
    config: ExperimentConfig | None = None,
) -> list[OverheadRow]:
    """Reproduce the §6.5 overhead analysis.

    Times ``cycles`` control cycles of the deploy plane at
    ``measured_nodes`` nodes — a
    :class:`~repro.deploy.server.DeployServer` and one
    :class:`~repro.deploy.client.DeployClient` daemon per node exchanging
    3-byte messages over localhost TCP — and takes each phase's median
    from the server's :class:`~repro.deploy.server.DeployCycleStats`.
    The daemons run on the controller's thread, each pumped right after
    the server writes to it, so the network phases include their meter
    reads and cap programming as well as the socket calls.
    Larger deployments are projected linearly in units from the measured
    per-unit network and decision costs; nothing is modelled.

    Raises:
        ValueError: ``cycles`` < 1 or a projected node count < 1.

    Returns:
        One row per cluster size, measured first.
    """
    # Loaded here so `import repro` does not pull in sockets and selectors.
    from repro.deploy.plane import ClientPlane
    from repro.deploy.server import DeployServer

    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if any(n < 1 for n in projected_nodes):
        raise ValueError(
            f"projected node counts must be >= 1, got {projected_nodes}"
        )
    cfg = config or ExperimentConfig()
    spec = dataclasses.replace(cfg.cluster, n_nodes=measured_nodes)
    cluster = Cluster(spec, cfg.rapl, np.random.default_rng(cfg.seed))
    manager = cfg.make_manager(manager_name)
    manager.bind(
        n_units=spec.n_units,
        budget_w=spec.budget_w,
        max_cap_w=spec.tdp_w,
        min_cap_w=spec.min_cap_w,
        dt_s=cfg.sim.dt_s,
        rng=np.random.default_rng(cfg.derive_seed("overhead")),
    )
    server = DeployServer(manager)

    rng = np.random.default_rng(cfg.derive_seed("overhead", "demand"))
    stats = []
    with ClientPlane(server, cluster.nodes, cfg.sim.dt_s):
        for _ in range(cycles):
            demand = rng.uniform(40.0, 160.0, size=spec.n_units)
            cluster.step_physics(demand, cfg.sim.dt_s)
            stats.append(server.control_cycle())

    timings = [s.timings for s in stats]
    network_s = float(
        np.median(
            [t.rejoin_s + t.poll_s + t.collect_s + t.dispatch_s for t in timings]
        )
    )
    compute_s = float(np.median([t.decide_s for t in timings]))
    rows = [
        OverheadRow(
            n_nodes=measured_nodes,
            n_units=spec.n_units,
            bytes_per_cycle=stats[-1].bytes_up + stats[-1].bytes_down,
            network_s=network_s,
            compute_s=compute_s,
            turnaround_s=network_s + compute_s,
            projected=False,
        )
    ]

    per_unit_net = network_s / spec.n_units
    per_unit_compute = compute_s / spec.n_units
    for n_nodes in projected_nodes:
        n_units = n_nodes * spec.sockets_per_node
        rows.append(
            OverheadRow(
                n_nodes=n_nodes,
                n_units=n_units,
                bytes_per_cycle=n_units * MESSAGE_SIZE_BYTES * 2,
                network_s=per_unit_net * n_units,
                compute_s=per_unit_compute * n_units,
                turnaround_s=(per_unit_net + per_unit_compute) * n_units,
                projected=True,
            )
        )
    return rows


def measure_decision_time(
    manager_name: str = "dps",
    n_units: int = 20,
    steps: int = 200,
    config: ExperimentConfig | None = None,
) -> float:
    """Median wall time of one bare manager decision (no network).

    Used by the overhead bench to separate controller compute from
    messaging cost.  Every unit draws i.i.d. 40–160 W each step.

    Args:
        manager_name: registry name of the manager under test.
        n_units: cluster size in power-capping units.
        steps: timed decision steps (the median is over these).
        config: campaign configuration the manager is built from.
    """
    cfg = config or ExperimentConfig()
    manager = cfg.make_manager(manager_name)
    manager.bind(
        n_units=n_units,
        budget_w=110.0 * n_units,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(1)
    times = []
    for _ in range(steps):
        power = rng.uniform(40.0, 160.0, size=n_units)
        started = time.perf_counter()
        manager.step(power, power if manager.requires_demand else None)
        times.append(time.perf_counter() - started)
    return float(np.median(times))
