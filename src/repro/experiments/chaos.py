"""Chaos specifications: fault probabilities plus a node-kill schedule.

The CLI's ``pair --chaos`` option takes a compact spec string, e.g.::

    --chaos "stuck=0.05,dropout=0.05,spike=0.02,kill=1@30-60"

which injects per-reading measurement faults into every meter of the
cluster's RAPL bank (a :class:`~repro.powercap.faults.FaultConfig`, set by
``Simulation(fault_config=...)``) and schedules node 1 to die at t=30 s
and recover at t=60 s (via :class:`~repro.cluster.events.NodeFailureEvent`).
Multiple kills are ``+``-separated (``kill=0@30-60+2@45``; omitting the
recovery time kills the node for good).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.events import NodeFailureEvent
from repro.cluster.simulator import SimulationResult
from repro.experiments.jobs import ExperimentConfig, build
from repro.powercap.faults import FaultConfig

__all__ = ["ChaosSpec", "parse_chaos", "run_chaos_pair", "ChaosPairOutcome"]


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed chaos directive: meter faults + node-kill schedule."""

    faults: FaultConfig = field(default_factory=FaultConfig)
    failures: tuple[NodeFailureEvent, ...] = ()

    def simulation_options(self) -> dict:
        """The :class:`~repro.cluster.simulator.Simulation` options that
        inject it (no meter faults at all when every probability is 0)."""
        return {
            "fault_config": (
                self.faults if self.faults != FaultConfig() else None
            ),
            "failures": self.failures,
        }


def parse_chaos(spec: str) -> ChaosSpec:
    """Parse a ``--chaos`` spec string.

    Raises:
        ValueError: malformed spec, unknown key, or bad probability.
    """
    probs = {"stuck": 0.0, "dropout": 0.0, "spike": 0.0}
    gain = 3.0
    failures: list[NodeFailureEvent] = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        if "=" not in part:
            raise ValueError(f"chaos term {part!r} is not key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in probs:
            probs[key] = float(value)
        elif key == "spike_gain":
            gain = float(value)
        elif key == "kill":
            for kill in filter(None, value.split("+")):
                if "@" not in kill:
                    raise ValueError(
                        f"kill term {kill!r} is not node@start[-end]"
                    )
                node_s, window = kill.split("@", 1)
                if "-" in window:
                    start_s, end_s = window.split("-", 1)
                    recover = float(end_s)
                else:
                    start_s, recover = window, None
                failures.append(
                    NodeFailureEvent(
                        node_id=int(node_s),
                        fail_at_s=float(start_s),
                        recover_at_s=recover,
                    )
                )
        else:
            raise ValueError(
                f"unknown chaos key {key!r}; expected stuck/dropout/spike/"
                "spike_gain/kill"
            )
    return ChaosSpec(
        faults=FaultConfig(
            stuck_prob=probs["stuck"],
            dropout_prob=probs["dropout"],
            spike_prob=probs["spike"],
            spike_gain=gain,
        ),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ChaosPairOutcome:
    """Summary of one workload pair under one manager with chaos applied.

    Attributes:
        manager: manager name.
        result: the underlying simulation result.
        budget_respected: True if the caps never exceeded the budget.
        node_failures / node_recoveries: scheduled transitions that fired.
    """

    manager: str
    result: SimulationResult
    budget_respected: bool
    node_failures: int
    node_recoveries: int


def run_chaos_pair(
    config: ExperimentConfig,
    workload_a: str,
    workload_b: str,
    manager_name: str,
    chaos: ChaosSpec,
) -> ChaosPairOutcome:
    """Run one workload pair under one manager with chaos injected.

    Args:
        config: campaign configuration (cluster, sim, repeats, seed).
        workload_a / workload_b: pair names, placed on the cluster halves
            (a self-pair's half 1 runs as ``name@1``).
        manager_name: registry name of the manager under test.
        chaos: the parsed chaos directive.
    """
    result = build(
        config, [workload_a, workload_b], manager_name,
        ("chaos", workload_a, workload_b, manager_name),
        **chaos.simulation_options(),
    ).run()
    budget_ok = bool(
        np.isfinite(result.max_caps_sum_w)
        and result.max_caps_sum_w <= result.budget_w * (1 + 1e-6)
    )
    return ChaosPairOutcome(
        manager=manager_name,
        result=result,
        budget_respected=budget_ok,
        node_failures=len(result.events.of_kind("node_failed")),
        node_recoveries=len(result.events.of_kind("node_recovered")),
    )
