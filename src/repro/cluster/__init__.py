"""Overprovisioned-cluster substrate: topology, physics, and the engine."""

from repro.cluster.calibration import (
    CalibrationResult,
    Observation,
    fit_perf_model,
    observe_rates,
)
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, Socket
from repro.cluster.perfmodel import progress_rate
from repro.cluster.simulator import Assignment, Simulation, SimulationResult

__all__ = [
    "Assignment",
    "CalibrationResult",
    "Cluster",
    "Node",
    "Observation",
    "Simulation",
    "SimulationResult",
    "Socket",
    "fit_perf_model",
    "observe_rates",
    "progress_rate",
]
