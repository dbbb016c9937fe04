"""Shared fixtures for the test suite.

Tests run on a deliberately small, fast configuration: a 4-node cluster and
heavily time-scaled workloads.  The full-scale paper configuration is only
exercised by the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    ClusterSpec,
    DPSConfig,
    PerfModelConfig,
    RaplConfig,
    SimulationConfig,
)
from repro.experiments.harness import ExperimentConfig
from tests.core import oracles


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic randomness for a test."""
    return np.random.default_rng(12345)


@pytest.fixture
def no_native():
    """Force the decision core's Python fallback: no compiled peak kernel.

    ``python -m pytest -o usefixtures=no_native`` runs the whole suite as
    a host without a C compiler would.
    """
    with oracles.no_native():
        yield


@pytest.fixture
def small_cluster_spec() -> ClusterSpec:
    """A 4-node / 8-socket cluster with the paper's per-socket numbers."""
    return ClusterSpec(n_nodes=4, sockets_per_node=2)


@pytest.fixture
def fast_config(small_cluster_spec: ClusterSpec) -> ExperimentConfig:
    """A harness configuration that keeps pair simulations under ~1 s."""
    return ExperimentConfig(
        cluster=small_cluster_spec,
        sim=SimulationConfig(time_scale=0.05, max_steps=60_000,
                             inter_run_gap_s=2.0),
        perf=PerfModelConfig(),
        rapl=RaplConfig(),
        dps=DPSConfig(),
        repeats=1,
        seed=99,
    )
