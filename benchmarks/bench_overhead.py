"""§6.5 — operating and deployment overhead.

Reproduces the overhead analysis on the deploy plane (one server, one TCP
daemon per node): 3 bytes exchanged per unit per request, a
millisecond-scale turnaround at the paper's 10-node scale, linear
projection to 10^6 nodes, and the claim that DPS's decision cost is the
same order as the stateless SLURM plugin's (all modules beyond the
stateless one scale by a constant).
"""

import time
import tracemalloc

import numpy as np

from benchmarks._config import bench_config
from repro.core.config import PriorityConfig
from repro.core.history import HistoryBuffer
from repro.core.priority import PriorityModule
from repro.experiments.reporting import render_overhead_rows
from repro.experiments.tables import measure_decision_time, overhead_analysis


def test_overhead_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: overhead_analysis(
            measured_nodes=10,
            projected_nodes=(100, 1_000, 10_000, 1_000_000),
            cycles=30,
            config=bench_config(),
        ),
        rounds=1, iterations=1,
    )
    print("\n" + render_overhead_rows(rows))

    measured = rows[0]
    # 3 bytes per unit per direction (paper: "only 3 bytes are exchanged
    # per request with each node").
    assert measured.bytes_per_cycle == measured.n_units * 6
    # Sub-10 ms turnaround at 10 nodes against the 1 s decision loop.
    assert measured.turnaround_s < 0.01
    # 1,000 nodes: several milliseconds of network latency (paper §6.5).
    row_1k = next(r for r in rows if r.n_nodes == 1_000)
    assert 1e-3 < row_1k.network_s < 1.0
    # 1M nodes: ~6 MB of traffic per cycle (3 B x 2 dirs x 2 sockets).
    row_1m = next(r for r in rows if r.n_nodes == 1_000_000)
    assert row_1m.bytes_per_cycle == 12_000_000


def test_decision_cost_dps_vs_slurm(benchmark):
    def measure():
        return {
            name: measure_decision_time(name, n_units=20, steps=150)
            for name in ("constant", "slurm", "dps")
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        "\nper-decision wall time at 20 units: "
        + ", ".join(f"{k}={v * 1e6:.0f}us" for k, v in times.items())
    )
    # DPS's extra modules cost a constant factor over stateless, and the
    # absolute cost is negligible against the 1 s decision loop.
    assert times["dps"] < 5e-3
    assert times["slurm"] < times["dps"] < times["slurm"] * 100


def test_history_priority_steady_state_allocations():
    """The per-step control path reuses scratch instead of reallocating.

    At 2048 units a fresh ring unroll alone is 20 x 2048 x 8 B = 320 KiB
    per step and the derivative features another 16 KiB each; with the
    preallocated scratch the transient footprint of a steady-state step
    must stay well under one such allocation.  (`use_frequency=False`
    sidesteps the peak counter, whose native-float walk is deliberately
    list-based — see peaks.py.)
    """
    n_units, history_len = 2048, 20
    buf = HistoryBuffer(history_len, n_units)
    mod = PriorityModule(
        n_units, PriorityConfig(), use_frequency=False
    )
    rng = np.random.default_rng(7)
    sample = np.empty(n_units, dtype=np.float64)

    def step() -> None:
        rng.standard_normal(n_units, out=sample)
        np.add(sample, 100.0, out=sample)
        buf.push(sample)
        mod.update(buf.chronological(), 1.0)

    # Warm past the wrap point so the window sits inside the doubled ring.
    for _ in range(history_len + 3):
        step()

    # The no-realloc guarantee: the window is a view of the ring's one
    # buffer, whole and inside its extent, on every step of a full lap.
    # (Its start slides one row per push by design -- the double-write
    # ring keeps the window contiguous instead of unrolling it.)
    ring = buf._data
    low = ring.__array_interface__["data"][0]
    for _ in range(history_len + 1):
        step()
        window = buf.chronological()
        assert window.base is ring
        assert window.shape == (history_len, n_units)
        start = window.__array_interface__["data"][0]
        assert low <= start and start + window.nbytes <= low + ring.nbytes

    tracemalloc.start()
    t0 = time.perf_counter()
    for _ in range(50):
        step()
    wall_s = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(
        f"\nsteady-state step at {n_units} units: "
        f"{wall_s / 50 * 1e6:.0f}us, transient peak {peak / 1024:.1f}KiB"
    )
    # Headroom over numpy-scalar/bookkeeping noise, but far below a single
    # fresh (history_len, n_units) unroll (320 KiB) or feature row (16 KiB).
    assert peak < 8 * 1024
