"""Campaign engine throughput: process-pool speedup and cache hit rate.

The paper's full evaluation is >1,000 machine-hours of simulations; the
reproduction's campaign engine fans the deduplicated job list out over
worker processes and short-circuits repeats through the persistent result
cache.  This benchmark measures both levers on a smoke campaign
(``low_utility``, ``REPRO_BENCH_CAMPAIGN_PAIRS`` pairs, each group's paper
managers):

* wall-clock speedup of ``jobs=REPRO_BENCH_CAMPAIGN_JOBS`` over the
  sequential engine, with records asserted bit-identical;
* cache traffic of a cold run followed by a warm rerun against the same
  directory (the warm run must be 100 % hits and simulate nothing).

Results are printed (run with ``-s``) and written to a
``BENCH_campaign.json`` artifact (override via
``REPRO_BENCH_CAMPAIGN_ARTIFACT``) so CI accumulates the perf history.
The >= 3x speedup acceptance bar only applies on machines with at least
4 cores — a time-shared pool cannot beat the sequential engine.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.config import ClusterSpec, SimulationConfig
from repro.experiments.campaign import Campaign
from repro.experiments.engine import ResultCache
from repro.experiments.harness import ExperimentConfig

#: Pairs per group; 8 pairs x 3 managers dedups to a 38-job batch
#: (6 references, 8 baselines and 24 manager runs).
PAIRS = int(os.environ.get("REPRO_BENCH_CAMPAIGN_PAIRS", "8"))
JOBS = int(os.environ.get("REPRO_BENCH_CAMPAIGN_JOBS", "4"))
#: The smoke campaign runs the test-sized cluster, not the paper topology:
#: the benchmark measures the engine, not the simulations.  The scale is
#: picked so per-job work dominates pool startup by >10x at 4 workers.
TIME_SCALE = float(os.environ.get("REPRO_BENCH_CAMPAIGN_TIME_SCALE", "0.3"))
ARTIFACT = os.environ.get(
    "REPRO_BENCH_CAMPAIGN_ARTIFACT", "BENCH_campaign.json"
)


def _campaign() -> Campaign:
    config = ExperimentConfig(
        cluster=ClusterSpec(n_nodes=4, sockets_per_node=2),
        sim=SimulationConfig(
            time_scale=TIME_SCALE, max_steps=60_000, inter_run_gap_s=2.0
        ),
        repeats=1,
        seed=7,
    )
    return Campaign(config, groups=("low_utility",), limit_pairs=PAIRS)


def _update_artifact(section: str, doc: dict) -> None:
    merged = {}
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as fh:
            merged = json.load(fh)
    merged.setdefault("format", "repro-bench-campaign-v1")
    merged[section] = doc
    with open(ARTIFACT, "w") as fh:
        json.dump(merged, fh, indent=2)
    print(f"updated {ARTIFACT}")


def test_campaign_parallel_speedup(benchmark):
    def measure():
        runs = {}
        for jobs in (1, JOBS):
            campaign = _campaign()
            t0 = time.perf_counter()
            result = campaign.run(jobs=jobs)
            runs[jobs] = (time.perf_counter() - t0, result)
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    seq_s, sequential = runs[1]
    par_s, parallel = runs[JOBS]
    speedup = seq_s / par_s
    eng = parallel.engine
    print(
        f"\ncampaign of {eng.n_jobs} jobs: sequential {seq_s:.1f}s, "
        f"jobs={JOBS} {par_s:.1f}s -> {speedup:.2f}x "
        f"on {os.cpu_count()} cores"
    )

    # The parallel path must be an optimization, never a different answer.
    assert parallel.records == sequential.records

    _update_artifact(
        "speedup",
        {
            "n_jobs_graph": eng.n_jobs,
            "pairs": PAIRS,
            "workers": JOBS,
            "cores": os.cpu_count(),
            "sequential_s": seq_s,
            "parallel_s": par_s,
            "speedup": speedup,
            "job_walls_s": {
                t.key: t.wall_s for t in eng.job_timings
            },
        },
    )

    if (os.cpu_count() or 1) >= 4 and JOBS >= 4:
        # The acceptance bar: a 38-job batch over 4 workers has close to
        # 4x of ideal parallelism in it.
        assert speedup >= 3.0, f"speedup {speedup:.2f}x at jobs={JOBS}"


def test_campaign_cache_hit_rate(benchmark, tmp_path):
    def measure():
        runs = []
        for _ in range(2):
            campaign = _campaign()
            t0 = time.perf_counter()
            result = campaign.run(cache=ResultCache(tmp_path))
            runs.append((time.perf_counter() - t0, result))
        return runs

    (cold_s, cold), (warm_s, warm) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print(
        f"\ncold {cold_s:.1f}s ({cold.engine.cache_misses} misses), "
        f"warm {warm_s:.2f}s ({warm.engine.cache_hits} hits)"
    )

    assert cold.engine.cache_misses == cold.engine.n_jobs
    # The warm rerun is 100% hits: zero simulations, identical records.
    assert warm.engine.cache_hits == warm.engine.n_jobs
    assert warm.engine.cache_misses == 0
    assert warm.records == cold.records
    assert warm_s < cold_s / 10

    _update_artifact(
        "cache",
        {
            "n_jobs_graph": cold.engine.n_jobs,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_hit_rate": warm.engine.cache_hits / warm.engine.n_jobs,
        },
    )
