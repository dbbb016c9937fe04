"""Ablation benches for the design choices called out in DESIGN.md §5.

Each ablation flips one DPS design decision and measures the consequence
on the scenario that motivates it:

1. Kalman filter under measurement noise (robustness to noisy RAPL).
2. Frequency detection on the high-frequency workload (LR).
3. Performance-model concavity (theta) — a harsher power/performance
   curve grows every manager's stakes but must not flip the DPS > SLURM
   ordering.
4. History length (deployment-window sensitivity).
"""

import dataclasses

from benchmarks._config import bench_cache, bench_config
from repro.core.config import (
    DPSConfig,
    KalmanConfig,
    PerfModelConfig,
    PriorityConfig,
    RaplConfig,
)
from repro.experiments.harness import ExperimentHarness


def _harness(**overrides):
    cfg = dataclasses.replace(bench_config(), **overrides)
    # Each override changes the config digest, so the shared persistent
    # cache keys every ablation's runs separately.
    return ExperimentHarness(cfg, cache=bench_cache())


def test_ablation_kalman_under_noise(benchmark):
    """Without the KF, heavy measurement noise degrades DPS (or at best
    matches); with it, performance holds (paper §4.3.2's motivation)."""

    def run():
        noisy = RaplConfig(noise_std_w=6.0)
        with_kf = _harness(rapl=noisy, dps=DPSConfig(use_kalman=True))
        without_kf = _harness(rapl=noisy, dps=DPSConfig(use_kalman=False))
        return (
            with_kf.evaluate_pair("kmeans", "gmm", "dps").hmean_speedup,
            without_kf.evaluate_pair("kmeans", "gmm", "dps").hmean_speedup,
        )

    with_kf, without_kf = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nnoise 6 W: hmean with KF {with_kf:.3f}, without {without_kf:.3f}")
    assert with_kf > 0.99  # The KF keeps DPS at/above constant.
    assert with_kf > without_kf - 0.03  # Never meaningfully worse.


def test_ablation_frequency_detection(benchmark):
    """Frequency pinning on the high-frequency LR (DESIGN.md ablation 2).

    Reproduction finding (see EXPERIMENTS.md): in this substrate the
    sensitive derivative classifier plus the restore/equalize passes
    already protect LR, so disabling frequency detection costs little on
    end performance — its isolated effect is belt-and-suspenders.  The
    load-bearing comparison is DPS (either setting) against SLURM, which
    clearly loses on the same pair; we assert that, plus no-harm from the
    frequency path.
    """

    def run():
        full = _harness(dps=DPSConfig(use_frequency=True))
        ablated = _harness(dps=DPSConfig(use_frequency=False))
        return (
            full.evaluate_pair("lr", "gmm", "dps").speedup_a,
            ablated.evaluate_pair("lr", "gmm", "dps").speedup_a,
            full.evaluate_pair("lr", "gmm", "slurm").speedup_a,
        )

    full, ablated, slurm = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nlr speedup: frequency on {full:.3f}, off {ablated:.3f}, "
        f"slurm {slurm:.3f}"
    )
    assert full > 0.96          # Lower bound held with the full pipeline.
    assert full >= ablated - 0.02   # Frequency detection never hurts.
    assert slurm < full - 0.02      # And DPS clearly beats SLURM here.


def test_ablation_perf_model_theta(benchmark):
    """The who-wins ordering is robust to the power/performance curve."""

    def run():
        out = {}
        for theta in (1.0, 2.0, 3.0):
            h = _harness(perf=PerfModelConfig(theta=theta))
            dps = h.evaluate_pair("kmeans", "gmm", "dps").hmean_speedup
            slurm = h.evaluate_pair("kmeans", "gmm", "slurm").hmean_speedup
            out[theta] = (dps, slurm)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for theta, (dps, slurm) in results.items():
        print(f"  theta={theta}: dps {dps:.3f}, slurm {slurm:.3f}")
        assert dps > slurm - 0.005, f"ordering flipped at theta={theta}"


def test_ablation_npb_barrier_sync(benchmark):
    """Sensitivity: strict MPI-barrier synchronization for NPB.

    With ``sync="min"`` every socket-level cap or jitter difference gates
    the whole NPB job, taxing *all* dynamic managers.  DPS must still beat
    SLURM under the stricter model, though its absolute gain narrows
    (recorded in EXPERIMENTS.md; the default model is "mean", which
    matches the tolerance the paper's measured NPB numbers imply).
    """
    from repro.experiments.jobs import build
    from repro.metrics.speedup import hmean, paired_hmean_speedup
    from repro.workloads.npb import npb_workload

    cfg = bench_config()

    def run_pair_with_sync(sync: str, manager_name: str):
        npb = dataclasses.replace(npb_workload("cg"), sync=sync)
        result = build(
            cfg, ["bayes", npb], manager_name,
            ("sync-ablation", sync, manager_name),
        ).run()
        assert not result.truncated
        bayes, cg = result.executions
        return (
            [r.duration_s for r in bayes.records],
            [r.duration_s for r in cg.records],
        )

    def run():
        out = {}
        for sync in ("mean", "min"):
            base_a, base_b = run_pair_with_sync(sync, "constant")
            out[sync] = {}
            for manager in ("slurm", "dps"):
                a, b = run_pair_with_sync(sync, manager)
                out[sync][manager] = paired_hmean_speedup(
                    hmean(base_a) / hmean(a), hmean(base_b) / hmean(b)
                )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for sync, row in results.items():
        print(
            f"  bayes/cg sync={sync}: "
            + ", ".join(f"{m}={v:.3f}" for m, v in row.items())
        )
    for sync in ("mean", "min"):
        assert results[sync]["dps"] > results[sync]["slurm"]


def test_ablation_derivative_estimator(benchmark):
    """Endpoint difference (the paper's Algorithm 2 line 16) vs a
    least-squares slope over the window.  With the Kalman filter in front,
    the two classify nearly identically end to end — the paper's simpler
    estimator is justified."""

    def run():
        out = {}
        for method in ("endpoints", "lsq"):
            h = _harness(
                dps=DPSConfig(priority=PriorityConfig(deriv_method=method))
            )
            out[method] = h.evaluate_pair(
                "kmeans", "gmm", "dps"
            ).hmean_speedup
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\nderivative estimator -> hmean: "
        + ", ".join(f"{k}={v:.3f}" for k, v in results.items())
    )
    assert abs(results["endpoints"] - results["lsq"]) < 0.02
    for v in results.values():
        assert v > 0.99


def test_ablation_history_length(benchmark):
    """A longer history delays classification slightly but the paper's
    20-step default and a 10-step variant land in the same place."""

    def run():
        out = {}
        for hlen in (10, 20, 40):
            dps_cfg = DPSConfig(priority=PriorityConfig(history_len=hlen))
            h = _harness(dps=dps_cfg)
            out[hlen] = h.evaluate_pair("bayes", "cg", "dps").hmean_speedup
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\nhistory length -> hmean: "
        + ", ".join(f"{k}: {v:.3f}" for k, v in results.items())
    )
    for hlen, hm in results.items():
        assert hm > 0.98, f"history_len={hlen} broke the lower bound"
