"""The four workloads: seeded input generation and one pass of each.

Every scenario is closed-loop, single-process and single-threaded, and
calls only long-lived public API (``create_manager``/``bind``/``step``,
``Simulation``, ``Assignment``, ``ClusterSpec``, ``SimulationConfig``,
``SafetyConfig``, ``get_workload``).  Cycle and pass counts are
constants, never time-boxed, so counts and digests repeat exactly.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from repro import (
    Assignment,
    ClusterSpec,
    Simulation,
    SimulationConfig,
    get_workload,
)
from repro.safety import SafetyConfig

from benchmarks.perf.floor import (
    WARMUP_CYCLES,
    CapsAudit,
    PassRecord,
    TickLog,
    tick_manager,
)

#: Seconds of measurement the pass counts below are sized for; a run
#: given another ``--seconds`` scales its pass count in proportion.
RUN_SECONDS = 20

#: paper20-sim: pairs of the paper's testbed experiments on which DPS
#: holds the constant-allocation lower bound with margin on every seed
#: tried, each run under both stateful (dps) and stateless (slurm)
#: management.
PAPER_PAIRS = (
    ("lda", "linear"),
    ("linear", "bayes"),
    ("linear", "rf"),
    ("lr", "rf"),
    ("bayes", "rf"),
    ("cg", "lu"),
)
PAPER_MANAGERS = ("dps", "slurm")
#: The paper's claim checked by the verify phase: no workload runs
#: longer under DPS than under constant allocation (2 % tolerance).
LOWER_BOUND_TOLERANCE = 0.02

GUARDED_WORKLOADS = ("linear", "lr", "rf", "bayes")
DECIDE_UNITS = 100_000
DECIDE_TIMED_CYCLES = 100


@dataclass(frozen=True)
class PassContext:
    """Inputs of one pass.

    Attributes:
        seed: the run's ``--seed``; every input derives from it.
        quick: smoke-test scale (2k units, a few dozen cycles).
        workdir: scratch directory inside the checkout (checkpoints).
        observe: record per-step priority/restore counters (traced runs).
    """

    seed: int
    quick: bool
    workdir: Path
    observe: bool = False


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: name on the command line and in BENCHMARK.json.
        why: the reason it exists, one line.
        passes: identical passes per run at ``RUN_SECONDS``.
        run_pass: executes one pass.
        verify: untimed once-per-run check given pass 0; returns one
            message per miss.
    """

    name: str
    why: str
    passes: int
    run_pass: Callable[[PassContext], PassRecord]
    verify: Callable[[PassContext, PassRecord], list[str]] | None = None


# ----------------------------------------------------------------------
# Simulation scenarios
# ----------------------------------------------------------------------


def _assign(spec: ClusterSpec, names: tuple[str, ...]) -> list[Assignment]:
    """Place the named workloads on equal contiguous slices of the units."""
    per = spec.n_units // len(names)
    return [
        Assignment(get_workload(n), np.arange(k * per, (k + 1) * per))
        for k, n in enumerate(names)
    ]


def _bad_events(result) -> int:
    """Budget-violation, truncation and invariant-violation events."""
    bad = sum(
        e.kind in ("budget_violation", "simulation_truncated")
        for e in result.events
    )
    if result.safety_events is not None:
        bad += sum(
            e.kind == "invariant_violation" for e in result.safety_events
        )
    return bad


def _sim_pass(
    ctx: PassContext,
    spec: ClusterSpec,
    legs: list[tuple[str, tuple[str, ...], int]],
    sim_config: SimulationConfig,
    hardened: bool = False,
) -> PassRecord:
    """Run ``legs`` — (manager, workloads, seed) simulations — back to
    back; each leg's first ``WARMUP_CYCLES`` cycles are set-up."""
    audit = CapsAudit(spec)
    setup_s = 0.0
    breaches = 0
    walls, cpus, windows = [], [], []
    extras: dict = {"durations": [], "observed": [], "retries": 0, "rungs": 0}
    for manager, names, seed in legs:
        kwargs: dict = {}
        if hardened:
            # The posture a production control plane would run with.
            ckpt = ctx.workdir / "ckpt"
            shutil.rmtree(ckpt, ignore_errors=True)
            ckpt.mkdir(parents=True)
            kwargs = {
                "checkpoint_dir": ckpt,
                "checkpoint_every": 5,
                "safety": SafetyConfig(guard=True, invariant_mode="strict"),
                "verify_actuation": True,
                "actuation_delay_steps": 1,
                "record_telemetry": True,
            }
        log = TickLog()
        started = perf_counter()
        sim = Simulation(
            spec,
            tick_manager(manager, log, ctx.observe),
            _assign(spec, names),
            sim_config=sim_config,
            seed=seed,
            **kwargs,
        )
        result = sim.run()
        end_wall, end_cpu = perf_counter(), process_time()
        if len(log.wall_in) <= WARMUP_CYCLES:
            raise RuntimeError(
                f"{names} under {manager} ended inside its warm-up "
                f"({len(log.wall_in)} cycles)"
            )
        setup_s += log.wall_in[WARMUP_CYCLES] - started
        wall, cpu, win = log.entry_to_entry(WARMUP_CYCLES, end_wall, end_cpu)
        walls.append(wall)
        cpus.append(cpu)
        windows.append(win)
        audit.fold(log.caps)
        audit.note(f"{result.steps} {sorted(result.durations.items())!r}")
        breaches += _bad_events(result)
        extras["durations"].append(dict(result.durations))
        extras["observed"].extend(log.observed[WARMUP_CYCLES:])
        extras["retries"] += result.actuation_retries
        extras["rungs"] += sum(result.guard_rungs.values())
    return PassRecord(
        setup_s=setup_s,
        wall_s=np.concatenate(walls),
        cpu_s=np.concatenate(cpus),
        digest=audit.hexdigest(),
        breaches=breaches + audit.breaches,
        windows=np.concatenate(windows),
        extras=extras,
    )


def _paper_legs(ctx: PassContext, managers) -> list:
    pairs = PAPER_PAIRS[:1] if ctx.quick else PAPER_PAIRS
    return [
        (m, pair, ctx.seed * 1000 + k)
        for m in managers
        for k, pair in enumerate(pairs)
    ]


def _paper_config(ctx: PassContext) -> SimulationConfig:
    return SimulationConfig(time_scale=0.05 if ctx.quick else 0.5)


def paper20_pass(ctx: PassContext) -> PassRecord:
    return _sim_pass(
        ctx, ClusterSpec(), _paper_legs(ctx, PAPER_MANAGERS), _paper_config(ctx)
    )


def paper20_verify(ctx: PassContext, first: PassRecord) -> list[str]:
    """One ``constant`` simulation per pair: DPS must not be slower."""
    if ctx.quick:
        # Phases compressed 10x are mostly reaction latency; the bound
        # is a claim about the paper's time scale.
        return []
    baseline = _sim_pass(
        ctx, ClusterSpec(), _paper_legs(ctx, ("constant",)), _paper_config(ctx)
    )
    misses = []
    if baseline.breaches:
        misses.append(f"constant baseline: {baseline.breaches} contract breaches")
    under_dps = first.extras["durations"][: len(PAPER_PAIRS)]
    for pair, dps, const in zip(
        PAPER_PAIRS, under_dps, baseline.extras["durations"]
    ):
        for name in pair:
            limit = const[name] * (1.0 + LOWER_BOUND_TOLERANCE)
            if not dps[name] <= limit:
                misses.append(
                    f"lower bound: {name} (with {pair}) took {dps[name]:.1f} s "
                    f"under dps, {const[name]:.1f} s under constant"
                )
    return misses


def guarded1k_pass(ctx: PassContext) -> PassRecord:
    return _sim_pass(
        ctx,
        ClusterSpec(n_nodes=500),
        [("dps", GUARDED_WORKLOADS, ctx.seed)],
        SimulationConfig(time_scale=0.05 if ctx.quick else 0.16),
        hardened=True,
    )


# ----------------------------------------------------------------------
# Bare decide scenarios
# ----------------------------------------------------------------------


def mixed_power(rng: np.random.Generator, n: int) -> Callable[[int], np.ndarray]:
    """The overprovisioned population: 40 % of units idle near 45 W,
    35 % steady near 110 W, 25 % bursty (±70 W swings, heavy noise),
    scattered over the unit range by the seed."""
    rank = rng.permutation(n)
    bursty = rank >= int(0.75 * n)
    base = np.where(rank < int(0.40 * n), 45.0, 110.0)
    base[bursty] = 80.0
    sigma = np.where(rank < int(0.40 * n), 1.5, 3.0)
    sigma[bursty] = 12.0
    phase = rng.uniform(0.0, 2.0 * np.pi, int(bursty.sum()))

    def power(t: int) -> np.ndarray:
        p = base + sigma * rng.standard_normal(n)
        p[bursty] += 70.0 * np.sin(0.3 * t + phase)
        return np.clip(p, 5.0, 165.0)

    return power


def stress_power(rng: np.random.Generator, n: int) -> Callable[[int], np.ndarray]:
    """Every unit i.i.d. uniform 40-160 W: all units high-frequency."""
    return lambda t: rng.uniform(40.0, 160.0, n)


def _decide_pass(ctx: PassContext, profile) -> PassRecord:
    n = 2_000 if ctx.quick else DECIDE_UNITS
    timed = 12 if ctx.quick else DECIDE_TIMED_CYCLES
    spec = ClusterSpec(n_nodes=n // 2)
    audit = CapsAudit(spec)
    log = TickLog()
    started = perf_counter()
    manager = tick_manager("dps", log, ctx.observe)
    manager.bind(
        n_units=spec.n_units,
        budget_w=spec.budget_w,
        max_cap_w=spec.tdp_w,
        min_cap_w=spec.min_cap_w,
        dt_s=1.0,
        rng=np.random.default_rng(ctx.seed),
    )
    power = profile(np.random.default_rng(ctx.seed + 1), n)
    for t in range(WARMUP_CYCLES + timed):
        manager.step(power(t))
        audit.fold(log.caps)
    wall, cpu, windows = log.bracketed(WARMUP_CYCLES)
    return PassRecord(
        setup_s=log.wall_in[WARMUP_CYCLES] - started,
        wall_s=wall,
        cpu_s=cpu,
        digest=audit.hexdigest(),
        breaches=audit.breaches,
        windows=windows,
        extras={"observed": log.observed[WARMUP_CYCLES:], "n_units": n},
    )


def decide_mixed_pass(ctx: PassContext) -> PassRecord:
    return _decide_pass(ctx, mixed_power)


def decide_stress_pass(ctx: PassContext) -> PassRecord:
    return _decide_pass(ctx, stress_power)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper20-sim",
            "the 20-unit testbed every paper figure runs on: cost is "
            "per-call Python overhead in core, cluster, powercap and "
            "workloads; the array kernels do nothing at this size",
            16,
            paper20_pass,
            paper20_verify,
        ),
        Workload(
            "decide100k-mixed",
            "bare dps step at 100k units on the overprovisioned mix "
            "(paper 6.5 scaling claim): core is all of the work, every "
            "other layer none",
            10,
            decide_mixed_pass,
        ),
        Workload(
            "decide100k-stress",
            "same call with every unit i.i.d. 40-160 W: peak walks "
            "cannot exit early and readjust sees everyone, so a gain "
            "bought on the mix at this profile's cost shows",
            8,
            decide_stress_pass,
        ),
        Workload(
            "guarded1k-sim",
            "1,000-unit simulation hardened as production would be "
            "(journal, checkpoints, guard, strict invariants, verified "
            "actuation, telemetry): powercap, safety and recovery do "
            "most of the work, core about 6 %",
            16,
            guarded1k_pass,
        ),
    )
}
