"""Command-line entry point (the artifact's ``exp.py`` / plot scripts).

Examples::

    dps-repro pair kmeans gmm --manager dps --manager slurm
    dps-repro figure fig1
    dps-repro figure fig4 --time-scale 0.25 --repeats 2
    dps-repro tables
    dps-repro overhead
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import SimulationConfig
from repro.experiments import figures as figmod
from repro.experiments import reporting, tables as tabmod
from repro.experiments.harness import ExperimentConfig, ExperimentHarness

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dps-repro",
        description=(
            "Reproduction of DPS: Adaptive Power Management for "
            "Overprovisioned Systems (SC '23)"
        ),
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.25,
        help="workload duration multiplier (1.0 = paper-scale runs)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="runs per workload per pair"
    )
    parser.add_argument("--seed", type=int, default=42, help="campaign seed")

    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="run one workload pair")
    pair.add_argument("workload_a")
    pair.add_argument("workload_b")
    pair.add_argument(
        "--manager",
        action="append",
        default=None,
        help="manager to evaluate (repeatable; default slurm + dps)",
    )
    pair.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "inject faults: comma-separated stuck/dropout/spike "
            "probabilities and a node-kill schedule, e.g. "
            "'stuck=0.05,dropout=0.05,spike=0.02,kill=1@30-60+2@45' "
            "(kill is node@start[-end] in sim seconds; no end = permanent)"
        ),
    )
    pair.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help=(
            "run the controller checkpointed: journal every cycle and "
            "write durable snapshots under PATH (one subdirectory per "
            "manager); a crashed run continues with `dps-repro resume "
            "PATH`"
        ),
    )
    pair.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="control cycles between checkpoint generations (default 10)",
    )

    fig = sub.add_parser("figure", help="regenerate one figure's data")
    fig.add_argument(
        "which",
        choices=["fig1", "fig2", "fig4", "fig5a", "fig5b", "fig6", "fig7"],
    )

    sub.add_parser("tables", help="regenerate Tables 2-4")
    sub.add_parser("overhead", help="run the §6.5 overhead analysis")
    sub.add_parser("list", help="list workloads and managers")

    camp = sub.add_parser(
        "campaign", help="run benchmark groups end to end (run_experiment.sh)"
    )
    camp.add_argument(
        "--group",
        action="append",
        choices=["low_utility", "high_utility", "spark_npb"],
        default=None,
        help="group to run (repeatable; default all three)",
    )
    camp.add_argument(
        "--limit-pairs",
        type=int,
        default=None,
        help="cap on pairs per group (smoke-campaign mode)",
    )
    camp.add_argument(
        "--out", default=None, help="write the campaign JSON to this path"
    )
    camp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the parallel engine (default 1 = inline; "
            "records are bit-identical for any value)"
        ),
    )
    camp.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persistent result cache: finished simulations are stored "
            "under PATH keyed by a config+job digest, so re-running the "
            "campaign only simulates what changed"
        ),
    )

    sweep = sub.add_parser(
        "sweep", help="budget/noise sweeps the paper could not afford"
    )
    sweep.add_argument("which", choices=["budget", "noise"])
    sweep.add_argument("--pair", nargs=2, default=["kmeans", "gmm"])
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep point (default 1 = inline)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result cache shared by every sweep point",
    )

    shards = sub.add_parser(
        "shards",
        help="run the sharded control plane over loopback TCP",
        description=(
            "Run N shard servers (each a crash-recoverable deploy "
            "server owning a slice of a simulated cluster) under one "
            "budget arbiter, with optional shard-level chaos.  Every "
            "failure and recovery step is reported from the structured "
            "event log."
        ),
    )
    shards.add_argument(
        "--shards", type=int, default=4, metavar="N", help="shard servers"
    )
    shards.add_argument(
        "--nodes", type=int, default=16, metavar="N", help="cluster nodes"
    )
    shards.add_argument(
        "--cycles", type=int, default=24, metavar="N", help="control cycles"
    )
    shards.add_argument(
        "--manager",
        default="constant",
        help="power manager every shard runs (default constant)",
    )
    shards.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help=(
            "shard + arbiter checkpoint root (default: a temporary "
            "directory discarded after the run)"
        ),
    )
    shards.add_argument(
        "--kill",
        action="append",
        default=None,
        metavar="SHARD@CYCLE",
        help="crash a shard's controller at a cycle (repeatable)",
    )
    shards.add_argument(
        "--hang",
        action="append",
        default=None,
        metavar="SHARD@CYCLE",
        help="hang a shard's controller at a cycle (repeatable)",
    )
    shards.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="SHARD@START-END",
        help="sever a shard's arbiter link over a cycle range (repeatable)",
    )
    shards.add_argument(
        "--arbiter-outage",
        default=None,
        metavar="START-END",
        help="kill the arbiter at START and restart it from checkpoint at END",
    )
    shards.add_argument(
        "--lease-timeline",
        default=None,
        metavar="PATH",
        help="write the per-shard lease timeline (.json or .csv by suffix)",
    )
    shards.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help=(
            "thread: in-process shards over loopback links; process: "
            "each shard a real `shard-server` subprocess behind TCP"
        ),
    )
    shards.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help=(
            "clock-plane bulk encoding in process mode: json float "
            "lists or raw binary array frames"
        ),
    )
    shards.add_argument(
        "--admit-at",
        type=int,
        default=None,
        metavar="CYCLE",
        help="admit one extra shard live at CYCLE (process mode)",
    )
    shards.add_argument(
        "--drain",
        action="append",
        default=None,
        metavar="SHARD@CYCLE",
        help="drain a shard gracefully (SIGTERM) at a cycle (process mode)",
    )

    shard_server = sub.add_parser(
        "shard-server",
        help="host one shard of the control plane behind a TCP listener",
        description=(
            "Run a single shard server as its own OS process, built from "
            "the spec.json in --dir: a private "
            "sub-cluster, a crash-recoverable controller, and one TCP "
            "listener serving the fleet's clock and the arbiter's "
            "shard link.  SIGTERM triggers a graceful drain (checkpoint, "
            "freeze at the last confirmed committed power, final "
            "summary, exit 0).  Normally spawned by `shards "
            "--mode process`, not by hand."
        ),
    )
    from repro.shard.process import add_shard_server_args

    add_shard_server_args(shard_server)

    report = sub.add_parser(
        "report", help="render a saved campaign JSON as markdown"
    )
    report.add_argument("campaign_json", help="path from `campaign --out`")

    resume = sub.add_parser(
        "resume",
        help="continue a checkpointed `pair --checkpoint-dir` session",
    )
    resume.add_argument(
        "checkpoint_dir",
        help="the --checkpoint-dir of the interrupted pair run",
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        sim=SimulationConfig(time_scale=args.time_scale, max_steps=2_000_000),
        repeats=args.repeats,
        seed=args.seed,
    )


def _cmd_pair(args: argparse.Namespace) -> str:
    managers = tuple(args.manager) if args.manager else ("slurm", "dps")
    if args.chaos is not None and args.checkpoint_dir is not None:
        raise SystemExit(
            "--chaos and --checkpoint-dir cannot be combined (chaos runs "
            "through the fault-injection path, which owns its own manager)"
        )
    if args.chaos is not None:
        return _cmd_pair_chaos(args, managers)
    if args.checkpoint_dir is not None:
        return _cmd_pair_checkpointed(args, managers, resume=False)
    harness = ExperimentHarness(_config(args))
    rows = []
    for m in managers:
        ev = harness.evaluate_pair(args.workload_a, args.workload_b, m)
        rows.append(
            [
                m,
                f"{ev.speedup_a:.3f}",
                f"{ev.speedup_b:.3f}",
                f"{ev.hmean_speedup:.3f}",
                f"{ev.fairness:.3f}",
            ]
        )
    headers = [
        "manager",
        f"speedup {args.workload_a}",
        f"speedup {args.workload_b}",
        "hmean",
        "fairness",
    ]
    return reporting.render_table(headers, rows)


def _cmd_pair_chaos(
    args: argparse.Namespace, managers: tuple[str, ...]
) -> str:
    # Chaos pulls in the simulator stack; import lazily so the plain CLI
    # paths stay light.
    from repro.experiments.chaos import parse_chaos, run_chaos_pair

    chaos = parse_chaos(args.chaos)
    cfg = _config(args)
    rows = []
    for m in managers:
        outcome = run_chaos_pair(
            cfg, args.workload_a, args.workload_b, m, chaos
        )
        res = outcome.result
        completed = sum(e.runs_completed for e in res.executions)
        rows.append(
            [
                m,
                str(completed),
                "yes" if res.truncated else "no",
                "yes" if outcome.budget_respected else "NO",
                str(outcome.node_failures),
                str(outcome.node_recoveries),
            ]
        )
    header = (
        f"chaos pair {args.workload_a}/{args.workload_b} "
        f"({args.chaos}):"
    )
    table = reporting.render_table(
        [
            "manager",
            "runs done",
            "truncated",
            "budget ok",
            "node fails",
            "recoveries",
        ],
        rows,
    )
    return header + "\n" + table


def _cmd_pair_checkpointed(
    args: argparse.Namespace, managers: tuple[str, ...], resume: bool
) -> str:
    # The checkpointed path pulls in the recovery + simulator stack;
    # import lazily so the plain CLI paths stay light.
    import json
    from pathlib import Path

    from repro.cluster.cluster import Cluster
    from repro.cluster.simulator import Assignment, Simulation
    from repro.workloads.registry import get_workload

    root = Path(args.checkpoint_dir)
    meta_path = root / "session.json"
    if resume:
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"{meta_path}: not a resumable session ({exc}); "
                "start one with `pair --checkpoint-dir`"
            ) from None
        workload_a = meta["workload_a"]
        workload_b = meta["workload_b"]
        managers = tuple(meta["managers"])
        args.time_scale = meta["time_scale"]
        args.repeats = meta["repeats"]
        args.seed = meta["seed"]
        checkpoint_every = meta["checkpoint_every"]
    else:
        workload_a = args.workload_a
        workload_b = args.workload_b
        checkpoint_every = args.checkpoint_every
        root.mkdir(parents=True, exist_ok=True)
        meta_path.write_text(
            json.dumps(
                {
                    "workload_a": workload_a,
                    "workload_b": workload_b,
                    "managers": list(managers),
                    "time_scale": args.time_scale,
                    "repeats": args.repeats,
                    "seed": args.seed,
                    "checkpoint_every": checkpoint_every,
                }
            ),
            encoding="utf-8",
        )

    cfg = _config(args)
    cluster = Cluster(cfg.cluster)
    rows = []
    for m in managers:
        sim = Simulation(
            cluster_spec=cfg.cluster,
            manager=cfg.make_manager(m),
            assignments=[
                Assignment(
                    spec=get_workload(workload_a),
                    unit_ids=cluster.half_unit_ids(0),
                ),
                Assignment(
                    spec=get_workload(workload_b),
                    unit_ids=cluster.half_unit_ids(1),
                ),
            ],
            target_runs=cfg.repeats,
            sim_config=cfg.sim,
            perf_config=cfg.perf,
            rapl_config=cfg.rapl,
            seed=cfg.derive_seed("recover", workload_a, workload_b, m),
            checkpoint_dir=root / m,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        res = sim.run()
        budget_ok = res.max_caps_sum_w <= res.budget_w * (1 + 1e-6)
        completed = sum(e.runs_completed for e in res.executions)
        rows.append(
            [
                m,
                str(completed),
                str(res.checkpoints_written),
                (
                    "cold"
                    if res.resumed_at_cycle is None
                    else f"cycle {res.resumed_at_cycle}"
                ),
                str(res.journal_replayed),
                "yes" if budget_ok else "NO",
            ]
        )
    verb = "resumed" if resume else "checkpointed"
    header = (
        f"{verb} pair {workload_a}/{workload_b} "
        f"(state under {root}, every {checkpoint_every} cycles):"
    )
    table = reporting.render_table(
        [
            "manager",
            "runs done",
            "ckpts written",
            "resumed at",
            "replayed",
            "budget ok",
        ],
        rows,
    )
    return header + "\n" + table


def _cmd_resume(args: argparse.Namespace) -> str:
    return _cmd_pair_checkpointed(args, (), resume=True)


def _cmd_figure(args: argparse.Namespace) -> str:
    cfg = _config(args)
    harness = ExperimentHarness(cfg)
    if args.which == "fig1":
        return reporting.render_figure1(figmod.figure1(config=cfg))
    if args.which == "fig2":
        from repro.experiments.charts import sparkline

        traces = figmod.figure2(config=cfg)
        lines = ["Figure 2 — uncapped power phases"]
        for name, (t, p) in traces.items():
            lines.append(
                f"  {name}: {t[-1]:.0f}s trace, power {p.min():.0f}-"
                f"{p.max():.0f} W, {100 * (p > 110).mean():.1f}% above 110 W"
            )
            lines.append(f"    {sparkline(p, width=70)}")
        return "\n".join(lines)
    if args.which == "fig4":
        return reporting.render_bars(
            figmod.figure4(harness), "Figure 4 — Spark low utility"
        )
    if args.which == "fig5a":
        return reporting.render_bars(
            figmod.figure5a(harness), "Figure 5(a) — Spark high utility"
        )
    if args.which == "fig5b":
        return reporting.render_bars(
            figmod.figure5b(harness), "Figure 5(b) — paired with GMM"
        )
    if args.which == "fig6":
        by_spark, by_npb = figmod.figure6(harness)
        return (
            reporting.render_bars(by_spark, "Figure 6(a) — by Spark workload")
            + "\n\n"
            + reporting.render_bars(by_npb, "Figure 6(b) — by NPB workload")
        )
    if args.which == "fig7":
        return reporting.render_figure7(figmod.figure7(harness))
    raise AssertionError(args.which)


def _cmd_tables(args: argparse.Namespace) -> str:
    cfg = _config(args)
    parts = [
        reporting.render_workload_rows(
            tabmod.table2(cfg), "Table 2 — Spark workloads"
        ),
        "Table 3 — Spark resources\n"
        + reporting.render_table(
            ["power type", "executors", "cores/executor"],
            [[c, e, k] for c, e, k in tabmod.table3()],
        ),
        reporting.render_workload_rows(
            tabmod.table4(cfg), "Table 4 — NPB workloads"
        ),
    ]
    return "\n\n".join(parts)


def _cmd_overhead(args: argparse.Namespace) -> str:
    rows = tabmod.overhead_analysis(config=_config(args))
    return reporting.render_overhead_rows(rows)


def _cmd_campaign(args: argparse.Namespace) -> str:
    from repro.experiments.campaign import Campaign

    groups = tuple(args.group) if args.group else (
        "low_utility", "high_utility", "spark_npb",
    )
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    cache = None
    if args.cache_dir is not None:
        from repro.experiments.engine import ResultCache

        cache = ResultCache(args.cache_dir)
    campaign = Campaign(
        _config(args), groups=groups, limit_pairs=args.limit_pairs
    )

    def _job_progress(done, total, job, wall_s, cached, eta_s):
        how = "cache" if cached else f"{wall_s:5.1f}s"
        print(f"  [{done}/{total}] {job.key} ({how}, eta {eta_s:.0f}s)")

    result = campaign.run(jobs=args.jobs, cache=cache,
                          engine_progress=_job_progress)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
    lines = ["campaign summary (hmean speedup over constant):"]
    fairness = result.mean_fairness()
    for (group, manager), stats in result.summary().items():
        lines.append(
            f"  {group:13s} {manager:8s} hmean={stats.hmean:.3f} "
            f"min={stats.min:.3f} max={stats.max:.3f} n={stats.n} "
            f"fairness={fairness[(group, manager)]:.3f}"
        )
    eng = result.engine
    if eng is not None:
        lines.append(
            f"engine: {eng.n_jobs} jobs on {eng.workers} worker(s) in "
            f"{eng.total_wall_s:.1f}s; cache {eng.cache_hits} hits / "
            f"{eng.cache_misses} misses / {eng.cache_invalid} invalid"
        )
    if args.out:
        lines.append(f"written to {args.out}")
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.experiments.sweeps import budget_sweep, noise_sweep

    cfg = _config(args)
    pair = (args.pair[0], args.pair[1])
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    cache = None
    if args.cache_dir is not None:
        from repro.experiments.engine import ResultCache

        cache = ResultCache(args.cache_dir)
    if args.which == "budget":
        points = budget_sweep(cfg, pair=pair, cache=cache, jobs=args.jobs)
        param_label = "budget fraction"
    else:
        points = noise_sweep(cfg, pair=pair, cache=cache, jobs=args.jobs)
        param_label = "noise std (W)"
    lines = [f"{args.which} sweep on {pair[0]}/{pair[1]}:"]
    rows = [
        [f"{p.parameter:.2f}", p.manager, f"{p.hmean_speedup:.3f}",
         f"{p.fairness:.3f}"]
        for p in points
    ]
    lines.append(
        reporting.render_table(
            [param_label, "manager", "hmean speedup", "fairness"], rows
        )
    )
    return "\n".join(lines)


def _parse_at(spec: str, label: str) -> tuple[int, int]:
    """Parse a ``SHARD@CYCLE`` chaos token."""
    shard, sep, cycle = spec.partition("@")
    if not sep:
        raise SystemExit(f"--{label} must be SHARD@CYCLE, got {spec!r}")
    try:
        return int(shard), int(cycle)
    except ValueError:
        raise SystemExit(
            f"--{label} must be SHARD@CYCLE, got {spec!r}"
        ) from None


def _parse_range(spec: str, label: str) -> tuple[int, int]:
    """Parse a ``START-END`` cycle range."""
    start, sep, end = spec.partition("-")
    if not sep:
        raise SystemExit(f"--{label} must be START-END, got {spec!r}")
    try:
        lo, hi = int(start), int(end)
    except ValueError:
        raise SystemExit(f"--{label} must be START-END, got {spec!r}") from None
    if hi <= lo:
        raise SystemExit(f"--{label} needs END > START, got {spec!r}")
    return lo, hi


def _cmd_shards(args: argparse.Namespace) -> str:
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.cluster.cluster import Cluster
    from repro.core.config import ClusterSpec
    from repro.core.managers import available_managers, create_manager
    from repro.experiments import reporting
    from repro.shard import RecoveryOptions, ShardChaosSchedule, run_sharded
    from repro.telemetry.export import leases_to_csv, leases_to_json

    if args.manager not in available_managers():
        raise SystemExit(
            f"unknown manager {args.manager!r}; one of "
            f"{', '.join(available_managers())}"
        )
    try:
        probe = create_manager(args.manager)
    except TypeError as exc:
        raise SystemExit(
            f"manager {args.manager!r} needs constructor arguments "
            f"({exc}); pick a standalone manager"
        ) from None
    if probe.requires_demand:
        raise SystemExit(
            f"manager {args.manager!r} needs demand estimates, which the "
            "shard fleet does not feed; pick a power-only manager"
        )
    if args.cycles < 1:
        raise SystemExit(f"--cycles must be >= 1, got {args.cycles}")

    kill = dict(_parse_at(s, "kill") for s in (args.kill or ()))
    hang = dict(_parse_at(s, "hang") for s in (args.hang or ()))
    partition: dict[int, int] = {}
    heal: dict[int, int] = {}
    for spec in args.partition or ():
        shard, sep, rng = spec.partition("@")
        if not sep:
            raise SystemExit(
                f"--partition must be SHARD@START-END, got {spec!r}"
            )
        try:
            shard_id = int(shard)
        except ValueError:
            raise SystemExit(
                f"--partition must be SHARD@START-END, got {spec!r}"
            ) from None
        lo, hi = _parse_range(rng, "partition")
        partition[shard_id] = lo
        heal[shard_id] = hi
    arbiter_kill = arbiter_restart = None
    if args.arbiter_outage is not None:
        arbiter_kill, arbiter_restart = _parse_range(
            args.arbiter_outage, "arbiter-outage"
        )
    drain = dict(_parse_at(s, "drain") for s in (args.drain or ()))
    try:
        chaos = ShardChaosSchedule(
            shard_kill_at=kill,
            shard_hang_at=hang,
            partition_at=partition,
            heal_at=heal,
            arbiter_kill_at=arbiter_kill,
            arbiter_restart_at=arbiter_restart,
            admit_at=args.admit_at,
            drain_at=drain,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    cluster = Cluster(
        ClusterSpec(n_nodes=args.nodes), rng=np.random.default_rng(args.seed)
    )
    rng = np.random.default_rng(args.seed)
    tmp = None
    if args.checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="dps-shards-")
        root = Path(tmp.name)
    else:
        root = Path(args.checkpoint_dir)
    try:
        result = run_sharded(
            cluster,
            n_shards=args.shards,
            manager_factory=None,
            demand_fn=lambda step: np.full(cluster.n_units, 0.6),
            cycles=args.cycles,
            checkpoint_dir=root,
            chaos=chaos,
            recovery=RecoveryOptions(checkpoint_dir=root, hang_timeout_s=5.0),
            rng=rng,
            mode=args.mode,
            manager_name=args.manager,
            codec=args.codec,
        )
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if tmp is not None:
            tmp.cleanup()

    lines = [
        f"sharded control plane ({result.mode} mode): {result.n_shards} "
        f"shards, {cluster.n_units} units, budget {result.budget_w:.0f} W, "
        f"{result.cycles} cycles"
    ]
    if result.admitted:
        lines.append(
            "admitted live: shard "
            + ", ".join(str(i) for i in result.admitted)
        )
    if result.drained:
        lines.append(
            "drained: "
            + ", ".join(
                f"shard {i} (rc={result.drained_rcs.get(i)})"
                for i in result.drained
            )
        )
    rows = []
    # Leases come from the timeline, keyed by shard id: with live
    # membership the arbiter's lease array covers current members only,
    # whose count can differ from the starting fleet's.
    for i in sorted(set(range(result.n_shards)) | set(result.admitted)):
        series = result.timeline.for_shard(i)
        last = series[-1] if series else None
        restarts = (
            result.shard_restarts[i]
            if i < len(result.shard_restarts)
            else 0
        )
        rows.append(
            [
                str(i),
                "-" if last is None else f"{last.lease_w:.1f}",
                "-" if last is None else f"{last.committed_w:.1f}",
                str(restarts),
                "yes" if i in result.failed_shards else "no",
            ]
        )
    lines.append(
        reporting.render_table(
            ["shard", "lease W", "committed W", "restarts", "failed"], rows
        )
    )
    lines.append(
        f"arbiter: {result.arbiter_cycles} cycles, "
        f"{result.arbiter_restarts} restart(s), "
        f"{result.invariant_sweeps} invariant sweeps, "
        f"{result.invariant_violations} violation(s)"
    )
    if result.mode == "process":
        lines.append(
            f"wire ({result.codec} codec): "
            f"{result.bytes_clock} clock bytes, "
            f"{result.bytes_links} link bytes, "
            f"{result.link_reconnects} link reconnect(s)"
        )
    if result.worst_case_w is not None:
        ok = result.worst_case_w <= result.budget_w * (1 + 1e-6)
        lines.append(
            f"committed power: worst-case {result.worst_case_w:.1f} W, "
            f"steady {result.steady_w:.1f} W, budget "
            f"{'respected' if ok else 'EXCEEDED'}"
        )
    counts: dict[str, int] = {}
    for event in result.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    interesting = [
        f"{kind}x{n}"
        for kind, n in sorted(counts.items())
        if kind.startswith(("shard_", "arbiter_"))
    ]
    if interesting:
        lines.append("events: " + ", ".join(interesting))
    if args.lease_timeline is not None:
        out = Path(args.lease_timeline)
        if out.suffix == ".csv":
            out.write_text(leases_to_csv(result.timeline), encoding="utf-8")
        else:
            out.write_text(leases_to_json(result.timeline), encoding="utf-8")
        lines.append(f"lease timeline written to {out}")
    return "\n".join(lines)


def _cmd_shard_server(args: argparse.Namespace) -> str:
    from repro.shard.process import run_shard_server

    rc = run_shard_server(args)
    if rc != 0:
        raise SystemExit(rc)
    return f"shard-server in {args.dir} exited cleanly"


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.report import campaign_report

    with open(args.campaign_json, "r", encoding="utf-8") as fh:
        result = CampaignResult.from_json(fh.read())
    return campaign_report(result)


def _cmd_list(args: argparse.Namespace) -> str:
    del args
    from repro.core import _native
    from repro.core.managers import available_managers
    from repro.workloads.registry import all_workloads

    compiled, detail = _native.status()
    lines = [
        "managers: " + ", ".join(available_managers()),
        f"decision kernels: {'compiled' if compiled else 'python fallback'} "
        f"({detail})",
        "workloads:",
    ]
    for spec in all_workloads().values():
        lines.append(
            f"  {spec.name:12s} {spec.suite:5s} {spec.power_class:4s} "
            f"paper {spec.paper_duration_s:7.1f}s"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "pair": _cmd_pair,
        "figure": _cmd_figure,
        "tables": _cmd_tables,
        "overhead": _cmd_overhead,
        "list": _cmd_list,
        "campaign": _cmd_campaign,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "resume": _cmd_resume,
        "shards": _cmd_shards,
        "shard-server": _cmd_shard_server,
    }
    try:
        print(handlers[args.command](args))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
