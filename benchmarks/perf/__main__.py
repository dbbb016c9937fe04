"""Command line of the replay-floor benchmark.

``--workload NAME`` measures one workload in this process and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs, each in a process of its own (peak
RSS is per process), and the run is appended to the ledger.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.perf: no program to measure under {ROOT / 'src'}")
# The checkout's own sources, ahead of any installed copy.
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from benchmarks.perf import host  # noqa: E402
from benchmarks.perf.run import run_traced, run_untraced, scratch_dir  # noqa: E402
from benchmarks.perf.scenarios import RUN_SECONDS, WORKLOADS  # noqa: E402

SELFCHECK = host.HERE / "selfcheck.json"
SELFCHECK_SETS = 2
SELFCHECK_RUNS = 3


def contract_line(detail: dict) -> str:
    """The result object the driver reads.  A per-layer metric that does
    not apply to the workload (``None`` in the detail file) reads 0."""
    return json.dumps(
        {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                k: {"value": m["value"] or 0.0, "unit": m["unit"]}
                for k, m in detail["metrics"].items()
            },
        }
    )


def print_report(detail: dict) -> None:
    kind = "traced" if detail["trace"] else "end-to-end"
    print(
        f"== {detail['workload']} ({kind}) seed={detail['seed']} "
        f"passes={detail['passes']} timed cycles/pass={detail['cycles']} "
        f"digest={detail['digest'][:16]}"
    )
    for name, metric in detail["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>12} {metric['unit']}")
    if not detail["trace"]:
        beyond = detail["cycles"] // 10
        print(f"  (p50/p90 over {detail['cycles']} cycle floors, {beyond} beyond p90)")
    for dotted in detail.get("trace_unresolved", ()):
        print(f"  unresolved boundary: {dotted}")
    for error in detail.get("probe_errors", ()):
        print(f"  probe failed: {error}")
    print(f"  cycles_attempted={detail['attempted']} cycles_failed={detail['failed']}")
    for note in detail["notes"]:
        print(f"  FAILED: {note}")


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload here; the driver's entry point."""
    workdir = scratch_dir(host.OUT)
    try:
        if args.trace:
            detail = run_traced(args.workload, args.seed, args.quick, workdir)
        else:
            detail = run_untraced(
                args.workload, args.seed, args.seconds, args.quick, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "trace" if args.trace else "e2e"
    with open(host.OUT / f"{args.workload}.{kind}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    print_report(detail)
    print(contract_line(detail))
    return 0 if detail["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, each in its own process; returns name -> detail
    (without the span dump)."""
    details = {}
    kind = "trace" if args.trace else "e2e"
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "benchmarks.perf",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + ["--quick"] * args.quick
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        if done.returncode not in (0, 1):
            raise SystemExit(f"{name}: benchmark process exited {done.returncode}")
        with open(host.OUT / f"{name}.{kind}.json", encoding="utf-8") as fh:
            detail = json.load(fh)
        for bulky in ("spans", "span_names"):
            detail.pop(bulky, None)
        details[name] = detail
    return details


def full_run(args: argparse.Namespace) -> int:
    details = run_all(args)
    failed = sum(d["failed"] for d in details.values())
    if not args.quick:
        host.append_ledger(
            {
                "fingerprint": host.fingerprint(),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": details,
            }
        )
    print(f"cycles_failed={failed} over {len(details)} workloads")
    return 0 if failed == 0 else 1


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of full runs of this tree: a miss is a metric whose
    second set median is worse than its first by more than its bound.
    The per-run spread, (max - min) / median, is recorded beside it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        gates = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [
        [run_all(args) for _ in range(SELFCHECK_RUNS)]
        for _ in range(SELFCHECK_SETS)
    ]
    rows, misses = [], []
    for name in WORKLOADS:
        for metric, gate in gates.items():
            values = [
                [run[name]["metrics"][metric]["value"] for run in runs]
                for runs in sets
            ]
            first, second = (statistics.median(v) for v in values)
            worse = (second - first) / first
            if gate["better"] == "higher":
                worse = -worse
            flat = [v for run in values for v in run]
            spread = (max(flat) - min(flat)) / statistics.median(flat)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "set_medians": [first, second],
                    "second_worse_by": worse,
                    "bound": gate["bound"],
                    "spread": spread,
                    "values": values,
                }
            )
            if worse > gate["bound"]:
                misses.append(f"{name} {metric}: second set worse by {worse:.3f}")
    failed = sum(d["failed"] for runs in sets for run in runs for d in run.values())
    if failed:
        misses.append(f"cycles_failed={failed}")
    with open(SELFCHECK, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fingerprint": host.fingerprint(),
                "seed": args.seed,
                "seconds": args.seconds,
                "misses": misses,
                "rows": rows,
                "runs": sets,
            },
            fh,
            indent=1,
        )
    for row in rows:
        print(
            f"{row['workload']:<18} {row['metric']:<18} "
            f"second worse by {row['second_worse_by']:+.4f} "
            f"(bound {row['bound']}) spread {row['spread']:.4f}"
        )
    for miss in misses:
        print(f"MISS: {miss}")
    return 0 if not misses else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument(
        "--seconds", type=int, default=RUN_SECONDS,
        help="measurement length the pass count is scaled to",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="traced run: per-layer metrics in place of end-to-end ones",
    )
    parser.add_argument("--quick", action="store_true", help="smoke-test scale")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    host.OUT.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_one(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
