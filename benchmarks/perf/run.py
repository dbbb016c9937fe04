"""One run of one workload: passes, verify phase, metrics.

An untraced run yields the six end-to-end metrics.  A traced run is a
separate invocation of three untraced and three traced passes and
yields the per-layer metrics; end-to-end numbers never come from it.
"""

from __future__ import annotations

import gc
import os
import shutil
from pathlib import Path

import numpy as np

from benchmarks.perf import probes
from benchmarks.perf.floor import E2E_UNITS, PassRecord, floor_metrics, peak_rss_mb
from benchmarks.perf.host import native_kernel
from benchmarks.perf.scenarios import (
    RUN_SECONDS,
    WORKLOADS,
    PassContext,
    Workload,
)
from benchmarks.perf.trace import BOUNDARIES, STEP_SPAN, SpanRecorder, layer_floors

TRACED_PASSES = 3
QUICK_PASSES = 2

#: Per-layer metrics and their units.  ``<span>_ms`` is the per-cycle
#: self time of the boundary spans of that name (see trace.BOUNDARIES).
LAYER_UNITS = {
    "core.step_ms": "ms",
    "core.glue_ms": "ms",
    "core.kalman_ms": "ms",
    "core.history_ms": "ms",
    "core.mimd_ms": "ms",
    "core.priority_ms": "ms",
    "core.restore_ms": "ms",
    "core.readjust_ms": "ms",
    "core.ns_per_unit": "ns",
    "core.high_priority_share": "ratio",
    "core.restored_share": "ratio",
    "core.native_kernel": "bool",
    "core.stress_over_mixed": "ratio",
    "cluster.loop_ms": "ms",
    "cluster.physics_ms": "ms",
    "cluster.perf_ms": "ms",
    "workloads.demand_ms": "ms",
    "workloads.advance_ms": "ms",
    "powercap.meter_ms": "ms",
    "powercap.caps_read_ms": "ms",
    "powercap.actuate_ms": "ms",
    "powercap.verify_retries": "count",
    "safety.guard_ms": "ms",
    "safety.envelope_ms": "ms",
    "safety.invariants_ms": "ms",
    "safety.guard_rungs": "count",
    "recovery.step_ms": "ms",
    "recovery.journal_ms": "ms",
    "recovery.checkpoint_ms": "ms",
    "recovery.journal_bytes_per_cycle": "B",
    "recovery.checkpoint_bytes": "B",
    "telemetry.record_ms": "ms",
    "comm.encode_us": "us",
    "comm.decode_us": "us",
    "comm.bytes_per_unit_cycle": "B",
    "comm.json_over_binary_bytes": "ratio",
    "deploy.batch_encode_us": "us",
    "deploy.batch_decode_us": "us",
    "deploy.bytes_per_unit": "B",
    "shard.redistribute_us": "us",
    "shard.fleet_cycle_ms": "ms",
    "shard.fleet_cpu_ms_per_cycle": "ms",
    "shard.fleet_wire_bytes_per_unit_cycle": "B",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def pass_count(workload: Workload, seconds: int, quick: bool) -> int:
    """Passes of a run: a constant per (workload, ``--seconds``), so
    cycle counts and digests repeat exactly."""
    if quick:
        return QUICK_PASSES
    return max(2, round(workload.passes * seconds / RUN_SECONDS))


def scratch_dir(root: Path) -> Path:
    """A fresh per-process scratch directory under ``root``."""
    path = root / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run_passes(
    workload: Workload, ctx: PassContext, count: int, boundaries=None
) -> tuple[list[PassRecord], list[SpanRecorder]]:
    """``count`` identical passes; traced when ``boundaries`` is given."""
    records, recorders = [], []
    for _ in range(count):
        # Collect first, so collector pauses fall on the same cycles of
        # every pass and stay inside the floor.
        gc.collect()
        if boundaries is None:
            records.append(workload.run_pass(ctx))
            continue
        with SpanRecorder(boundaries) as recorder:
            records.append(workload.run_pass(ctx))
        recorders.append(recorder)
    return records, recorders


def _audit(passes: list[PassRecord]) -> tuple[int, int, list[str], list[PassRecord]]:
    """``(attempted, failed, notes, clean)`` over a set of passes that
    must be identical: contract breaches count per cycle, and a pass
    whose digest or cycle count differs from pass 0 fails every one of
    its cycles and is left out of ``clean``."""
    attempted = failed = 0
    notes, clean = [], []
    for k, record in enumerate(passes):
        cycles = record.wall_s.size
        attempted += cycles
        if (
            record.digest != passes[0].digest
            or cycles != passes[0].wall_s.size
        ):
            notes.append(f"pass {k} differs from pass 0 (digest or cycle count)")
            failed += cycles
            continue
        clean.append(record)
        if record.breaches:
            notes.append(f"pass {k}: {record.breaches} contract breaches")
            failed += min(record.breaches, cycles)
    return attempted, failed, notes, clean


def _detail(name, seed, trace, passes, audit, values, units) -> dict:
    attempted, failed, notes, _ = audit
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "cycles": int(passes[0].wall_s.size),
        "digest": passes[0].digest,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_untraced(
    name: str, seed: int, seconds: int, quick: bool, workdir: Path
) -> dict:
    """The end-to-end run of one workload."""
    workload = WORKLOADS[name]
    ctx = PassContext(seed=seed, quick=quick, workdir=workdir)
    native_kernel()  # Build or load it before the first pass is timed.
    passes, _ = _run_passes(workload, ctx, pass_count(workload, seconds, quick))
    audit = _audit(passes)
    values = floor_metrics(audit[3])
    values["peak_rss_mb"] = peak_rss_mb()
    detail = _detail(name, seed, 0, passes, audit, values, E2E_UNITS)
    if workload.verify is not None:
        misses = workload.verify(ctx, passes[0])
        detail["failed"] += len(misses)
        detail["notes"] += misses
    return detail


def _traced_floors(workload: Workload, ctx: PassContext, boundaries):
    passes, recorders = _run_passes(workload, ctx, TRACED_PASSES, boundaries)
    return layer_floors(recorders, [p.windows for p in passes]), passes, recorders


def _stress_gap(name: str, floors: dict, ctx: PassContext, boundaries) -> dict:
    """Both decide profiles traced in one process: the ratio of their
    step times and where, stage by stage, the gap between them sits."""
    stress_name, mixed_name = "decide100k-stress", "decide100k-mixed"
    other_name = mixed_name if name == stress_name else stress_name
    other, _, _ = _traced_floors(WORKLOADS[other_name], ctx, boundaries)
    stress, mixed = (floors, other) if name == stress_name else (other, floors)
    return {
        "ratio": stress["step_ms"] / mixed["step_ms"] if mixed["step_ms"] else None,
        "gap_ms": {
            span: stress["self_ms"][span] - mixed["self_ms"][span]
            for span in stress["self_ms"]
            if None not in (stress["self_ms"][span], mixed["self_ms"][span])
        },
    }


def run_traced(
    name: str, seed: int, quick: bool, workdir: Path, boundaries=BOUNDARIES
) -> dict:
    """The traced run of one workload: every per-layer metric.

    A metric whose layer does not execute on this workload, or whose
    boundary or probe no longer resolves, is ``None`` here.
    """
    workload = WORKLOADS[name]
    ctx = PassContext(seed=seed, quick=quick, workdir=workdir)
    values: dict[str, float | None] = dict.fromkeys(LAYER_UNITS)
    values["core.native_kernel"] = float(native_kernel())

    plain, _ = _run_passes(workload, ctx, TRACED_PASSES)
    ctx = PassContext(seed=seed, quick=quick, workdir=workdir, observe=True)
    floors, passes, recorders = _traced_floors(workload, ctx, boundaries)
    audit = _audit(plain + passes)

    for span, ms in floors["self_ms"].items():
        values[f"{span}_ms"] = ms
    if floors["self_ms"].get(STEP_SPAN) is not None:
        values["core.step_ms"] = floors["step_ms"]
    untraced_cycle_ms = 1e3 / floor_metrics(plain)["cycles_per_s"]
    values["trace.overhead_pct"] = 100.0 * (floors["cycle_ms"] / untraced_cycle_ms - 1.0)
    values["trace.coverage_pct"] = floors["coverage_pct"]

    first = passes[0].extras
    if first["observed"]:
        share, restored = np.mean(first["observed"], axis=0)
        values["core.high_priority_share"] = float(share)
        values["core.restored_share"] = float(restored)
    extra: dict = {}
    if name.startswith("decide100k-"):
        values["core.ns_per_unit"] = floors["step_ms"] * 1e6 / first["n_units"]
        gap = _stress_gap(name, floors, ctx, boundaries)
        values["core.stress_over_mixed"] = gap["ratio"]
        extra["stress_gap_ms"] = gap["gap_ms"]
    if name == "guarded1k-sim":
        values["powercap.verify_retries"] = float(first["retries"])
        values["safety.guard_rungs"] = float(first["rungs"])
        counters = recorders[0].counters
        if counters["journal_appends"]:
            values["recovery.journal_bytes_per_cycle"] = (
                counters["journal_bytes"] / counters["journal_appends"]
            )
            values["recovery.checkpoint_bytes"] = float(counters["checkpoint_bytes"])
        if not quick:
            extra["probe_errors"] = []
            for probe, owned, args in (
                (probes.wire_probe, probes.WIRE_METRICS, (seed,)),
                (probes.framing_probe, probes.FRAMING_METRICS, (seed,)),
                (probes.arbiter_probe, probes.ARBITER_METRICS, (seed,)),
                (probes.fleet_probe, probes.FLEET_METRICS, (seed, workdir)),
            ):
                values.update(
                    probes.soft(probe, owned, extra["probe_errors"], *args)
                )

    spans = recorders[-1].columns()
    origin = spans["start"].min() if spans["start"].size else 0.0
    return {
        **_detail(name, seed, 1, plain + passes, audit, values, LAYER_UNITS),
        **extra,
        "trace_unresolved": list(recorders[0].unresolved),
        # The last traced pass, column-wise: ``name`` indexes
        # ``span_names``, ``parent`` indexes the columns (-1: none),
        # times are ns from the first span.
        "span_names": list(recorders[-1].span_names),
        "spans": {
            "name": spans["name"].tolist(),
            "parent": spans["parent"].tolist(),
            "start_ns": np.rint((spans["start"] - origin) * 1e9).astype(np.int64).tolist(),
            "end_ns": np.rint((spans["end"] - origin) * 1e9).astype(np.int64).tolist(),
        },
    }
