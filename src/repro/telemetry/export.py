"""Telemetry serialization (the artifact's result logs).

The artifact stores per-cycle logs ("the average power during every
operating cycle, the power cap set, and the priority ... for each socket")
that its plotting scripts consume.  This module writes a
:class:`~repro.telemetry.log.TelemetryLog` in two interchange formats:

* **CSV** — one row per (step, unit), the long format external tools
  (pandas, gnuplot) ingest directly;
* **JSON** — a compact column-oriented document that round-trips back
  into a ``TelemetryLog`` exactly.

The run's event log attached to the trace (runs, outages, quarantines,
fallbacks, guard rungs, recovery) rides along in the JSON document, one
``[time_s, kind, unit, node_id, detail, workload]`` row per event, and
has its own long-format CSV via :func:`events_to_csv`.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.telemetry.log import (
    CYCLE_PHASES,
    LEASE_TIMELINE_FIELDS,
    CyclePhaseTimings,
    CycleTimingLog,
    LeaseTimeline,
    ResilienceEvent,
    ResilienceEventLog,
    ShardLeaseSample,
    TelemetryLog,
)

__all__ = [
    "to_csv",
    "from_csv",
    "to_json",
    "from_json",
    "events_to_csv",
    "timings_to_csv",
    "timings_to_json",
    "timings_from_json",
    "leases_to_csv",
    "leases_to_json",
    "leases_from_json",
]

_CSV_HEADER = "time_s,unit,power_w,reading_w,cap_w,priority"


def to_csv(log: TelemetryLog) -> str:
    """Render a log as long-format CSV (header + one row per step/unit)."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    time_s = log.time_s
    power = log.power_w
    readings = log.readings_w
    caps = log.caps_w
    priority = log.priority
    for i in range(len(log)):
        t = time_s[i]
        for u in range(log.n_units):
            buf.write(
                f"{t:.3f},{u},{power[i, u]:.3f},{readings[i, u]:.3f},"
                f"{caps[i, u]:.3f},{int(priority[i, u])}\n"
            )
    return buf.getvalue()


def from_csv(text: str) -> TelemetryLog:
    """Parse :func:`to_csv` output back into a log.

    Rows must be grouped by step (all units of a step contiguous, as
    written) with every step covering units ``0..n_units-1`` exactly once.

    Raises:
        ValueError: missing header, ragged steps, or malformed rows.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER!r}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"line {i}: expected 6 columns")
        rows.append(
            (
                float(parts[0]),
                int(parts[1]),
                float(parts[2]),
                float(parts[3]),
                float(parts[4]),
                bool(int(parts[5])),
            )
        )
    if not rows:
        raise ValueError("CSV contains a header but no rows")
    n_units = max(r[1] for r in rows) + 1
    if len(rows) % n_units != 0:
        raise ValueError(
            f"{len(rows)} rows do not tile {n_units}-unit steps"
        )
    log = TelemetryLog(n_units)
    for s in range(len(rows) // n_units):
        step = rows[s * n_units : (s + 1) * n_units]
        units = [r[1] for r in step]
        if sorted(units) != list(range(n_units)):
            raise ValueError(f"step {s} does not cover every unit once")
        by_unit = {r[1]: r for r in step}
        log.record(
            step[0][0],
            np.asarray([by_unit[u][2] for u in range(n_units)]),
            np.asarray([by_unit[u][3] for u in range(n_units)]),
            np.asarray([by_unit[u][4] for u in range(n_units)]),
            np.asarray([by_unit[u][5] for u in range(n_units)], dtype=bool),
        )
    return log


def to_json(log: TelemetryLog) -> str:
    """Serialize a log as a column-oriented JSON document."""
    doc = {
        "format": "repro-telemetry-v1",
        "n_units": log.n_units,
        "time_s": log.time_s.tolist(),
        "power_w": log.power_w.tolist(),
        "readings_w": log.readings_w.tolist(),
        "caps_w": log.caps_w.tolist(),
        "priority": log.priority.astype(int).tolist(),
        "events": [
            [e.time_s, e.kind, e.unit, e.node_id, e.detail, e.workload]
            for e in log.events
        ],
    }
    return json.dumps(doc)


def events_to_csv(events: ResilienceEventLog) -> str:
    """Render an event log as long-format CSV."""
    buf = io.StringIO()
    buf.write("time_s,kind,unit,node_id,detail,workload\n")
    for e in events:
        unit = "" if e.unit is None else str(e.unit)
        node = "" if e.node_id is None else str(e.node_id)
        detail = e.detail.replace(",", ";")
        workload = e.workload or ""
        buf.write(f"{e.time_s:.3f},{e.kind},{unit},{node},{detail},{workload}\n")
    return buf.getvalue()


def timings_to_csv(timings: CycleTimingLog) -> str:
    """Render a cycle-timing log as long-format CSV (one row per cycle)."""
    buf = io.StringIO()
    buf.write("cycle," + ",".join(CYCLE_PHASES) + ",total_s\n")
    for t in timings:
        phases = ",".join(f"{getattr(t, p):.6f}" for p in CYCLE_PHASES)
        buf.write(f"{t.cycle},{phases},{t.total_s:.6f}\n")
    return buf.getvalue()


def timings_to_json(timings: CycleTimingLog) -> str:
    """Serialize a cycle-timing log as a column-oriented JSON document."""
    doc: dict = {"format": "repro-cycle-timings-v1"}
    doc["cycle"] = [t.cycle for t in timings]
    for phase in CYCLE_PHASES:
        doc[phase] = [getattr(t, phase) for t in timings]
    return json.dumps(doc)


def timings_from_json(text: str) -> CycleTimingLog:
    """Reconstruct a cycle-timing log from :func:`timings_to_json` output.

    Raises:
        ValueError: wrong format tag or ragged columns.
    """
    doc = json.loads(text)
    if doc.get("format") != "repro-cycle-timings-v1":
        raise ValueError(
            f"unsupported timings format {doc.get('format')!r}"
        )
    cycles = doc["cycle"]
    for phase in CYCLE_PHASES:
        if len(doc[phase]) != len(cycles):
            raise ValueError(
                f"{phase} holds {len(doc[phase])} entries for "
                f"{len(cycles)} cycles"
            )
    log = CycleTimingLog()
    for i, cycle in enumerate(cycles):
        log.record(
            CyclePhaseTimings(
                cycle=int(cycle),
                **{phase: float(doc[phase][i]) for phase in CYCLE_PHASES},
            )
        )
    return log


def leases_to_csv(timeline: LeaseTimeline) -> str:
    """Render a lease timeline as long-format CSV (one row per sample)."""
    buf = io.StringIO()
    buf.write(",".join(LEASE_TIMELINE_FIELDS) + "\n")
    for s in timeline:
        buf.write(
            f"{s.cycle},{s.shard_id},{s.lease_w:.6f},{s.committed_w:.6f},"
            f"{s.headroom_w:.6f},{s.seq},{int(s.dark)},{int(s.frozen)}\n"
        )
    return buf.getvalue()


def leases_to_json(timeline: LeaseTimeline) -> str:
    """Serialize a lease timeline as a column-oriented JSON document."""
    doc: dict = {"format": "repro-lease-timeline-v1"}
    for name, col in timeline.as_columns().items():
        doc[name] = col.tolist()
    return json.dumps(doc)


def leases_from_json(text: str) -> LeaseTimeline:
    """Reconstruct a lease timeline from :func:`leases_to_json` output.

    Raises:
        ValueError: wrong format tag or ragged columns.
    """
    doc = json.loads(text)
    if doc.get("format") != "repro-lease-timeline-v1":
        raise ValueError(
            f"unsupported lease-timeline format {doc.get('format')!r}"
        )
    cycles = doc["cycle"]
    for name in LEASE_TIMELINE_FIELDS:
        if len(doc[name]) != len(cycles):
            raise ValueError(
                f"{name} holds {len(doc[name])} entries for "
                f"{len(cycles)} samples"
            )
    timeline = LeaseTimeline()
    for i in range(len(cycles)):
        timeline.record(
            ShardLeaseSample(
                cycle=int(doc["cycle"][i]),
                shard_id=int(doc["shard_id"][i]),
                lease_w=float(doc["lease_w"][i]),
                committed_w=float(doc["committed_w"][i]),
                headroom_w=float(doc["headroom_w"][i]),
                seq=int(doc["seq"][i]),
                dark=bool(doc["dark"][i]),
                frozen=bool(doc["frozen"][i]),
            )
        )
    return timeline


def from_json(text: str) -> TelemetryLog:
    """Reconstruct a log from :func:`to_json` output.

    Raises:
        ValueError: wrong format tag or inconsistent shapes.
    """
    doc = json.loads(text)
    if doc.get("format") != "repro-telemetry-v1":
        raise ValueError(
            f"unsupported telemetry format {doc.get('format')!r}"
        )
    n_units = int(doc["n_units"])
    log = TelemetryLog(n_units)
    time_s = doc["time_s"]
    expected = (len(time_s), n_units)

    def channel(name: str, dtype: type) -> np.ndarray:
        arr = np.asarray(doc[name], dtype=dtype)
        # An empty channel deserializes as shape (0,); normalize it.
        if arr.size == 0:
            arr = arr.reshape(0, n_units)
        return arr

    power = channel("power_w", np.float64)
    readings = channel("readings_w", np.float64)
    caps = channel("caps_w", np.float64)
    priority = channel("priority", bool)
    for name, arr in (
        ("power_w", power),
        ("readings_w", readings),
        ("caps_w", caps),
        ("priority", priority),
    ):
        if arr.shape != expected:
            raise ValueError(
                f"{name} shape {arr.shape} != {expected} in document"
            )
    for i, t in enumerate(time_s):
        log.record(float(t), power[i], readings[i], caps[i], priority[i])
    # Events are optional so documents written before the resilience layer
    # still load, and so is their workload column (added later).
    for time, kind, unit, node_id, detail, *workload in doc.get("events", []):
        log.events.append(
            ResilienceEvent(
                float(time),
                str(kind),
                unit=None if unit is None else int(unit),
                node_id=None if node_id is None else int(node_id),
                detail=str(detail),
                workload=workload[0] if workload else None,
            )
        )
    return log
