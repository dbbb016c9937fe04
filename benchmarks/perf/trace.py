"""Boundary-span tracing from outside the program.

A fixed table of public boundary callables is resolved by dotted name
and each is replaced, for the duration of a traced pass, by a wrapper
that stamps the clock on the way in and out.  Spans land in
preallocated arrays (name id, start, end, parent); self time is a span
minus its child spans, and each layer figure is the per-cycle self
time with the minimum taken over the traced passes.

A name that no longer resolves is reported under ``unresolved`` and its
layer reads ``None`` — a rename inside the program must never fail the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

#: (boundary callable, span name).  The span name is the stem of the
#: per-layer metric ``<span>_ms`` that reports its self time.
BOUNDARIES = (
    ("repro.core.managers.PowerManager.step", "core.glue"),
    ("repro.core.kalman.KalmanBank.update", "core.kalman"),
    ("repro.core.history.HistoryBuffer.push", "core.history"),
    ("repro.core.stateless.mimd_step", "core.mimd"),
    ("repro.core.priority.PriorityModule.update", "core.priority"),
    ("repro.core.readjust.restore", "core.restore"),
    ("repro.core.readjust.readjust", "core.readjust"),
    ("repro.cluster.simulator.Simulation.run", "cluster.loop"),
    ("repro.cluster.cluster.Cluster.step_physics", "cluster.physics"),
    ("repro.cluster.perfmodel.progress_rate", "cluster.perf"),
    ("repro.workloads.runtime.WorkloadExecution.demand", "workloads.demand"),
    ("repro.workloads.runtime.WorkloadExecution.advance", "workloads.advance"),
    ("repro.cluster.cluster.Cluster.read_powers_w", "powercap.meter"),
    ("repro.cluster.cluster.Cluster.caps_w", "powercap.caps_read"),
    ("repro.powercap.actuator.CapActuator.issue", "powercap.actuate"),
    ("repro.safety.guard.BudgetGuard.enforce", "safety.guard"),
    (
        "repro.safety.envelope.BudgetEnvelope.record_commanded",
        "safety.envelope",
    ),
    (
        "repro.safety.envelope.BudgetEnvelope.record_dispatched",
        "safety.envelope",
    ),
    ("repro.safety.envelope.BudgetEnvelope.record_applied", "safety.envelope"),
    ("repro.safety.invariants.InvariantMonitor.run", "safety.invariants"),
    ("repro.recovery.controller.RecoverableController.step", "recovery.step"),
    ("repro.recovery.checkpoint.CycleJournal.append", "recovery.journal"),
    ("repro.recovery.checkpoint.CycleJournal.truncate", "recovery.checkpoint"),
    ("repro.recovery.checkpoint.CheckpointStore.save", "recovery.checkpoint"),
    ("repro.telemetry.log.TelemetryLog.record", "telemetry.record"),
)

#: The span whose *inclusive* time is ``core.step_ms``.
STEP_SPAN = "core.glue"


def _journal_appended(counters: dict, args: tuple, result: object) -> None:
    """Bytes the append just made durable: the file's growth."""
    size = args[0].path.stat().st_size
    counters["journal_bytes"] += size - counters["journal_size"]
    counters["journal_size"] = size
    counters["journal_appends"] += 1


def _journal_truncated(counters: dict, args: tuple, result: object) -> None:
    counters["journal_size"] = 0


def _checkpoint_saved(counters: dict, args: tuple, result: object) -> None:
    counters["checkpoint_bytes"] = result.stat().st_size


#: Counts taken at a boundary, after its span has closed.
OBSERVERS = {
    "repro.recovery.checkpoint.CycleJournal.append": _journal_appended,
    "repro.recovery.checkpoint.CycleJournal.truncate": _journal_truncated,
    "repro.recovery.checkpoint.CheckpointStore.save": _checkpoint_saved,
}


def resolve(dotted: str) -> tuple[object, str, object]:
    """``(owner, attribute, function)`` of a dotted boundary name.

    Raises:
        LookupError: the name does not lead to a plain function defined
            on its module or class.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        fn = vars(owner).get(parts[-1]) if owner is not None else None
        if not inspect.isfunction(fn):
            break
        return owner, parts[-1], fn
    raise LookupError(dotted)


class SpanRecorder:
    """Span arrays plus the patches that fill them.

    Use as a context manager around one traced pass: entering installs
    the wrappers, leaving restores every original.
    """

    def __init__(self, boundaries=BOUNDARIES, capacity: int = 1 << 18) -> None:
        self.boundaries = tuple(boundaries)
        self.span_names = tuple(
            dict.fromkeys(name for _, name in self.boundaries)
        )
        self.names = [0] * capacity
        self.starts = [0.0] * capacity
        self.ends = [0.0] * capacity
        self.parents = [-1] * capacity
        self.cursor = [0]
        self.stack = [-1]
        self.counters: dict[str, float] = {
            "journal_bytes": 0,
            "journal_size": 0,
            "journal_appends": 0,
            "checkpoint_bytes": 0,
            "observer_errors": 0,
        }
        self.unresolved: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _grow(self) -> None:
        more = len(self.names)
        self.names.extend([0] * more)
        self.starts.extend([0.0] * more)
        self.ends.extend([0.0] * more)
        self.parents.extend([-1] * more)

    def _wrap(self, fn, name_id: int, observer):
        names, starts, ends = self.names, self.starts, self.ends
        parents, cursor, stack = self.parents, self.cursor, self.stack
        counters, grow, clock = self.counters, self._grow, perf_counter

        @functools.wraps(fn)
        def boundary(*args, **kwargs):
            i = cursor[0]
            cursor[0] = i + 1
            if i == len(names):
                grow()
            names[i] = name_id
            parents[i] = stack[-1]
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer is not None:
                try:
                    observer(counters, args, result)
                except Exception:  # A count is never worth the run.
                    counters["observer_errors"] += 1
            return result

        return boundary

    def __enter__(self) -> "SpanRecorder":
        for dotted, span in self.boundaries:
            try:
                owner, attr, fn = resolve(dotted)
            except LookupError:
                self.unresolved.append(dotted)
                continue
            wrapper = self._wrap(
                fn, self.span_names.index(span), OBSERVERS.get(dotted)
            )
            if inspect.isclass(owner):
                holders = [(owner, attr)]
            else:
                # ``from x import f`` copies the reference: patch every
                # repro module attribute that is this function.
                holders = [
                    (module, key)
                    for name, module in list(sys.modules.items())
                    if module is not None and name.split(".")[0] == "repro"
                    for key, value in list(vars(module).items())
                    if value is fn
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, fn))
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (for analysis and trace.json)."""
        n = self.cursor[0]
        return {
            "name": np.asarray(self.names[:n], dtype=np.intp),
            "start": np.asarray(self.starts[:n]),
            "end": np.asarray(self.ends[:n]),
            "parent": np.asarray(self.parents[:n], dtype=np.intp),
        }


def _overlap(windows: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Seconds of each window covered by the given spans, none of which
    is longer than two windows (a child of the loop holds one tick)."""
    n = len(windows)
    head = np.searchsorted(windows[:, 0], start, side="right") - 1
    tail = np.searchsorted(windows[:, 0], end, side="right") - 1

    def clipped(index: np.ndarray, keep: np.ndarray) -> np.ndarray:
        at = index[keep]
        seconds = np.minimum(end[keep], windows[at, 1]) - np.maximum(
            start[keep], windows[at, 0]
        )
        return np.bincount(at, weights=np.maximum(seconds, 0.0), minlength=n)

    return clipped(head, head >= 0) + clipped(tail, (tail >= 0) & (tail != head))


def per_cycle_self(
    recorder: SpanRecorder, windows: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Self seconds of every span name in every timed cycle.

    A span belongs to the cycle whose window holds its start.  A root
    span that holds whole cycles instead (``Simulation.run``) gives each
    of them the window minus the direct children that start in it.

    Returns:
        ``(self_s, step_s)``: per span name an array over cycles, and
        the inclusive seconds of the ``STEP_SPAN`` spans per cycle.
    """
    col = recorder.columns()
    name, start, end, parent = (col[k] for k in ("name", "start", "end", "parent"))
    n_cycles = len(windows)
    dur = end - start
    nested = parent >= 0
    child_s = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    cycle = np.searchsorted(windows[:, 0], start, side="right") - 1
    inside = (cycle >= 0) & (start < windows[np.maximum(cycle, 0), 1])

    self_s = {}
    for name_id, span in enumerate(recorder.span_names):
        pick = inside & (name == name_id)
        # bincount of nothing comes back as integers, weights or not.
        self_s[span] = np.bincount(
            cycle[pick], weights=(dur - child_s)[pick], minlength=n_cycles
        ).astype(np.float64)
    pick = inside & (name == recorder.span_names.index(STEP_SPAN))
    step_s = np.bincount(cycle[pick], weights=dur[pick], minlength=n_cycles)

    width = windows[:, 1] - windows[:, 0]
    for root in np.flatnonzero(~nested & ~inside):
        first = np.searchsorted(windows[:, 0], start[root], side="left")
        last = np.searchsorted(windows[:, 1], end[root], side="right")
        if last <= first:
            continue
        kids = parent == root
        held = _overlap(windows, start[kids], end[kids])
        self_s[recorder.span_names[name[root]]][first:last] += (
            width - held
        )[first:last]
    return self_s, step_s


def layer_floors(
    recorders: list[SpanRecorder], windows: list[np.ndarray]
) -> dict:
    """Per-cycle floor of every layer over the traced passes.

    Returns:
        ``{"self_ms": {span: ms per cycle, or None when no span of that
        name ran}, "step_ms", "cycle_ms", "coverage_pct"}``.
    """
    per_pass = [per_cycle_self(r, w) for r, w in zip(recorders, windows)]
    n_cycles = len(windows[0])
    self_ms: dict[str, float | None] = {}
    covered = 0.0
    for span in recorders[0].span_names:
        floor = np.min([p[0][span] for p in per_pass], axis=0)
        ran = any(np.any(p[0][span]) for p in per_pass)
        self_ms[span] = float(floor.sum()) / n_cycles * 1e3 if ran else None
        covered += float(floor.sum())
    step = np.min([p[1] for p in per_pass], axis=0)
    cycle = np.min([w[:, 1] - w[:, 0] for w in windows], axis=0)
    return {
        "self_ms": self_ms,
        "step_ms": float(step.sum()) / n_cycles * 1e3,
        "cycle_ms": float(cycle.sum()) / n_cycles * 1e3,
        "coverage_pct": 100.0 * covered / float(cycle.sum()),
    }
