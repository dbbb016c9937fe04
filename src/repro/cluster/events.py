"""Structured event log of a simulation run.

The paper's artifact logs "the start time, end time, and throughput time of
each workload" alongside the per-cycle power data; this module is the
structured half of that log (the per-cycle half lives in
:mod:`repro.telemetry.log`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Event", "EventLog", "EventKind", "NodeFailureEvent"]

EventKind = str

#: Recognized event kinds.
EVENT_KINDS = (
    "run_started",
    "run_completed",
    "caps_restored",
    "budget_violation",
    "simulation_truncated",
    "node_failed",
    "node_recovered",
    "safe_mode_entered",
    "safe_mode_exited",
)


@dataclass(frozen=True)
class NodeFailureEvent:
    """A scheduled node crash (and optional recovery) for the simulator.

    While a node is down its units draw no power (the machine is off) and
    their meters read as dropouts (exactly 0.0 W) — the same signature a
    dead host leaves in real telemetry.  On recovery the node resumes from
    cold (idle power, lagging back up under its workload's demand).  The
    windows ``[fail_at_s, recover_at_s)`` of one node must not overlap.

    Attributes:
        node_id: the node that fails.
        fail_at_s: simulation time of the crash.
        recover_at_s: simulation time of the recovery, or None if the
            node never comes back.
    """

    node_id: int
    fail_at_s: float
    recover_at_s: float | None = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if not (math.isfinite(self.fail_at_s) and self.fail_at_s >= 0):
            raise ValueError(
                f"fail_at_s must be finite and >= 0, got {self.fail_at_s}"
            )
        if self.recover_at_s is not None and not math.isfinite(
            self.recover_at_s
        ):
            # A permanent failure omits recover_at_s; inf/nan would
            # only spell that by accident.
            raise ValueError(
                f"recover_at_s must be finite, got {self.recover_at_s}"
            )
        if self.recover_at_s is not None and (
            self.recover_at_s <= self.fail_at_s
        ):
            raise ValueError(
                f"recover_at_s {self.recover_at_s} must be after "
                f"fail_at_s {self.fail_at_s}"
            )


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event.

    Attributes:
        time_s: simulation time of the event.
        kind: one of :data:`EVENT_KINDS`.
        workload: workload name, if the event concerns one.
        detail: free-form payload (run index, violation magnitude, ...).
    """

    time_s: float
    kind: EventKind
    workload: str | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )


class EventLog:
    """Append-only chronological event collection."""

    def __init__(self) -> None:
        self._events: list[Event] = []

    def emit(
        self,
        time_s: float,
        kind: EventKind,
        workload: str | None = None,
        detail: str = "",
    ) -> Event:
        """Append an event and return it."""
        event = Event(time_s=time_s, kind=kind, workload=workload, detail=detail)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        """All events of one kind, in order."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        return [e for e in self._events if e.kind == kind]

    def for_workload(self, workload: str) -> list[Event]:
        """All events tagged with the given workload, in order."""
        return [e for e in self._events if e.workload == workload]
