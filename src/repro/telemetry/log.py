"""Per-cycle trace recorder (the artifact's power/cap/priority log).

The paper's artifact logs "the average power during every operating cycle,
the power cap set, and the priority (if DPS is running) at every operating
decision for each socket".  :class:`TelemetryLog` records exactly those
channels per step and finalizes them into contiguous arrays for analysis
(figures 2 and 7 are computed from this log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "TelemetryLog",
    "ResilienceEvent",
    "ResilienceEventLog",
    "RecoveryEvent",
    "RESILIENCE_EVENT_KINDS",
    "RECOVERY_EVENT_KINDS",
    "SAFETY_EVENT_KINDS",
    "WORKER_EVENT_KINDS",
    "SHARD_EVENT_KINDS",
    "CyclePhaseTimings",
    "CycleTimingLog",
    "CYCLE_PHASES",
    "ShardLeaseSample",
    "LeaseTimeline",
    "LEASE_TIMELINE_FIELDS",
]

#: Recognized structured resilience event kinds (control-plane failures,
#: fallback decisions, and safe-mode transitions).
RESILIENCE_EVENT_KINDS = (
    "client_quarantined",
    "client_dead",
    "client_rejoined",
    "fallback_applied",
    "cap_clamped",
    "reading_suspect",
    "safe_mode_entered",
    "safe_mode_exited",
    "node_failed",
    "node_recovered",
)

#: Crash-recovery event kinds (checkpointing, restarts, verified
#: actuation).  They share the resilience event channel — one structured
#: stream covers everything that went wrong and what recovery did about
#: it — but are enumerated separately so exports and dashboards can
#: filter recovery activity.
RECOVERY_EVENT_KINDS = (
    "checkpoint_written",
    "checkpoint_rejected",
    "restore_performed",
    "journal_replayed",
    "actuation_retried",
    "actuation_retry_exhausted",
    "controller_killed",
    "controller_hung",
    "controller_restarted",
)

#: Budget-safety envelope event kinds (see :mod:`repro.safety`).  They
#: share the resilience event channel: ``budget_rescaled`` marks the
#: manager-level over-allocation rescale firing, ``budget_overshoot``
#: marks a cycle whose worst-case committed power exceeded the budget,
#: the three ladder kinds name the degradation rung the guard took,
#: ``budget_raise_deferred`` marks cap raises postponed a cycle so the
#: old/new transient union stays under budget, and
#: ``invariant_violation`` reports a failed runtime invariant check.
SAFETY_EVENT_KINDS = (
    "budget_rescaled",
    "budget_overshoot",
    "budget_shave_grants",
    "budget_scale_down",
    "budget_emergency_drop",
    "budget_raise_deferred",
    "invariant_violation",
)

#: Experiment-plane worker-lifecycle event kinds (see the campaign
#: engine's :class:`~repro.experiments.engine.LocalPoolBackend`).  They
#: share the structured event channel so one stream covers everything
#: that went wrong during a campaign: ``pool_rebuilt`` is the pool's
#: recovery from a dead worker process, which re-runs the wave's
#: undelivered jobs — never silently.
WORKER_EVENT_KINDS = ("pool_rebuilt",)

#: Sharded-control-plane event kinds (see :mod:`repro.shard`).  They
#: share the structured event channel: ``node_id`` carries the *shard*
#: index.  Shard membership transitions ride the same quarantine/rejoin
#: semantics as clients; the ``shard_lease_*`` kinds trace
#: the budget-lease lifecycle (granted by the arbiter, applied by the
#: shard, expired without renewal); ``shard_frozen`` / ``shard_unfrozen``
#: mark a shard degrading to lease-expiry safe mode and recovering from
#: it; ``arbiter_killed`` / ``arbiter_restarted`` bracket an arbiter
#: outage (during which every shard runs autonomously on its last
#: lease).  Live membership adds ``shard_admitted`` (a joining shard's
#: HELLO was accepted and a lease carved for it), ``shard_draining`` /
#: ``shard_drained`` (a leaving shard was asked to freeze, then its
#: budget reclaimed once the final frozen summary was acked), and
#: ``link_reconnect`` (a TCP shard link re-established after a drop),
#: and ``events_truncated`` (a cycle acknowledgement hit its per-ack
#: event cap; the overflow count rides in the detail).
#: Every shard-level failover step emits one of these — there is no
#: silent failover.
SHARD_EVENT_KINDS = (
    "shard_registered",
    "shard_lease_granted",
    "shard_lease_applied",
    "shard_lease_expired",
    "shard_frozen",
    "shard_unfrozen",
    "shard_quarantined",
    "shard_rejoined",
    "shard_dead",
    "shard_killed",
    "shard_hung",
    "shard_restarted",
    "shard_partitioned",
    "shard_partition_healed",
    "shard_headroom_reclaimed",
    "shard_admitted",
    "shard_draining",
    "shard_drained",
    "link_reconnect",
    "arbiter_killed",
    "arbiter_restarted",
    "events_truncated",
)

_ALL_EVENT_KINDS = (
    RESILIENCE_EVENT_KINDS
    + RECOVERY_EVENT_KINDS
    + SAFETY_EVENT_KINDS
    + WORKER_EVENT_KINDS
    + SHARD_EVENT_KINDS
)


@dataclass(frozen=True)
class ResilienceEvent:
    """One structured fault/fallback/safe-mode transition.

    Attributes:
        time_s: event time — simulation seconds, or the control-cycle
            index for the TCP deploy layer (which has no simulated clock).
        kind: one of :data:`RESILIENCE_EVENT_KINDS` or
            :data:`RECOVERY_EVENT_KINDS`.
        unit: global unit index, if the event concerns a single unit.
        node_id: node index, if the event concerns a node or its client.
        detail: free-form payload (failure reason, counts, fractions).
    """

    time_s: float
    kind: str
    unit: int | None = None
    node_id: int | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _ALL_EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"expected one of {_ALL_EVENT_KINDS}"
            )


class ResilienceEventLog:
    """Append-only chronological log of resilience events."""

    def __init__(self) -> None:
        self._events: list[ResilienceEvent] = []

    def emit(
        self,
        time_s: float,
        kind: str,
        unit: int | None = None,
        node_id: int | None = None,
        detail: str = "",
    ) -> ResilienceEvent:
        """Append an event and return it."""
        event = ResilienceEvent(
            time_s=time_s, kind=kind, unit=unit, node_id=node_id, detail=detail
        )
        self._events.append(event)
        return event

    def extend(self, other: "ResilienceEventLog") -> None:
        """Merge another log (e.g. a manager's internal log) into this one.

        The merge is stable by ``time_s``, preserving the chronological
        ordering that ``window()``-style consumers and the CSV/JSON
        exporters assume; at equal times this log's events come first,
        then the other log's, each in their original order.
        """
        if not other._events:
            return
        merged = self._events + list(other._events)
        merged.sort(key=lambda e: e.time_s)  # Stable: ties keep order.
        self._events = merged

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ResilienceEvent]:
        return iter(self._events)

    def __getitem__(self, index: slice) -> list[ResilienceEvent]:
        return self._events[index]

    def of_kind(self, kind: str) -> list[ResilienceEvent]:
        """All events of one kind, in order."""
        if kind not in _ALL_EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        return [e for e in self._events if e.kind == kind]

    def for_node(self, node_id: int) -> list[ResilienceEvent]:
        """All events tagged with the given node, in order."""
        return [e for e in self._events if e.node_id == node_id]


#: Recovery events use the same structured record as resilience events;
#: the alias names the crash-recovery subset at its sites of use.
RecoveryEvent = ResilienceEvent


#: Phases of one TCP control cycle, in execution order (see
#: :class:`~repro.deploy.server.DeployServer`).
CYCLE_PHASES = ("rejoin_s", "poll_s", "collect_s", "decide_s", "dispatch_s")


@dataclass(frozen=True)
class CyclePhaseTimings:
    """Wall-clock phase breakdown of one control cycle.

    Attributes:
        cycle: 1-based control-cycle index.
        rejoin_s: draining pending HELLO-rejoins.
        poll_s: POLL fan-out (concurrent mode) or the whole blocking
            request/response exchange (sequential mode, where
            ``collect_s`` is zero); includes the answers of daemons
            attached in-process, which read and send inside it.
        collect_s: fan-in — the event loop collecting READINGS batches
            up to the per-cycle deadline.
        decide_s: the manager's decision step.
        dispatch_s: building and writing the CAPS batches; includes the
            cap programming of daemons attached in-process.
    """

    cycle: int
    rejoin_s: float
    poll_s: float
    collect_s: float
    decide_s: float
    dispatch_s: float

    @property
    def total_s(self) -> float:
        """Sum of all phases — the cycle's wall time."""
        return (
            self.rejoin_s
            + self.poll_s
            + self.collect_s
            + self.decide_s
            + self.dispatch_s
        )


class CycleTimingLog:
    """Append-only per-cycle phase-timing channel of a deploy session."""

    def __init__(self) -> None:
        self._timings: list[CyclePhaseTimings] = []

    def record(self, timings: CyclePhaseTimings) -> None:
        """Append one cycle's phase breakdown."""
        self._timings.append(timings)

    def extend(self, other: "CycleTimingLog") -> None:
        """Append another log's cycles (e.g. a later supervised attempt)."""
        self._timings.extend(other._timings)

    def __len__(self) -> int:
        return len(self._timings)

    def __iter__(self) -> Iterator[CyclePhaseTimings]:
        return iter(self._timings)

    def __getitem__(self, index: int) -> CyclePhaseTimings:
        return self._timings[index]

    def as_columns(self) -> dict[str, np.ndarray]:
        """Column-oriented view: cycle indices plus one array per phase."""
        cols: dict[str, np.ndarray] = {
            "cycle": np.asarray(
                [t.cycle for t in self._timings], dtype=np.int64
            )
        }
        for phase in CYCLE_PHASES:
            cols[phase] = np.asarray(
                [getattr(t, phase) for t in self._timings], dtype=np.float64
            )
        cols["total_s"] = np.asarray(
            [t.total_s for t in self._timings], dtype=np.float64
        )
        return cols


#: Columns of one lease-timeline sample, in export order.
LEASE_TIMELINE_FIELDS = (
    "cycle",
    "shard_id",
    "lease_w",
    "committed_w",
    "headroom_w",
    "seq",
    "dark",
    "frozen",
)


@dataclass(frozen=True)
class ShardLeaseSample:
    """One shard's lease decision at one arbiter cycle.

    Attributes:
        cycle: the arbiter cycle index (control-cycle clock).
        shard_id: which shard the lease belongs to.
        lease_w: the budget lease (W) the arbiter holds for this shard
            after the cycle's redistribution.
        committed_w: the shard's last reported steady committed power
            (W); NaN before the first summary arrives.
        headroom_w: ``lease_w - committed_w`` (NaN with no summary) —
            the watts the arbiter could provably reclaim.
        seq: the lease sequence number last acknowledged by the shard.
        dark: True when the shard was unreachable this cycle (crashed,
            hung, or partitioned) and its lease is held conservatively.
        frozen: True when the shard reported lease-expiry safe mode.
    """

    cycle: int
    shard_id: int
    lease_w: float
    committed_w: float
    headroom_w: float
    seq: int
    dark: bool
    frozen: bool


class LeaseTimeline:
    """Append-only per-arbiter-cycle record of every shard's lease."""

    def __init__(self) -> None:
        self._samples: list[ShardLeaseSample] = []

    def record(self, sample: ShardLeaseSample) -> None:
        """Append one shard's sample."""
        self._samples.append(sample)

    def extend(self, other: "LeaseTimeline") -> None:
        """Append another timeline's samples (e.g. a restarted arbiter)."""
        self._samples.extend(other._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[ShardLeaseSample]:
        return iter(self._samples)

    def __getitem__(self, index: int) -> ShardLeaseSample:
        return self._samples[index]

    def for_shard(self, shard_id: int) -> list[ShardLeaseSample]:
        """All samples of one shard, in cycle order."""
        return [s for s in self._samples if s.shard_id == shard_id]

    def as_columns(self) -> dict[str, np.ndarray]:
        """Column-oriented view keyed by :data:`LEASE_TIMELINE_FIELDS`."""
        cols: dict[str, np.ndarray] = {}
        for name in LEASE_TIMELINE_FIELDS:
            values = [getattr(s, name) for s in self._samples]
            if name in ("cycle", "shard_id", "seq"):
                cols[name] = np.asarray(values, dtype=np.int64)
            elif name in ("dark", "frozen"):
                cols[name] = np.asarray(values, dtype=bool)
            else:
                cols[name] = np.asarray(values, dtype=np.float64)
        return cols


class TelemetryLog:
    """Append-per-step trace of a simulation.

    Args:
        n_units: number of units traced.
    """

    def __init__(self, n_units: int) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self.n_units = n_units
        self._time: list[float] = []
        self._power: list[np.ndarray] = []
        self._readings: list[np.ndarray] = []
        self._caps: list[np.ndarray] = []
        self._priority: list[np.ndarray] = []
        self._finalized: dict[str, np.ndarray] | None = None
        #: Structured resilience events recorded alongside the traces
        #: (quarantines, fallbacks, clamps, safe-mode transitions).
        self.events = ResilienceEventLog()

    def __len__(self) -> int:
        return len(self._time)

    def record(
        self,
        time_s: float,
        true_power_w: np.ndarray,
        readings_w: np.ndarray,
        caps_w: np.ndarray,
        priority: np.ndarray | None = None,
    ) -> None:
        """Append one step.

        Args:
            time_s: simulation time at the end of the step.
            true_power_w: hidden true power per unit.
            readings_w: noisy meter readings per unit.
            caps_w: caps in effect during the step.
            priority: DPS high-priority mask, or None for other managers
                (recorded as all-False).
        """
        for name, arr in (
            ("true_power_w", true_power_w),
            ("readings_w", readings_w),
            ("caps_w", caps_w),
        ):
            if np.shape(arr) != (self.n_units,):
                raise ValueError(
                    f"{name} shape {np.shape(arr)} != ({self.n_units},)"
                )
        self._finalized = None
        self._time.append(float(time_s))
        self._power.append(np.asarray(true_power_w, dtype=np.float64).copy())
        self._readings.append(np.asarray(readings_w, dtype=np.float64).copy())
        self._caps.append(np.asarray(caps_w, dtype=np.float64).copy())
        if priority is None:
            self._priority.append(np.zeros(self.n_units, dtype=bool))
        else:
            if np.shape(priority) != (self.n_units,):
                raise ValueError(
                    f"priority shape {np.shape(priority)} != ({self.n_units},)"
                )
            self._priority.append(np.asarray(priority, dtype=bool).copy())

    def _finalize(self) -> dict[str, np.ndarray]:
        if self._finalized is None:
            self._finalized = {
                "time_s": np.asarray(self._time, dtype=np.float64),
                "power_w": (
                    np.stack(self._power)
                    if self._power
                    else np.empty((0, self.n_units))
                ),
                "readings_w": (
                    np.stack(self._readings)
                    if self._readings
                    else np.empty((0, self.n_units))
                ),
                "caps_w": (
                    np.stack(self._caps)
                    if self._caps
                    else np.empty((0, self.n_units))
                ),
                "priority": (
                    np.stack(self._priority)
                    if self._priority
                    else np.empty((0, self.n_units), dtype=bool)
                ),
            }
        return self._finalized

    @property
    def time_s(self) -> np.ndarray:
        """Step-end times, shape ``(steps,)``."""
        return self._finalize()["time_s"]

    @property
    def power_w(self) -> np.ndarray:
        """True power, shape ``(steps, n_units)``."""
        return self._finalize()["power_w"]

    @property
    def readings_w(self) -> np.ndarray:
        """Noisy readings, shape ``(steps, n_units)``."""
        return self._finalize()["readings_w"]

    @property
    def caps_w(self) -> np.ndarray:
        """Caps in effect, shape ``(steps, n_units)``."""
        return self._finalize()["caps_w"]

    @property
    def priority(self) -> np.ndarray:
        """High-priority masks, shape ``(steps, n_units)``."""
        return self._finalize()["priority"]

    def window(self, start_s: float, end_s: float) -> dict[str, np.ndarray]:
        """Slice all channels to steps with ``start_s < t <= end_s``.

        Returns:
            Dict with the same keys as the channel properties.
        """
        if end_s < start_s:
            raise ValueError(f"end_s {end_s} < start_s {start_s}")
        data = self._finalize()
        mask = (data["time_s"] > start_s) & (data["time_s"] <= end_s)
        return {k: v[mask] for k, v in data.items()}
