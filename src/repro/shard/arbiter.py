"""The budget arbiter: the upper level of the sharded control plane.

:class:`BudgetArbiter` treats shards exactly as a
:class:`~repro.deploy.server.DeployServer` treats clients — the whole
safety stack is reused one level up:

* a :class:`~repro.safety.envelope.BudgetEnvelope` tracks per-shard
  commanded / dispatched / applied lease views (a grant is *dispatched*
  when the link accepts it and *applied* when a summary acknowledges its
  sequence number);
* a :class:`~repro.safety.guard.BudgetGuard` enforces the global budget
  on worst-case committed power, so a lease raise is deferred until the
  matching reclaim has been *acknowledged* — during a partition the
  reclaimed watts are provably not handed out twice;
* a :class:`~repro.deploy.health.ClientHealth` per shard drives
  quarantine (a shard missing one collection is DEGRADED and counted
  dark) and HELLO-style rejoin (any summary from a quarantined shard);
* an :class:`~repro.safety.invariants.InvariantMonitor` sweeps every
  arbiter cycle, including the ``shard-lease-conservation`` check over
  this object's :attr:`shard_worst_case_w` / :attr:`shard_steady_committed_w`.

The arbiter itself crash-recovers through a
:class:`~repro.recovery.checkpoint.CheckpointStore`: every cycle's state
(leases, sequence numbers, envelope views) is checkpointed, and
:meth:`resume` restores the newest valid generation.  While the arbiter
is down, shards freeze on their lease terms — safe-mode autonomy — so a
restored arbiter's conservative checkpoint view is always an upper bound
on what the shards actually hold.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.deploy.health import ClientHealth, HealthState, ResilienceConfig
from repro.recovery.checkpoint import CheckpointStore
from repro.safety import (
    BudgetEnvelope,
    BudgetGuard,
    InvariantContext,
    InvariantMonitor,
)
from repro.shard.lease import ArbiterConfig, BudgetLease, ShardLink, ShardSummary
from repro.shard.policy import redistribute
from repro.telemetry.log import (
    LeaseTimeline,
    ResilienceEventLog,
    ShardLeaseSample,
)

__all__ = ["ArbiterShard", "BudgetArbiter", "ArbiterCycleStats"]

def _num(value: float) -> float | None:
    """NaN-safe JSON scalar (NaN has no JSON encoding)."""
    return float(value) if np.isfinite(value) else None


def _denum(value: float | None) -> float:
    return np.nan if value is None else float(value)


#: Schema version of the arbiter checkpoint payload.  Version 2 keys
#: shard state (including each shard's envelope views) by ``shard_id``
#: so a restore tolerates membership changes between checkpoint and
#: recovery; version 1 payloads (positional, fixed membership) are still
#: accepted.
ARBITER_SNAPSHOT_VERSION = 2


class ArbiterShard(NamedTuple):
    """Static description of one shard under arbitration.

    Attributes:
        shard_id: the shard's index.
        link: the arbiter↔shard channel.
        n_units: power-capping units the shard owns.
        min_cap_w / max_cap_w: the shard's per-unit cap range (its lease
            floor is ``n_units * min_cap_w``, its ceiling
            ``n_units * max_cap_w``).
    """

    shard_id: int
    link: ShardLink
    n_units: int
    min_cap_w: float
    max_cap_w: float


class ArbiterCycleStats(NamedTuple):
    """Accounting of one arbiter cycle.

    Attributes:
        leases_w: per-shard leases after this cycle.
        dark: per-shard quarantine mask.
        reclaimed_w: watts drawn down from live shards this cycle.
        restored: True when the restore branch fired.
        guard_rung: degradation rung the arbiter guard took (None
            normally — the policy pre-fits the budget).
        worst_case_w: global worst-case committed power.
        steady_w: global steady committed power.
    """

    leases_w: np.ndarray
    dark: np.ndarray
    reclaimed_w: float
    restored: bool
    guard_rung: str | None
    worst_case_w: float
    steady_w: float


class _ShardRecord:
    """Mutable arbiter-side state of one shard."""

    def __init__(
        self, spec: ArbiterShard, lease_w: float, config: ResilienceConfig
    ) -> None:
        self.spec = spec
        self.lease_w = float(lease_w)
        self.seq = 0
        #: Grant values in flight, keyed by sequence number.
        self.sent: dict[int, float] = {}
        self.health = ClientHealth(config)
        self.last_summary: ShardSummary | None = None
        #: True once :meth:`BudgetArbiter.drain` marked this shard as
        #: leaving: it is treated as frozen (no grants, no reclaim) until
        #: its final frozen summary arrives, at which point the record is
        #: removed and its budget reclaimed.
        self.draining = False


class _PendingShard:
    """A shard admitted but not yet a member (HELLO/ADMIT handshake).

    The shard's hardware sits outside the budget boundary (racked but
    capped at its floor, the admission contract) until the arbiter can
    prove ``held + floor <= budget``; only then does it become a member
    and receive grants.
    """

    def __init__(self, spec: ArbiterShard) -> None:
        self.spec = spec
        self.floor_w = spec.n_units * spec.min_cap_w
        self.hello_seen = False
        self.newest_summary: ShardSummary | None = None


class BudgetArbiter:
    """Leases the global budget across shard servers.

    Args:
        budget_w: the global power budget (W).
        shards: the shard descriptions, in shard-id order.
        initial_leases_w: the per-shard budgets the shards were
            constructed with (granted synchronously at startup, so they
            seed the envelope's applied view); proportional-by-units
            shares are used when omitted.
        config: lease protocol knobs.
        events: the session's event log (``shard_*`` kinds; shared with
            the fleet so one log tells the whole story); without one the
            arbiter keeps its own, stamped with :attr:`cycle`.
        timeline: per-shard lease timeline to append to (owned by the
            caller so it survives arbiter restarts).
        store: checkpoint store for arbiter crash recovery (optional).
        resilience: shard quarantine/backoff knobs.
        invariant_mode: cadence of the arbiter's invariant monitor
            (``"strict"`` raises on violation — the chaos-test posture).
    """

    def __init__(
        self,
        budget_w: float,
        shards: Sequence[ArbiterShard],
        initial_leases_w: np.ndarray | None = None,
        config: ArbiterConfig | None = None,
        events: ResilienceEventLog | None = None,
        timeline: LeaseTimeline | None = None,
        store: CheckpointStore | None = None,
        resilience: ResilienceConfig | None = None,
        invariant_mode: str = "strict",
    ) -> None:
        if not shards:
            raise ValueError("arbiter needs at least one shard")
        if budget_w <= 0:
            raise ValueError(f"budget_w must be > 0, got {budget_w}")
        self.budget_w = float(budget_w)
        self.config = config or ArbiterConfig()
        self.events = events if events is not None else ResilienceEventLog(
            lambda: self.cycle
        )
        self.timeline = timeline if timeline is not None else LeaseTimeline()
        self.store = store
        self.cycle = 0

        units = np.asarray([s.n_units for s in shards], dtype=np.float64)
        self.floor_w = np.asarray(
            [s.n_units * s.min_cap_w for s in shards], dtype=np.float64
        )
        self.ceiling_w = np.asarray(
            [s.n_units * s.max_cap_w for s in shards], dtype=np.float64
        )
        if float(self.floor_w.sum()) > self.budget_w:
            raise ValueError(
                f"budget {self.budget_w} W cannot cover every shard's floor "
                f"({float(self.floor_w.sum())} W)"
            )
        if initial_leases_w is None:
            initial = np.clip(
                self.budget_w * units / float(units.sum()),
                self.floor_w,
                self.ceiling_w,
            )
        else:
            initial = np.asarray(initial_leases_w, dtype=np.float64)
            if initial.shape != (len(shards),):
                raise ValueError(
                    f"initial_leases_w shape {initial.shape} != "
                    f"({len(shards)},)"
                )

        res = resilience or ResilienceConfig()
        self._resilience = res
        self._pending: list[_PendingShard] = []
        self._records = [
            _ShardRecord(spec, initial[i], res)
            for i, spec in enumerate(shards)
        ]
        for i, spec in enumerate(shards):
            self.events.emit(
                "shard_registered",
                node_id=spec.shard_id,
                detail=f"units={spec.n_units} lease={initial[i]:.1f}W",
            )

        # The arbiter-level safety stack: one "unit" per shard.  The
        # applied view is seeded with the initial leases — the shards
        # were *constructed* holding them, which is exactly a confirmed
        # application (no pessimistic uncapped-hardware prior applies).
        self.envelope = BudgetEnvelope(
            len(shards), self.budget_w, float(self.ceiling_w.max())
        )
        self.envelope.record_dispatched(slice(None), initial)
        self.envelope.record_applied(slice(None), initial)
        self.guard = BudgetGuard(self.envelope, min_cap_w=0.0, events=self.events)
        self.monitor = InvariantMonitor(mode=invariant_mode, events=self.events)
        self._last_stats: ArbiterCycleStats | None = None

    # ------------------------------------------------------------------
    # Introspection the shard-lease-conservation invariant reads.
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._records)

    @property
    def leases_w(self) -> np.ndarray:
        """Current per-shard leases (last dispatched values)."""
        return np.asarray([r.lease_w for r in self._records])

    @property
    def dark_shards(self) -> tuple[int, ...]:
        """Shard ids currently quarantined (no summary at collection)."""
        return tuple(
            r.spec.shard_id for r in self._records if r.health.quarantined
        )

    @property
    def member_ids(self) -> tuple[int, ...]:
        """Shard ids currently under arbitration (admitted, not reaped)."""
        return tuple(r.spec.shard_id for r in self._records)

    @property
    def member_specs(self) -> tuple[ArbiterShard, ...]:
        """Specs of the current members (for reconstructing the arbiter
        after a crash when membership changed since construction)."""
        return tuple(r.spec for r in self._records)

    @property
    def pending_ids(self) -> tuple[int, ...]:
        """Shard ids admitted but still awaiting HELLO or headroom."""
        return tuple(p.spec.shard_id for p in self._pending)

    @property
    def shard_worst_case_w(self) -> float | None:
        """Global worst-case committed power of the last cycle (W)."""
        if self._last_stats is None:
            return None
        return self._last_stats.worst_case_w

    @property
    def shard_steady_committed_w(self) -> float | None:
        """Global steady committed power of the last cycle (W)."""
        if self._last_stats is None:
            return None
        return self._last_stats.steady_w

    # ------------------------------------------------------------------
    # Live membership.
    # ------------------------------------------------------------------

    def admit(self, spec: ArbiterShard) -> None:
        """Start the HELLO/ADMIT handshake for a joining shard.

        The shard becomes *pending*: its link is polled each cycle for a
        HELLO document (``{"type": "hello", "shard": id, ...}``, sent by
        the shard when the arbiter's link connects).  Once the HELLO has
        arrived *and* the proven held power plus the shard's floor fits
        the budget, the shard becomes a member — its lease is carved by
        the same :func:`redistribute` pass that shapes every other
        lease, with its floor reserved from the policy budget while it
        waits so live shards shrink to make room.

        Admission contract: the joining shard runs capped at its floor
        (``n_units * min_cap_w``) from before its HELLO until its first
        grant — that is what lets the arbiter book it at the floor
        instead of the pessimistic TDP prior.
        """
        taken = set(self.member_ids) | set(self.pending_ids)
        if spec.shard_id in taken:
            raise ValueError(f"shard {spec.shard_id} already known")
        pending = _PendingShard(spec)
        if float(self.floor_w.sum()) + pending.floor_w > self.budget_w:
            raise ValueError(
                f"budget {self.budget_w} W cannot cover shard "
                f"{spec.shard_id}'s floor on top of existing floors"
            )
        self._pending.append(pending)

    def drain(self, shard_id: int) -> None:
        """Begin draining a member shard (idempotent).

        The shard is marked draining — treated as frozen at its held
        power, granted nothing — and its budget is reclaimed only when a
        summary with ``final`` and ``frozen`` set arrives: the shard's
        acknowledgement that its hardware is pinned at the frozen power.
        Until then the watts stay booked, so a drain that never
        completes can never fund a double-spend.
        """
        record = self._record_for(shard_id)
        if record.draining:
            return
        active = sum(1 for r in self._records if not r.draining)
        if active <= 1:
            raise ValueError("cannot drain the last active shard")
        record.draining = True
        self.events.emit(
            "shard_draining",
            node_id=shard_id,
            detail=f"lease={record.lease_w:.1f}W held until final summary",
        )

    def _record_for(self, shard_id: int) -> _ShardRecord:
        for record in self._records:
            if record.spec.shard_id == shard_id:
                return record
        raise ValueError(f"unknown shard {shard_id}")

    def _held(self) -> np.ndarray:
        """Provable per-shard held power: the max of the last
        acknowledged lease and any unacknowledged grant in flight."""
        return np.where(
            np.isfinite(self.envelope.dispatched_w),
            np.maximum(self.envelope.applied_w, self.envelope.dispatched_w),
            self.envelope.applied_w,
        )

    def _rebuild_bounds(self) -> None:
        self.floor_w = np.asarray(
            [r.spec.n_units * r.spec.min_cap_w for r in self._records],
            dtype=np.float64,
        )
        self.ceiling_w = np.asarray(
            [r.spec.n_units * r.spec.max_cap_w for r in self._records],
            dtype=np.float64,
        )

    def _reap_drained(self) -> None:
        """Remove draining members whose final frozen summary arrived."""
        for i in reversed(range(len(self._records))):
            record = self._records[i]
            if not record.draining:
                continue
            summary = record.last_summary
            if summary is None or not (summary.final and summary.frozen):
                continue
            if len(self._records) <= 1:
                continue  # Never reap the last member.
            reclaimed = float(self._held()[i])
            self._records.pop(i)
            self.envelope.remove_unit(i)
            self._rebuild_bounds()
            self.events.emit(
                "shard_drained",
                node_id=record.spec.shard_id,
                detail=(
                    f"reclaimed={reclaimed:.1f}W after final frozen "
                    f"summary at shard cycle {summary.cycle}"
                ),
            )

    def _admit_pending(self) -> None:
        """Poll pending shards for HELLOs; finalize those that fit."""
        for pending in self._pending:
            for doc in pending.spec.link.take_summaries():
                kind = doc.get("type")
                if kind == "hello":
                    pending.hello_seen = True
                elif kind == "summary":
                    summary = ShardSummary.from_doc(doc)
                    newest = pending.newest_summary
                    if newest is None or summary.cycle >= newest.cycle:
                        pending.newest_summary = summary
        held_total = float(self._held().sum())
        for pending in list(self._pending):
            if not pending.hello_seen:
                continue
            fits = (
                held_total + pending.floor_w
                <= self.budget_w + self.config.budget_epsilon
            )
            if not fits:
                continue
            record = _ShardRecord(
                pending.spec, pending.floor_w, self._resilience
            )
            record.last_summary = pending.newest_summary
            self._records.append(record)
            # The admission contract pins the joining shard at its floor
            # before the HELLO, so the envelope books it there — not at
            # the uncapped-hardware TDP prior.
            self.envelope.append_unit(
                applied_w=pending.floor_w, dispatched_w=pending.floor_w
            )
            self._rebuild_bounds()
            self._pending.remove(pending)
            held_total += pending.floor_w
            self.events.emit(
                "shard_admitted",
                node_id=pending.spec.shard_id,
                detail=(
                    f"units={pending.spec.n_units} "
                    f"floor={pending.floor_w:.1f}W"
                ),
            )

    # ------------------------------------------------------------------
    # The arbiter cycle.
    # ------------------------------------------------------------------

    def cycle_once(self) -> ArbiterCycleStats:
        """Collect summaries, reshape membership, redistribute, grant,
        checkpoint, verify."""
        self.cycle += 1
        summaries = self._collect()
        # Membership changes happen between collection and policy: a
        # drained shard's final summary (just collected) releases its
        # budget for this very cycle, and an admitted shard joins the
        # redistribution that carves its first lease.
        self._reap_drained()
        self._admit_pending()
        dark = np.asarray(
            [r.health.quarantined for r in self._records], dtype=bool
        )

        # Held power per shard: what the envelope can prove about each
        # shard's budget — the max of the last acknowledged lease and any
        # unacknowledged grant still in flight.  Dark shards enter the
        # policy frozen at this value: the arbiter reclaims nothing it
        # cannot prove unused.  Draining shards and members that have
        # never reported are frozen the same way.
        held = self._held()
        frozen = dark | np.asarray(
            [r.draining or r.last_summary is None for r in self._records],
            dtype=bool,
        )
        lease_in = np.where(frozen, held, self.leases_w)
        committed = np.asarray(
            [
                r.last_summary.committed_w
                if r.last_summary is not None
                else np.nan
                for r in self._records
            ]
        )
        priority = np.asarray(
            [
                bool(r.last_summary.high_priority)
                if r.last_summary is not None
                else False
                for r in self._records
            ],
            dtype=bool,
        )
        units = np.asarray(
            [r.spec.n_units for r in self._records], dtype=np.float64
        )

        # Floors of helloed-but-unadmitted shards are reserved from the
        # policy budget, so live leases shrink toward making room; the
        # guard still enforces the *full* budget — reservation shapes
        # policy, never safety.  When the reservation is infeasible this
        # cycle (every live lease already protected), fall back to the
        # full budget and try again next cycle.
        reserved_w = sum(
            p.floor_w for p in self._pending if p.hello_seen
        )
        result = None
        if reserved_w > 0.0:
            try:
                result = redistribute(
                    lease_w=lease_in,
                    committed_w=committed,
                    floor_w=self.floor_w,
                    ceiling_w=self.ceiling_w,
                    n_units=units,
                    priority=priority,
                    frozen=frozen,
                    budget_w=self.budget_w - reserved_w,
                    config=self.config,
                )
            except ValueError:
                result = None
        if result is None:
            result = redistribute(
                lease_w=lease_in,
                committed_w=committed,
                floor_w=self.floor_w,
                ceiling_w=self.ceiling_w,
                n_units=units,
                priority=priority,
                frozen=frozen,
                budget_w=self.budget_w,
                config=self.config,
            )
        if result.reclaimed_w > self.config.budget_epsilon:
            self.events.emit(
                "shard_headroom_reclaimed",
                detail=f"{result.reclaimed_w:.1f}W from live shards",
            )

        # The guard paces lease raises against worst-case committed
        # power: a raise funded by a reclaim is deferred until the
        # lowered lease has been acknowledged, so the union of old and
        # new leases never exceeds the budget — the partition-safety
        # core.
        self.envelope.record_commanded(result.leases_w)
        decision = self.guard.enforce(
            result.leases_w,
            unreachable=dark,
            assume_tdp=False,
            grants_w=result.granted_w,
        )
        leases = decision.caps_w

        self._grant(leases, dark, summaries)
        self._sample(dark, frozen, committed)
        if self.store is not None:
            self.store.save(self.cycle, self.snapshot())

        stats = ArbiterCycleStats(
            leases_w=leases,
            dark=dark,
            reclaimed_w=result.reclaimed_w,
            restored=result.restored,
            guard_rung=decision.rung,
            worst_case_w=decision.committed.worst_case_total_w,
            steady_w=decision.committed.steady_total_w,
        )
        self._last_stats = stats
        self.monitor.run(
            InvariantContext(
                budget_w=self.budget_w,
                min_cap_w=float(self.floor_w.min()),
                max_cap_w=float(self.ceiling_w.max()),
                caps_w=decision.committed.steady_w,
                manager=self,
            ),
        )
        return stats

    def _collect(self) -> dict[int, ShardSummary]:
        """Drain every link; advance health from who reported."""
        summaries: dict[int, ShardSummary] = {}
        for i, record in enumerate(self._records):
            newest: ShardSummary | None = None
            for doc in record.spec.link.take_summaries():
                if doc.get("type") != "summary":
                    # E.g. the shard HELLO answering a TCP (re)connect.
                    continue
                summary = ShardSummary.from_doc(doc)
                if newest is None or summary.cycle >= newest.cycle:
                    newest = summary
            if newest is not None:
                if record.health.quarantined:
                    record.health.rejoin()
                    self.events.emit(
                        "shard_rejoined",
                        node_id=record.spec.shard_id,
                        detail=f"summary at shard cycle {newest.cycle}",
                    )
                record.health.record_success()
                record.last_summary = newest
                summaries[record.spec.shard_id] = newest
                # The echoed seq acknowledges a grant: promote it to the
                # applied view and drop the in-flight entries it covers.
                if newest.seq in record.sent:
                    self.envelope.record_applied(
                        np.asarray([i]), record.sent[newest.seq]
                    )
                record.sent = {
                    s: v for s, v in record.sent.items() if s > newest.seq
                }
            else:
                if not record.health.quarantined:
                    state = record.health.record_failure()
                    self.events.emit(
                        "shard_quarantined",
                        node_id=record.spec.shard_id,
                        detail="no summary at collection",
                    )
                    if state is HealthState.DEAD:
                        self.events.emit(
                            "shard_dead",
                            node_id=record.spec.shard_id,
                            detail=(
                                "after "
                                f"{record.health.consecutive_failures} misses"
                            ),
                        )
                else:
                    before = record.health.state
                    after = record.health.tick()
                    if (
                        after is HealthState.DEAD
                        and before is not HealthState.DEAD
                    ):
                        self.events.emit(
                            "shard_dead",
                            node_id=record.spec.shard_id,
                            detail="rejoin window expired",
                        )
        return summaries

    def _grant(
        self,
        leases: np.ndarray,
        dark: np.ndarray,
        summaries: dict[int, ShardSummary],
    ) -> None:
        """Send renewals/new grants to every live shard.

        Dark shards get nothing: a grant to a shard that cannot
        acknowledge it would only widen the in-flight window.  Draining
        shards get nothing either — their budget is on its way out, not
        up for renewal.  Every *accepted* send is recorded in the
        dispatched view; a drop at a just-partitioned link is not (it
        never reached the wire).
        """
        for i, record in enumerate(self._records):
            if dark[i] or record.draining:
                continue
            value = float(leases[i])
            changed = abs(value - record.lease_w) > 1e-9
            rejoining = record.spec.shard_id in summaries and summaries[
                record.spec.shard_id
            ].frozen
            record.seq += 1
            grant = BudgetLease(
                shard_id=record.spec.shard_id,
                seq=record.seq,
                budget_w=value,
                term_cycles=self.config.lease_term_cycles,
            )
            if not record.spec.link.send_grant(grant.to_doc()):
                record.seq -= 1  # Never hit the wire; reuse the number.
                continue
            record.sent[record.seq] = value
            record.lease_w = value
            self.envelope.record_dispatched(np.asarray([i]), value)
            if changed or rejoining:
                self.events.emit(
                    "shard_lease_granted",
                    node_id=record.spec.shard_id,
                    detail=f"seq={record.seq} lease={value:.1f}W",
                )

    def _sample(
        self, dark: np.ndarray, frozen: np.ndarray, committed: np.ndarray
    ) -> None:
        for i, record in enumerate(self._records):
            c = float(committed[i])
            self.timeline.record(
                ShardLeaseSample(
                    cycle=self.cycle,
                    shard_id=record.spec.shard_id,
                    lease_w=record.lease_w,
                    committed_w=c,
                    headroom_w=record.lease_w - c,
                    seq=record.seq,
                    dark=bool(dark[i]),
                    frozen=bool(frozen[i]),
                )
            )

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able document of the arbiter's durable state.

        Version 2: shard state — including each shard's slice of the
        envelope's three views — is keyed by ``shard_id``, so a restore
        after membership changed (a shard admitted or drained between
        the checkpoint and the crash) still lands every surviving
        shard's state where it belongs.
        """
        env = self.envelope
        return {
            "version": ARBITER_SNAPSHOT_VERSION,
            "cycle": self.cycle,
            "budget_w": self.budget_w,
            "shards": [
                {
                    "shard_id": r.spec.shard_id,
                    "lease_w": r.lease_w,
                    "seq": r.seq,
                    "sent": {str(s): v for s, v in r.sent.items()},
                    "draining": r.draining,
                    "commanded": _num(env.commanded_w[i]),
                    "dispatched": _num(env.dispatched_w[i]),
                    "applied": _num(env.applied_w[i]),
                }
                for i, r in enumerate(self._records)
            ],
        }

    def restore(self, state: dict) -> None:
        """Overwrite the durable state with a snapshot's content.

        Shard health deliberately restarts HEALTHY: the first
        post-restore collection re-learns liveness from who reports,
        while the restored envelope keeps the conservative held view —
        a shard that froze during the outage holds *less* than the
        checkpointed lease, never more.

        Version 2 payloads are matched by ``shard_id`` and tolerate
        membership drift: a member with no snapshot entry (admitted
        after the checkpoint) keeps its constructed state, and snapshot
        entries with no matching member (drained before the crash) are
        dropped.  Version 1 payloads (positional) are still accepted and
        require identical membership.
        """
        version = state.get("version")
        if version not in (1, ARBITER_SNAPSHOT_VERSION):
            raise ValueError(
                f"arbiter snapshot version {version!r} not in "
                f"(1, {ARBITER_SNAPSHOT_VERSION})"
            )
        docs = state["shards"]
        if version == 1:
            if len(docs) != len(self._records):
                raise ValueError(
                    f"snapshot holds {len(docs)} shards, arbiter has "
                    f"{len(self._records)}"
                )
            self.cycle = int(state["cycle"])
            for record, doc in zip(self._records, docs):
                if int(doc["shard_id"]) != record.spec.shard_id:
                    raise ValueError(
                        f"snapshot shard {doc['shard_id']} != "
                        f"{record.spec.shard_id}"
                    )
                self._restore_record(record, doc)
            self.envelope.restore(state["envelope"])
            return
        self.cycle = int(state["cycle"])
        by_id = {int(doc["shard_id"]): doc for doc in docs}
        for i, record in enumerate(self._records):
            doc = by_id.get(record.spec.shard_id)
            if doc is None:
                continue  # Admitted after the checkpoint.
            self._restore_record(record, doc)
            self.envelope.commanded_w[i] = _denum(doc["commanded"])
            self.envelope.dispatched_w[i] = _denum(doc["dispatched"])
            self.envelope.applied_w[i] = _denum(doc["applied"])

    @staticmethod
    def _restore_record(record: _ShardRecord, doc: dict) -> None:
        record.lease_w = float(doc["lease_w"])
        record.seq = int(doc["seq"])
        record.sent = {int(s): float(v) for s, v in doc["sent"].items()}
        record.draining = bool(doc.get("draining", False))
        record.last_summary = None

    def resume(self) -> bool:
        """Restore from the newest valid checkpoint, if any.

        Returns:
            True when a checkpoint was restored.
        """
        if self.store is None:
            return False
        ckpt = self.store.load_latest()
        if ckpt is None:
            return False
        self.restore(ckpt.payload)
        return True
