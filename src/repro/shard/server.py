"""One shard of the sharded control plane.

A :class:`ShardServer` owns a contiguous slice of the cluster's clients
and runs them under a full crash-recoverable stack: a
:class:`~repro.recovery.controller.RecoverableController` (journal +
checkpoints) driving a :class:`~repro.deploy.server.DeployServer` with
the budget-safety envelope enabled.  Its budget is a **lease** from the
:class:`~repro.shard.arbiter.BudgetArbiter`: renewals arrive over the
shard's :class:`~repro.shard.lease.ShardLink` ahead of every control
cycle, and a lease that outlives its term without renewal makes the
shard *freeze itself* — it drops its own budget to its last confirmed
committed power (never below its floor) and holds there until grants
flow again.  Freezing is the shard-local half of partition safety: even
with the arbiter dark forever, a frozen shard cannot grow into budget
another shard may have been handed.

The durable parts (controller, lease state, link) live on this object
across crashes; the :class:`~repro.deploy.server.DeployServer` and its
sockets are per-attempt and rebuilt by :meth:`start` after every
supervised restart.

:class:`HostedShard` is a shard server together with the hardware slice
it controls and the node daemons in between — the unit a transport
hosts.  Its :meth:`~HostedShard.run_cycle` is the one shard cycle body:
the ``shard-server`` process (:mod:`repro.shard.process`) and the
in-process handle (:class:`~repro.shard.supervisor.InlineShard`, on the
fleet's thread) both call it and differ only in how the demand slice
arrives and the acknowledgement leaves.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from repro.cluster.node import Node
from repro.core.managers import manager_stack
from repro.deploy.health import ResilienceConfig
from repro.deploy.plane import ClientPlane
from repro.deploy.server import DeployCycleStats, DeployServer
from repro.powercap.rapl import bank_span
from repro.recovery.controller import RecoverableController
from repro.safety import SafetyConfig
from repro.shard.lease import ArbiterConfig, BudgetLease, ShardLink, ShardSummary
from repro.telemetry.log import ResilienceEvent, ResilienceEventLog

__all__ = ["HostedShard", "ShardServer", "event_from_doc", "event_to_doc"]


def event_to_doc(event: ResilienceEvent) -> dict:
    """Serialize one structured event for a cycle acknowledgement."""
    return {
        "time_s": event.time_s,
        "kind": event.kind,
        "unit": event.unit,
        "node_id": event.node_id,
        "detail": event.detail,
    }


def event_from_doc(doc: dict) -> ResilienceEvent:
    """Rebuild a shard-local event shipped through a cycle ack."""
    return ResilienceEvent(
        time_s=float(doc["time_s"]),
        kind=str(doc["kind"]),
        unit=doc.get("unit"),
        node_id=doc.get("node_id"),
        detail=str(doc.get("detail", "")),
    )


class ShardServer:
    """A leased, crash-recoverable slice of the control plane.

    Args:
        shard_id: this shard's index (rides shard events as ``node_id``).
        controller: the shard's recoverable controller, already bound to
            the shard's slice topology with the initial lease as budget.
        link: the channel to the arbiter.
        config: the lease protocol's shared knobs.
        events: structured event sink shared with the arbiter/fleet.
        resilience: client quarantine configuration for the deploy
            server (defaults applied when omitted).
        safety: deploy-server safety envelope configuration; the
            envelope must be enabled (it is both the source of the
            shard's committed-power summaries and the budget enforcement
            at the shard's actuation boundary), so a config with
            ``guard=True`` is substituted when omitted.
    """

    def __init__(
        self,
        shard_id: int,
        controller: RecoverableController,
        link: ShardLink,
        config: ArbiterConfig | None = None,
        events: ResilienceEventLog | None = None,
        resilience: ResilienceConfig | None = None,
        safety: SafetyConfig | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.controller = controller
        self.link = link
        self.config = config or ArbiterConfig()
        self.events = events if events is not None else ResilienceEventLog()
        self.resilience = resilience or ResilienceConfig()
        self.safety = safety or SafetyConfig(guard=True)
        #: The budget currently leased to this shard (W).
        self.lease_w = float(controller.budget_w)
        #: Sequence number of the last applied grant (0 = the initial
        #: lease the shard was constructed with).
        self.lease_seq = 0
        #: Control cycles since the last applied grant.
        self.lease_age = 0
        #: True while the shard has frozen itself on an expired lease.
        self.frozen = False
        self.server: DeployServer | None = None
        self._last_stats: DeployCycleStats | None = None

    @property
    def n_units(self) -> int:
        return self.controller.n_units

    @property
    def floor_w(self) -> float:
        """The lowest budget this shard can operate under."""
        return self.controller.n_units * self.controller.min_cap_w

    # ------------------------------------------------------------------
    # Per-attempt lifecycle.
    # ------------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", timeout_s: float = 5.0) -> DeployServer:
        """Build this attempt's deploy server (always on an ephemeral port).

        The previous attempt's server, if any, is shut down first — its
        sockets are dead after a crash either way.
        """
        if self.server is not None:
            self.server.shutdown()
        self.server = DeployServer(
            self.controller,
            host=host,
            port=0,
            timeout_s=timeout_s,
            resilience=self.resilience,
            events=self.events,
            safety=self.safety,
        )
        return self.server

    def stop(self) -> None:
        """Shut down the current attempt's server (idempotent)."""
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    # ------------------------------------------------------------------
    # The lease state machine.
    # ------------------------------------------------------------------

    def poll_grants(self, now: float) -> bool:
        """Apply the newest pending grant, if any.

        Grants are idempotent renewals: any grant with a sequence number
        at or below the last applied one only resets the lease age (the
        arbiter re-sends the current value as the renewal); a newer one
        also re-leases the budget through the whole stack — controller,
        manager, and the deploy server's control stack.

        Returns:
            True when any grant (renewal or new) was consumed.
        """
        newest: BudgetLease | None = None
        for doc in self.link.take_grants():
            grant = BudgetLease.from_doc(doc)
            if newest is None or grant.seq > newest.seq:
                newest = grant
        if newest is None:
            return False
        self.lease_age = 0
        if newest.seq > self.lease_seq:
            self.lease_seq = newest.seq
            self._apply_budget(newest.budget_w)
            self.lease_w = newest.budget_w
            self.events.emit(
                now,
                "shard_lease_applied",
                node_id=self.shard_id,
                detail=f"seq={newest.seq} lease={newest.budget_w:.1f}W",
            )
        elif self.frozen or self.controller.budget_w != self.lease_w:
            # A renewal after a freeze restores the full lease.
            self._apply_budget(self.lease_w)
        if self.frozen:
            self.frozen = False
            self.events.emit(
                now,
                "shard_unfrozen",
                node_id=self.shard_id,
                detail=f"lease renewed at seq={self.lease_seq}",
            )
        return True

    def resume_lease_state(self) -> None:
        """Rebuild the lease state machine after a crash-restore.

        In-memory lease state dies with the process; what survives is
        the checkpointed manager budget (re-converged through the
        journal's per-step budget records by
        :meth:`~repro.recovery.controller.RecoverableController.resume`).
        That budget *is* the recovered lease.  The sequence number
        restarts at 0 — any grant the arbiter sends is newer by
        definition, and the arbiter's applied view stays at its own
        conservative value until the shard echoes a fresh sequence.
        """
        self.lease_w = float(self.controller.budget_w)
        self.lease_seq = 0
        self.lease_age = 0
        self.frozen = False

    def _apply_budget(self, budget_w: float) -> None:
        """Push a budget through controller, manager, and safety stack."""
        if self.server is not None:
            self.server.stack.set_budget_w(budget_w)
        else:
            self.controller.set_budget_w(budget_w)

    def _expire_lease(self, now: float) -> None:
        """Freeze at the last confirmed committed power (floor-clipped)."""
        self.events.emit(
            now,
            "shard_lease_expired",
            node_id=self.shard_id,
            detail=(
                f"seq={self.lease_seq} age={self.lease_age} "
                f"term={self.config.lease_term_cycles}"
            ),
        )
        self._freeze(now)

    def _freeze(self, now: float) -> None:
        committed = self._steady_committed_w()
        frozen_w = float(
            np.clip(
                committed if np.isfinite(committed) else self.lease_w,
                self.floor_w,
                self.lease_w,
            )
        )
        self.frozen = True
        self._apply_budget(frozen_w)
        self.events.emit(
            now,
            "shard_frozen",
            node_id=self.shard_id,
            detail=f"held at {frozen_w:.1f}W of {self.lease_w:.1f}W lease",
        )

    def drain(self, now: float) -> bool:
        """Graceful shutdown: checkpoint, freeze, send the final summary.

        The SIGTERM half of the drain protocol: the shard checkpoints
        its controller, pins its budget at the last confirmed committed
        power (so its hardware can never rise again), and reports one
        last summary with ``final=True`` — the acknowledgement the
        arbiter's :meth:`~repro.shard.arbiter.BudgetArbiter.drain` waits
        for before reclaiming the lease.

        Returns:
            True when the final summary was accepted by the link.
        """
        self.events.emit(
            now,
            "shard_draining",
            node_id=self.shard_id,
            detail="graceful drain requested",
        )
        self.controller.checkpoint()
        if not self.frozen:
            self._freeze(now)
        return self.summarize(cycle=int(now), final=True)

    # ------------------------------------------------------------------
    # The control cycle and the summary.
    # ------------------------------------------------------------------

    def run_cycle(self, now: float) -> DeployCycleStats:
        """One shard control cycle: grants → deploy cycle → lease aging."""
        if self.server is None:
            raise RuntimeError("shard server not started")
        self.poll_grants(now)
        stats = self.server.control_cycle()
        self._last_stats = stats
        self.lease_age += 1
        if not self.frozen and self.lease_age > self.config.lease_term_cycles:
            self._expire_lease(now)
        return stats

    def _committed(self) -> tuple[float, float]:
        """(steady, worst-case) committed power of the shard (W)."""
        assert self.server is not None
        env = self.server.stack.envelope
        assert env is not None
        candidate = np.where(
            np.isfinite(env.dispatched_w), env.dispatched_w, env.applied_w
        )
        cp = env.assess(
            candidate_w=candidate,
            unreachable=self.server.unreachable(),
            assume_tdp=self.resilience.fallback == "assume-tdp",
        )
        return cp.steady_total_w, cp.worst_case_total_w

    def _steady_committed_w(self) -> float:
        if self.server is None or self.server.stack.envelope is None:
            return float("nan")
        return self._committed()[0]

    def _high_priority(self) -> bool:
        """Whether this shard carries high-priority demand.

        Prefers the manager stack's own priority introspection (the DPS
        step info); falls back to a utilization heuristic — committed
        power near the lease means the shard would use more.
        """
        for node in manager_stack(self.controller.manager):
            info = getattr(node, "last_info", None)
            if info is not None and hasattr(info, "priority"):
                return bool(np.any(np.asarray(info.priority, dtype=bool)))
        steady = self._steady_committed_w()
        budget = float(self.controller.budget_w)
        return bool(np.isfinite(steady) and steady >= 0.85 * budget)

    def summarize(self, cycle: int, final: bool = False) -> bool:
        """Build and send this cycle's summary to the arbiter.

        Args:
            cycle: the shard control cycle the summary describes.
            final: True on a drain's last summary (the shard's frozen
                state will never change again).

        Returns:
            True when the summary was accepted by the link (False under
            a partition — the shard cannot tell a dropped frame from a
            dead arbiter; the lease term handles both identically).
        """
        steady, worst = self._committed()
        summary = ShardSummary(
            shard_id=self.shard_id,
            cycle=cycle,
            seq=self.lease_seq,
            lease_w=self.lease_w,
            committed_w=steady,
            worst_w=worst,
            headroom_w=self.lease_w - steady,
            high_priority=self._high_priority(),
            n_units=self.n_units,
            frozen=self.frozen,
            final=final,
        )
        return self.link.send_summary(summary.to_doc())


class HostedShard:
    """A shard server, its hardware slice, and the daemons between them.

    Args:
        shard: the leased control stack (durable across restarts).
        nodes: the shard's slice of the hardware; physics are stepped
            here, one demand slice per cycle, and one
            :class:`~repro.deploy.client.DeployClient` per node is pumped
            by the shard's deploy server on the shard's own thread.
        dt_s: control period.
        timeout_s: deploy-server socket deadline.
        max_ack_events: per-ack structured-event cap (overflow collapses
            into one ``events_truncated`` event).
    """

    def __init__(
        self,
        shard: ShardServer,
        nodes: Sequence[Node],
        dt_s: float,
        timeout_s: float = 5.0,
        max_ack_events: int = 256,
    ) -> None:
        self.shard = shard
        self.nodes = list(nodes)
        self.dt_s = dt_s
        self.timeout_s = timeout_s
        self.max_ack_events = max_ack_events
        span = bank_span(
            [s.domain for node in self.nodes for s in node.sockets]
        )
        if span is None:
            raise ValueError(
                "a hosted shard's nodes must be consecutive nodes of one "
                "cluster"
            )
        #: The hardware slice as a range of the cluster's bank.  Every
        #: call on it writes that range in place: thread-mode shards
        #: step disjoint ranges of one shared bank in turn.
        self._bank, self._span = span
        self._plane: ClientPlane | None = None
        self._events_sent = 0

    def start(self) -> None:
        """Bring up this attempt's deploy server and register every daemon."""
        server = self.shard.start(timeout_s=self.timeout_s)
        self._plane = ClientPlane(server, self.nodes, self.dt_s)

    def stop(self) -> None:
        """Tear the attempt down (idempotent; safe after a crash)."""
        if self._plane is not None:
            self._plane.close(quiet=True)
            self._plane = None
        self.shard.stop()
        self.shard.controller.close()

    def resume(self) -> None:
        """Warm restart: checkpointed controller, re-anchored meters."""
        if self.shard.controller.resume():
            self.shard.resume_lease_state()
        # Only this shard's meters re-anchor; without it the outage's
        # accumulated energy lands on the first post-restart reading.
        self._bank.rebaseline(self._span)

    def run_cycle(
        self,
        step: int,
        demand: np.ndarray,
        kill: Sequence[int] = (),
        reconnect: Sequence[int] = (),
    ) -> dict:
        """One lock-step shard cycle; returns its ``cycle_ack`` document.

        Node chaos first — the daemons of ``kill`` (indices into
        :attr:`nodes`) crash, fresh ones for ``reconnect`` start and
        HELLO-rejoin — then physics under the caps in effect, the leased
        control cycle (its caps are on the domains when it returns: the
        daemons run on this thread), the summary on the arbiter period,
        and the acknowledgement: true powers and
        hardware caps as arrays (the transport picks their encoding),
        the cycle's structured events, and the lease the shard now holds.
        """
        if self._plane is None:
            raise RuntimeError("hosted shard not started")
        for index in kill:
            self._plane.kill(self.nodes[index].node_id)
        for index in reconnect:
            self._plane.reconnect(self.nodes[index].node_id)
        self._bank.step(demand, self.dt_s, self._span)
        self.shard.run_cycle(now=float(step))
        if (step + 1) % self.shard.config.period_cycles == 0:
            self.shard.summarize(cycle=step)
        return {
            "type": "cycle_ack",
            "step": step,
            "status": "ok",
            "events": self.drain_events(),
            "lease_w": self.shard.lease_w,
            "power": self._bank.power_w[self._span].copy(),
            "caps": self._bank.cap_w[self._span].copy(),
        }

    def drain_events(self) -> list[dict]:
        """Fresh events for the next ack, bounded by ``max_ack_events``.

        A chaos storm (mass quarantine, flapping clients) can emit far
        more structured events in one cycle than a frame should carry;
        past the cap the overflow collapses into one ``events_truncated``
        summary so the ack can never bloat past ``MAX_FRAME_BYTES`` and
        kill the clock link.
        """
        fresh = list(islice(self.shard.events, self._events_sent, None))
        self._events_sent += len(fresh)
        docs = [event_to_doc(e) for e in fresh[: self.max_ack_events]]
        if len(fresh) > self.max_ack_events:
            dropped = len(fresh) - self.max_ack_events
            docs.append(
                {
                    "time_s": fresh[-1].time_s,
                    "kind": "events_truncated",
                    "unit": None,
                    "node_id": self.shard.shard_id,
                    "detail": (
                        f"{dropped} events over the per-ack cap of "
                        f"{self.max_ack_events} dropped"
                    ),
                }
            )
        return docs
