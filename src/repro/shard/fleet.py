"""One fleet of shards under one budget arbiter, stepped by its caller.

:class:`Fleet` is the repo's one deployment loop: N real
:class:`~repro.deploy.server.DeployServer` shards, each with its own
:class:`~repro.deploy.client.DeployClient` daemons over localhost TCP,
under one :class:`~repro.shard.arbiter.BudgetArbiter`.  The fleet is the
cluster-level coordinator only; each shard manages its own nodes.  One
shard is the paper's single-server deployment, leasing the whole budget.

There is **one loop and two transports**: the calling thread hosts the
arbiter, the lock-step clock and the only restart bookkeeping, and every
shard is the :class:`~repro.shard.server.HostedShard` that
:func:`~repro.shard.supervisor.host_shard` builds from a
:class:`~repro.shard.supervisor.ShardSpec`.  ``mode`` picks only the
handle and the arbiter's link: ``"thread"`` runs the shard on the calling
thread (:class:`~repro.shard.supervisor.InlineShard`, in-memory
:class:`~repro.shard.lease.ShardLink`), ``"process"`` as a ``dps-repro
shard-server`` subprocess (:class:`~repro.shard.supervisor.ShardProcess`,
:class:`~repro.comm.shardlink.TcpShardLink`), the only transport that
admits and drains members live and has a clock codec.

A caller drives the fleet with :meth:`Fleet.step`, one cycle per call,
**pipelined one deep**: a step *dispatches* its cycle (demand slices out,
plus the clock-side strikes — kill, hang, admit, drain, node chaos), then
*finalizes* the one before it (acks in, histories scattered, link and
arbiter strikes fired, the arbiter cycle run), so process shards compute
while the calling thread finalizes.  Acks are applied strictly in cycle
order and a victim's outstanding ack is settled before it is struck, so
the schedule stays deterministic.  The pipeline breaks at arbiter period
boundaries — the re-cut leases must reach every shard before the next
demand slice does — and after a cycle with a partition or heal, so link
chaos for cycle N fires after every shard finished N (summary included)
and before any shard starts N+1.  A shard that is down reports nothing
(NaN rows), and every transition is a structured event: there is no
silent failover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.cluster.cluster import Cluster
from repro.comm.shardlink import TcpShardLink
from repro.core.managers import PowerManager, create_manager
from repro.deploy.health import ResilienceConfig
from repro.recovery.checkpoint import CheckpointStore
from repro.safety import SafetyConfig
from repro.shard.arbiter import ArbiterShard, BudgetArbiter
from repro.shard.lease import ArbiterConfig, ShardLink
from repro.shard.server import event_from_doc
from repro.shard.supervisor import (
    InlineShard,
    RecoveryOptions,
    ShardProcess,
    ShardSpec,
    host_shard,
)
from repro.telemetry.log import (
    LeaseTimeline,
    ResilienceEvent,
    ResilienceEventLog,
    ShardLeaseSample,
)

__all__ = [
    "Fleet",
    "FleetCycle",
    "ShardChaosSchedule",
    "ShardedResult",
    "run_sharded",
]


@dataclass(frozen=True)
class ShardChaosSchedule:
    """Failure plan of a sharded session (cycle indices, each fires once).

    :meth:`strike` calls a :class:`Fleet`'s strike methods for one cycle;
    :meth:`check` rejects a plan the fleet cannot carry out.

    Attributes:
        shard_kill_at: shard id → cycle at which that shard's controller
            crashes (supervised warm restart from its checkpoint).
        shard_hang_at: shard id → cycle at which that shard's controller
            stops making progress until its watchdog aborts it.
        partition_at: shard id → cycle at which the shard↔arbiter link
            is severed (both directions).
        heal_at: shard id → cycle at which the link is restored.
        arbiter_kill_at: cycle at which the arbiter crashes (None = never).
        arbiter_restart_at: cycle at which a fresh arbiter resumes from
            the checkpoint store (required when ``arbiter_kill_at`` is
            set and the session continues past it).
        admit_at: cycle at which one extra shard joins the fleet live
            (process mode only — a new shard-server is spawned and
            admitted through the HELLO/ADMIT handshake).
        drain_at: shard id → cycle at which that shard is drained
            gracefully (process mode only — SIGTERM; the arbiter
            reclaims the lease only after the final frozen summary).
        node_kill_at: node id → cycle at which that node's daemon is
            killed (socket severed without QUIT; the node's hardware
            keeps running under its last caps).
        node_reconnect_at: node id → cycle at which a fresh daemon for
            that node connects and HELLO-rejoins.  Node chaos rides the
            shard's cycle command, so a strike on a cycle its shard is
            down for is not delivered (a restarted shard starts every
            daemon afresh).
    """

    shard_kill_at: Mapping[int, int] = field(default_factory=dict)
    shard_hang_at: Mapping[int, int] = field(default_factory=dict)
    partition_at: Mapping[int, int] = field(default_factory=dict)
    heal_at: Mapping[int, int] = field(default_factory=dict)
    arbiter_kill_at: int | None = None
    arbiter_restart_at: int | None = None
    admit_at: int | None = None
    drain_at: Mapping[int, int] = field(default_factory=dict)
    node_kill_at: Mapping[int, int] = field(default_factory=dict)
    node_reconnect_at: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label in (*_TARGET_STRIKES, *_FLEET_STRIKES):
            value = getattr(self, label)
            for cycle in value.values() if label in _TARGET_STRIKES else (value,):
                if cycle is not None and cycle < 0:
                    raise ValueError(f"{label} holds negative cycle {cycle}")
        if self.arbiter_restart_at is not None and self.arbiter_kill_at is None:
            raise ValueError("arbiter_restart_at needs an arbiter_kill_at")
        for node_id, cycle in self.node_reconnect_at.items():
            if cycle <= self.node_kill_at.get(node_id, -1):
                raise ValueError(
                    f"node {node_id} reconnects at cycle {cycle}, before "
                    f"its kill at cycle {self.node_kill_at[node_id]}"
                )
        for shard_id in self.drain_at:
            if shard_id in self.shard_kill_at or shard_id in self.shard_hang_at:
                raise ValueError(
                    f"shard {shard_id} is both drained and killed/hung in "
                    "one session"
                )
        if self.arbiter_kill_at is not None:
            lo = self.arbiter_kill_at
            hi = self.arbiter_restart_at
            hi = math.inf if hi is None else hi
            if self.admit_at is not None and lo <= self.admit_at < hi:
                raise ValueError(
                    f"admit at cycle {self.admit_at} falls inside the "
                    "arbiter outage"
                )
            for shard_id, cycle in self.drain_at.items():
                if lo <= cycle < hi:
                    raise ValueError(
                        f"shard {shard_id} drains at cycle {cycle}, inside "
                        "the arbiter outage"
                    )
        for shard_id, cycle in self.heal_at.items():
            if cycle <= self.partition_at.get(shard_id, -1):
                raise ValueError(
                    f"shard {shard_id} heals at cycle {cycle}, before its "
                    f"partition at cycle {self.partition_at[shard_id]}"
                )
        for shard_id, cycle in self.shard_kill_at.items():
            if self.shard_hang_at.get(shard_id) == cycle:
                raise ValueError(
                    f"shard {shard_id} is killed and hung at the same cycle"
                )
        if (
            self.arbiter_restart_at is not None
            and self.arbiter_kill_at is not None
            and self.arbiter_restart_at <= self.arbiter_kill_at
        ):
            raise ValueError(
                f"arbiter restarts at cycle {self.arbiter_restart_at}, "
                f"before its kill at cycle {self.arbiter_kill_at}"
            )

    def check(self, fleet: Fleet) -> None:
        """Reject a plan naming shards or nodes ``fleet`` lacks, or membership
        chaos it cannot carry out; call it before :meth:`Fleet.start`."""
        for label in _TARGET_STRIKES:
            kind = "node" if label.startswith("node") else "shard"
            count = fleet.n_nodes if kind == "node" else fleet.n_shards
            for key in getattr(self, label):
                if not 0 <= key < count:
                    raise ValueError(f"chaos {label} names unknown {kind} {key}")
        if self.admit_at is not None or self.drain_at:
            fleet._require_membership()

    def strike(self, fleet: Fleet, step: int) -> None:
        """Call ``fleet``'s strikes scheduled for cycle ``step``; call it
        right before the fleet's :meth:`~Fleet.step` for that cycle."""
        for label, method in _TARGET_STRIKES.items():
            for target, at in getattr(self, label).items():
                if at == step:
                    getattr(fleet, method)(target)
        for label, method in _FLEET_STRIKES.items():
            if getattr(self, label) == step:
                getattr(fleet, method)()


#: A :class:`ShardChaosSchedule` field → the :class:`Fleet` strike it
#: calls, per target (a shard id or a global node id) ...
_TARGET_STRIKES = {
    "shard_kill_at": "kill",
    "shard_hang_at": "hang",
    "partition_at": "partition",
    "heal_at": "heal",
    "drain_at": "drain",
    "node_kill_at": "kill_node",
    "node_reconnect_at": "reconnect_node",
}
#: ... and for the whole fleet.
_FLEET_STRIKES = {
    "arbiter_kill_at": "kill_arbiter",
    "arbiter_restart_at": "restart_arbiter",
    "admit_at": "admit",
}


@dataclass
class ShardedResult:
    """Outcome of a sharded session.

    Attributes:
        cycles: control cycles executed.
        n_shards: shard servers in the session.
        budget_w: the global budget that was arbitrated.
        events: the session's one event log — fleet, arbiter, and every
            shard's deploy/recovery stack — stamped with fleet steps and
            in step order.
        timeline: per-shard lease timeline across every arbiter cycle
            (survives arbiter restarts).
        leases_w: final per-shard leases.
        power_history: true per-unit power per cycle, ``(cycles, units)``.
        caps_history: hardware-side per-unit caps per cycle.
        shard_restarts: supervised restarts per shard.
        failed_shards: shards whose restart budget was exhausted.
        arbiter_restarts: arbiter kill→restart transitions performed.
        arbiter_cycles: arbiter cycles executed (all instances).
        invariant_sweeps: arbiter invariant sweeps run (all instances).
        invariant_violations: violations found (0 for a correct run).
        worst_case_w: global worst-case committed power at the last
            arbiter cycle (None if the arbiter never ran).
        steady_w: global steady committed power at the last arbiter cycle.
        bytes_links: frame bytes over every shard link.
        checkpoint_dir: where shard and arbiter checkpoints live.
        cycle_wall_s: wall seconds of each lock-step control cycle
            (physics + every shard's cycle + any arbiter cycle).
        mode: ``"thread"`` (in-process loopback links) or ``"process"``
            (shard-server subprocesses behind real TCP links).
        admitted: shard ids admitted live during the session.
        drained: shard ids drained gracefully during the session.
        drained_rcs: drained shard id → subprocess exit code (0 on a
            clean SIGTERM drain).
        link_reconnects: TCP shard-link re-establishments (process mode).
        bytes_clock: frame bytes over every clock connection, both
            directions (process mode; 0 in thread mode, which has no
            clock wire).
        codec: clock-plane bulk encoding used (process mode).
    """

    cycles: int
    n_shards: int
    budget_w: float
    events: ResilienceEventLog
    timeline: LeaseTimeline
    leases_w: np.ndarray
    power_history: np.ndarray
    caps_history: np.ndarray
    shard_restarts: list[int]
    failed_shards: tuple[int, ...]
    arbiter_restarts: int
    arbiter_cycles: int
    invariant_sweeps: int
    invariant_violations: int
    worst_case_w: float | None
    steady_w: float | None
    bytes_links: int
    checkpoint_dir: Path
    cycle_wall_s: np.ndarray
    mode: str
    admitted: tuple[int, ...]
    drained: tuple[int, ...]
    drained_rcs: dict[int, int | None]
    link_reconnects: int
    bytes_clock: int
    codec: str


@dataclass(frozen=True)
class FleetCycle:
    """The cycle one :meth:`Fleet.step` call finalized.

    Attributes:
        step: that cycle's index (the one before the cycle dispatched).
        statuses: shard id → ``"ok"``, or ``"crashed"`` / ``"hung"`` /
            ``"outage"`` / ``"failed"`` for a shard that reported nothing.
        acks: shard id → its ``cycle_ack`` document, for the ``"ok"`` ones.
        power: true per-unit power of the cycle (NaN where a shard is down).
        caps: hardware-side per-unit caps of the cycle.
        leases: lease samples recorded since the previous FleetCycle.
        events: events logged since the previous FleetCycle (the first
            carries the start-up's), ordered by time.
    """

    step: int
    statuses: dict[int, str]
    acks: dict[int, dict]
    power: np.ndarray
    caps: np.ndarray
    leases: list[ShardLeaseSample]
    events: list[ResilienceEvent]


@dataclass
class _Cycle:
    """One cycle from the first strike on it to its finalize."""

    step: int
    kills: set[int] = field(default_factory=set)
    hangs: set[int] = field(default_factory=set)
    drains: set[int] = field(default_factory=set)
    node_kills: set[int] = field(default_factory=set)
    node_reconnects: set[int] = field(default_factory=set)
    admits: int = 0
    partitions: list[int] = field(default_factory=list)
    heals: list[int] = field(default_factory=list)
    kill_arbiter: bool = False
    restart_arbiter: bool = False
    #: Filled at dispatch and finalize; the admitted get their ids at
    #: dispatch, and the arbiter hears of them (and of drains) at finalize.
    statuses: dict[int, str] = field(default_factory=dict)
    acks: dict[int, dict] = field(default_factory=dict)
    awaiting: list[int] = field(default_factory=list)
    admitted: list[int] = field(default_factory=list)


#: What a shard that reported nothing leaves in the log at finalize.
_DOWN_EVENTS = {
    "crashed": ("shard_killed", "shard crash injected"),
    "hung": ("shard_hung", "silent past the ack deadline"),
}


class Fleet:
    """N shards of one cluster under one budget arbiter, stepped by hand.

    Call :meth:`start`, then :meth:`step` once per control cycle, then
    :meth:`close` for the :class:`ShardedResult`; a ``with`` block stops
    every process and socket however it is left.  Strikes (:meth:`kill`,
    :meth:`partition`, …) are called before the step they apply to.

    Args:
        cluster: the simulated hardware, its nodes split into
            ``n_shards`` contiguous groups.  Thread-mode shards step their
            group in place; a process shard owns a private sub-cluster of
            the same shape, built from ``cluster``'s spec and RAPL config.
        n_shards: shard servers to run (1 ≤ n_shards ≤ n_nodes).
        manager_name: power-manager registry name each shard builds its
            manager from; required in process mode.
        checkpoint_dir: root for per-shard and arbiter checkpoints.
        manager_factory: thread mode only — shard id → a fresh (unbound)
            manager to use instead, e.g. one a test holds on to; bound to
            the shard's slice with its initial lease as the budget.
        dt_s: control period.
        config: arbiter/lease knobs.
        recovery: checkpoint/restart knobs shared by every shard (its
            ``checkpoint_dir`` is ignored — shards get subdirectories of
            ``checkpoint_dir``); ``hang_timeout_s`` is the ack deadline.
        resilience: client quarantine knobs for every shard server.
        safety: deploy-layer safety config for every shard server.
        invariant_mode: the arbiter's invariant-monitor cadence
            (``"strict"`` raises — the chaos-test posture).
        timeout_s: per-shard deploy-server socket deadline.
        rng: manager randomness; child streams are spawned per shard
            (thread mode; a subprocess seeds itself from its shard id).
        mode: ``"thread"`` (in-process shards on the caller's thread) or
            ``"process"`` (``dps-repro shard-server`` subprocesses behind
            real TCP links, supervised with OS signals).
        codec: process-mode clock-plane bulk encoding — ``"json"`` or
            ``"binary"`` (:mod:`repro.comm.wire`); thread mode has no
            wire and accepts only ``"json"``.
        max_ack_events: per-ack structured-event cap each shard server
            enforces (overflow collapses into ``events_truncated``).
    """

    def __init__(
        self,
        cluster: Cluster,
        n_shards: int,
        manager_name: str | None,
        checkpoint_dir: str | Path,
        *,
        manager_factory: Callable[[int], PowerManager] | None = None,
        dt_s: float = 1.0,
        config: ArbiterConfig | None = None,
        recovery: RecoveryOptions | None = None,
        resilience: ResilienceConfig | None = None,
        safety: SafetyConfig | None = None,
        invariant_mode: str = "strict",
        timeout_s: float = 5.0,
        rng: np.random.Generator | None = None,
        mode: str = "thread",
        codec: str = "json",
        max_ack_events: int = 256,
    ) -> None:
        spec = cluster.spec
        if not 1 <= n_shards <= spec.n_nodes:
            raise ValueError(
                f"n_shards must be in [1, {spec.n_nodes}], got {n_shards}"
            )
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if mode == "thread" and codec == "binary":
            raise ValueError("codec='binary' needs a wire; run with mode='process'")
        if manager_name is None and mode == "process":
            raise ValueError("mode='process' requires manager_name")
        if manager_name is None and manager_factory is None:
            raise ValueError("a fleet needs manager_name or manager_factory")
        self.cluster = cluster
        self.n_shards = n_shards
        self.n_nodes = spec.n_nodes
        self.mode = mode
        self.config = config or ArbiterConfig()
        self.recovery = recovery or RecoveryOptions(checkpoint_dir=checkpoint_dir)
        self.root = Path(checkpoint_dir)
        self._invariant_mode = invariant_mode
        self._manager_factory = manager_factory or (
            lambda shard_id: create_manager(manager_name)
        )
        rng = rng if rng is not None else np.random.default_rng(0)
        self._rngs = rng.spawn(n_shards)
        #: Every shard's spec but its id, slice and lease; building it
        #: checks the manager name and the codec before anything spawns.
        self._template = ShardSpec(
            shard_id=0,
            cluster=spec,
            rapl=cluster.rapl_config,
            manager=manager_name,
            lease_w=0.0,
            dt_s=dt_s,
            arbiter=self.config,
            checkpoint_every=self.recovery.checkpoint_every,
            keep_generations=self.recovery.keep_generations,
            safety=safety,
            resilience=resilience,
            codec=codec,
            max_ack_events=max_ack_events,
            timeout_s=timeout_s,
        )

        # Partition the nodes (and therefore the unit range) contiguously;
        # with n_shards <= n_nodes every shard gets at least one node.
        self._bounds = [
            round(i * spec.n_nodes / n_shards) for i in range(n_shards + 1)
        ]
        self._units = np.diff(self._bounds).astype(np.float64) * spec.sockets_per_node
        edges = np.concatenate(([0], np.cumsum(self._units))).astype(int)
        self._slices = [slice(edges[i], edges[i + 1]) for i in range(n_shards)]
        self._initial = np.clip(
            cluster.budget_w * self._units / float(self._units.sum()),
            self._units * spec.min_cap_w,
            self._units * spec.tdp_w,
        )

        #: The step being dispatched or finalized: the session's clock.
        self._step = 0
        #: The session's one log, stamped with the fleet step (links and
        #: arbiter included); the shards' events arrive in acks, stamped
        #: by the shard with the step it was executing.
        self.events = ResilienceEventLog(lambda: self._step)
        self.timeline = LeaseTimeline()
        #: Shard id → transport handle; a drained shard leaves it.
        self.handles: dict[int, ShardProcess | InlineShard] = {}
        #: Restarts performed per shard (a crash that exhausts the
        #: budget, or whose outage outlasts the session, adds none).
        self.restarts: defaultdict[int, int] = defaultdict(int)
        self.failed: set[int] = set()
        self._outage: dict[int, int] = {}
        self._hung: set[int] = set()
        #: Shard id → the arbiter's record of it, its link included.
        self._members: dict[int, ArbiterShard] = {}
        self.arbiter: BudgetArbiter | None = None
        self._store: CheckpointStore | None = None
        self._saved_members: list[ArbiterShard] = []
        self.arbiter_restarts = self._arbiter_cycles = 0
        self._sweeps = self._violations = 0
        self._last_stats = None
        #: Each initial shard's last acknowledged lease (arbiter down?).
        self._acked_leases = np.full(n_shards, np.nan)
        self.admitted: list[int] = []
        self.drained: list[int] = []
        self.drained_rcs: dict[int, int | None] = {}
        #: Clock bytes of the drained shards' handles.
        self._bytes_retired = 0
        self._power: list[np.ndarray] = []
        self._caps: list[np.ndarray] = []
        self._walls: list[float] = []
        self._wall_anchor = 0.0
        #: The next cycle to dispatch (strikes land on it) and the
        #: dispatched cycle not yet finalized.
        self._upcoming = _Cycle(step=0)
        self._pending: _Cycle | None = None
        self._marks = (0, 0)  # log lengths at the last FleetCycle

    def __enter__(self) -> Fleet:
        return self

    def __exit__(self, *exc_info) -> None:
        self._shutdown()

    # -- strikes: each applies to the next step -------------------------

    def kill(self, shard_id: int) -> None:
        """Crash the shard's controller (warm restart from its checkpoint)."""
        self._upcoming.kills.add(shard_id)

    def hang(self, shard_id: int) -> None:
        """Silence the shard until its ack deadline kills it."""
        self._upcoming.hangs.add(shard_id)

    def partition(self, shard_id: int) -> None:
        """Sever the shard↔arbiter link, both directions, at finalize."""
        self._upcoming.partitions.append(shard_id)

    def heal(self, shard_id: int) -> None:
        """Restore the shard↔arbiter link at finalize."""
        self._upcoming.heals.append(shard_id)

    def kill_node(self, node_id: int) -> None:
        """Kill a node's daemon (global node id) without a goodbye."""
        self._upcoming.node_kills.add(node_id)

    def reconnect_node(self, node_id: int) -> None:
        """Start a fresh daemon for a node; it HELLO-rejoins."""
        self._upcoming.node_reconnects.add(node_id)

    def kill_arbiter(self) -> None:
        """Crash the arbiter at finalize; shards run on their leases."""
        self._upcoming.kill_arbiter = True

    def restart_arbiter(self) -> None:
        """Resume a killed arbiter from its checkpoint at finalize."""
        self._upcoming.restart_arbiter = True

    def admit(self) -> None:
        """Spawn one more shard (process mode) and admit it live."""
        self._require_membership()
        self._upcoming.admits += 1

    def drain(self, shard_id: int) -> None:
        """SIGTERM the shard (process mode); the arbiter reclaims its
        lease after the final frozen summary."""
        self._require_membership()
        self._upcoming.drains.add(shard_id)

    def _require_membership(self) -> None:
        if self.mode != "process":
            raise ValueError(
                "admit/drain chaos needs real shard processes; run with "
                "mode='process'"
            )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Bring every initial shard up and give the arbiter its links."""
        for shard_id in range(self.n_shards):
            lo, hi = self._bounds[shard_id], self._bounds[shard_id + 1]
            spec = self._spec(shard_id, lo, hi - lo, float(self._initial[shard_id]))
            directory = self.root / f"shard-{shard_id}"
            if self.mode == "process":
                self.handles[shard_id] = ShardProcess(spec, directory)
            else:
                link = ShardLink()
                hosted = host_shard(
                    spec,
                    directory,
                    self._manager_factory(shard_id),
                    self._rngs[shard_id],
                    self.cluster.nodes[lo:hi],
                    link,
                )
                self.handles[shard_id] = InlineShard(hosted, link)
        # Launch the whole fleet first, then collect ports: interpreter
        # start-up overlaps across shards instead of paying it serially.
        for handle in self.handles.values():
            handle.launch()
        for handle in self.handles.values():
            handle.complete()
        for shard_id in range(self.n_shards):
            self._register(shard_id, int(self._units[shard_id]))
        self._store = CheckpointStore(
            self.root / "arbiter", keep=self.recovery.keep_generations
        )
        self.arbiter = self._make_arbiter(
            [self._members[i] for i in range(self.n_shards)], self._initial
        )
        self._wall_anchor = time.perf_counter()

    def step(self, demand: np.ndarray) -> FleetCycle | None:
        """Run the next cycle on ``demand`` (per unit, the whole cluster's).

        Returns the cycle this call finalized: the one before, after this
        one is dispatched (first, at a pipeline break), or None on the
        first call.  :meth:`close` finalizes the last cycle.
        """
        cycle, prior = self._upcoming, self._pending
        self._upcoming = _Cycle(step=cycle.step + 1)
        if prior is not None and (
            (prior.step + 1) % self.config.period_cycles == 0
            or prior.partitions
            or prior.heals
        ):
            self._finalize(prior)
            self._dispatch(cycle, demand, None)
        else:
            self._dispatch(cycle, demand, prior)
            if prior is not None:
                self._finalize(prior)
        self._pending = cycle
        if prior is None:
            return None
        marks, self._marks = self._marks, (len(self.events), len(self.timeline))
        return FleetCycle(
            step=prior.step,
            statuses=prior.statuses,
            acks=prior.acks,
            power=self._power[-1],
            caps=self._caps[-1],
            leases=self.timeline[marks[1]:],
            events=self.events.settle(marks[0]),
        )

    def close(self) -> ShardedResult:
        """Finalize the last cycle, stop every shard and link, report."""
        try:
            if self._pending is not None:
                self._finalize(self._pending)
                self._pending = None
        finally:
            self._shutdown()
        if self.arbiter is not None:
            self._retire(self.arbiter)
        self.events.settle(self._marks[0])
        links = [member.link for member in self._members.values()]
        stats = self._last_stats
        return ShardedResult(
            cycles=self._upcoming.step,
            n_shards=self.n_shards,
            budget_w=self.cluster.budget_w,
            events=self.events,
            timeline=self.timeline,
            leases_w=(
                self._acked_leases if self.arbiter is None else self.arbiter.leases_w
            ),
            power_history=np.reshape(self._power, (-1, self.cluster.n_units)),
            caps_history=np.reshape(self._caps, (-1, self.cluster.n_units)),
            shard_restarts=[self.restarts[i] for i in range(self.n_shards)],
            failed_shards=tuple(sorted(self.failed)),
            arbiter_restarts=self.arbiter_restarts,
            arbiter_cycles=self._arbiter_cycles,
            invariant_sweeps=self._sweeps,
            invariant_violations=self._violations,
            worst_case_w=stats.worst_case_w if stats else None,
            steady_w=stats.steady_w if stats else None,
            bytes_links=sum(link.bytes_total for link in links),
            checkpoint_dir=self.root,
            cycle_wall_s=np.asarray(self._walls, dtype=np.float64),
            mode=self.mode,
            admitted=tuple(self.admitted),
            drained=tuple(self.drained),
            drained_rcs=self.drained_rcs,
            link_reconnects=sum(link.reconnects for link in links),
            bytes_clock=self._bytes_retired
            + sum(handle.bytes_clock for handle in self.handles.values()),
            codec=self._template.codec,
        )

    def _shutdown(self) -> None:
        for handle in self.handles.values():
            handle.shutdown()
        for member in self._members.values():
            member.link.close()

    # -- building shards and arbiters -----------------------------------

    def _spec(
        self, shard_id: int, first_node: int, nodes: int, lease_w: float
    ) -> ShardSpec:
        return replace(
            self._template,
            shard_id=shard_id,
            seed=shard_id,
            cluster=replace(self.cluster.spec, n_nodes=nodes),
            first_node=first_node,
            lease_w=lease_w,
        )

    def _register(self, shard_id: int, n_units: int, admitted: bool = False) -> None:
        """Give the arbiter its edge of the shard's lease channel."""
        handle = self.handles[shard_id]
        if isinstance(handle, InlineShard):
            link: ShardLink | TcpShardLink = handle.link
        else:
            assert handle.address is not None
            link = TcpShardLink(
                handle.address,
                shard_id=shard_id,
                seed=shard_id,
                events=self.events,
            )
            # Dial now, so the shard holds an arbiter connection before its
            # first summary, and drain its answering HELLO so finalize's
            # wait latches onto a real summary — except an admitted
            # shard's, which the arbiter's admission path must see.
            link.take_summaries()
            if not admitted and link.wait_readable(2.0):
                link.take_summaries()
        self._members[shard_id] = ArbiterShard(
            shard_id=shard_id,
            link=link,
            n_units=n_units,
            min_cap_w=self.cluster.spec.min_cap_w,
            max_cap_w=self.cluster.spec.tdp_w,
        )

    def _make_arbiter(
        self, members: list[ArbiterShard], leases: np.ndarray | None
    ) -> BudgetArbiter:
        return BudgetArbiter(
            budget_w=self.cluster.budget_w,
            shards=members,
            initial_leases_w=leases,
            config=self.config,
            events=self.events,
            timeline=self.timeline,
            store=self._store,
            invariant_mode=self._invariant_mode,
        )

    def _retire(self, arbiter: BudgetArbiter) -> None:
        self._arbiter_cycles += arbiter.cycle
        self._sweeps += arbiter.monitor.sweeps_run
        self._violations += len(arbiter.monitor.violations)

    def _admit_known(self, shard_id: int) -> None:
        """Admit a live member the running arbiter does not know yet."""
        arbiter = self.arbiter
        if arbiter is not None and not (
            shard_id in arbiter.member_ids or shard_id in arbiter.pending_ids
        ):
            arbiter.admit(self._members[shard_id])

    # -- the two phases of a cycle --------------------------------------

    def _dispatch(
        self, cycle: _Cycle, demand: np.ndarray, prior: _Cycle | None
    ) -> None:
        """Push ``cycle`` to the fleet; the clock-side strikes fire here.

        A SIGKILL or SIGTERM destroys the process (and, through the
        kernel's RST, any acked-but-unread bytes), so a victim's
        outstanding ack from ``prior`` is settled before the signal goes
        out.  A hang needs no settling: the ``hang`` document is ordered
        after the previous cycle document on the clock socket.
        """
        step = self._step = cycle.step
        spec = self.cluster.spec
        for _ in range(cycle.admits):
            shard_id = self.n_shards + len(self.admitted)
            nodes = self._bounds[1]  # as many as the first shard's
            n_units = nodes * spec.sockets_per_node
            # Admitted shards' nodes are numbered past the cluster's.
            first_node = spec.n_nodes + nodes * len(self.admitted)
            lease_w = float(n_units * spec.min_cap_w)
            handle = ShardProcess(
                self._spec(shard_id, first_node, nodes, lease_w),
                self.root / f"shard-{shard_id}",
            )
            handle.spawn()
            self.handles[shard_id] = handle
            self._register(shard_id, n_units, admitted=True)
            cycle.admitted.append(shard_id)
            self.admitted.append(shard_id)
        for shard_id in sorted(cycle.drains):
            # The host could otherwise drain and exit with the previous
            # cycle document still queued, leaving its ack unsent.
            self._settle(prior, shard_id)
            self.handles[shard_id].terminate()
        # A drain ends at its cycle's finalize, which may still be ahead.
        draining = cycle.drains | (prior.drains if prior else set())

        demand = np.asarray(demand, dtype=np.float64)
        for shard_id, handle in sorted(self.handles.items()):
            if shard_id in draining:
                continue
            if shard_id in self.failed:
                status = "failed"
            elif shard_id in self._hung:
                # The watchdog half of a hang: the shard went silent last
                # cycle; its ack deadline passes without a word (a
                # process is waited out, an in-process shard's silence is
                # known at once), then SIGKILL.
                handle.await_ack(step, self.recovery.hang_timeout_s)
                self._hung.discard(shard_id)
                self._watchdog(shard_id)
                status = "failed" if shard_id in self.failed else "outage"
            elif shard_id in self._outage:
                status = "outage"
                self._outage[shard_id] -= 1
                if self._outage[shard_id] <= 0:
                    del self._outage[shard_id]
                    self._respawn(shard_id)
            elif shard_id in cycle.kills:
                self._settle(prior, shard_id)
                handle.kill()
                self._crash(shard_id)
                status = "crashed"
            elif shard_id in cycle.hangs:
                handle.send_hang()
                self._hung.add(shard_id)
                status = "hung"
            elif handle.alive and self._command(cycle, shard_id, demand):
                cycle.awaiting.append(shard_id)
                continue
            else:
                # Unexpected death (not a strike) — treat it as a crash
                # and consume the restart budget.
                self._settle(prior, shard_id)
                self._crash(shard_id)
                status = "crashed"
            cycle.statuses[shard_id] = status

    def _command(self, cycle: _Cycle, shard_id: int, demand: np.ndarray) -> bool:
        """Send one live shard its demand slice and node strikes."""
        if shard_id >= self.n_shards:
            # An admitted shard runs at the cluster's mean demand.
            fill = np.full(self._members[shard_id].n_units, float(demand.mean()))
            return self.handles[shard_id].command_cycle(cycle.step, fill)
        lo, hi = self._bounds[shard_id], self._bounds[shard_id + 1]
        # The shard's struck daemons, as slice indices.
        kill, reconnect = (
            tuple(sorted(n - lo for n in nodes if lo <= n < hi))
            for nodes in (cycle.node_kills, cycle.node_reconnects)
        )
        return self.handles[shard_id].command_cycle(
            cycle.step, demand[self._slices[shard_id]], kill, reconnect
        )

    def _finalize(self, cycle: _Cycle) -> None:
        """Collect ``cycle``; the arbiter-side strikes fire here.

        Acks first: every shard has then finished the cycle, summary
        included, so the link strikes below can never race a summary.
        """
        step = self._step = cycle.step
        for shard_id in cycle.awaiting:
            ack = self.handles[shard_id].await_ack(step, self.recovery.hang_timeout_s)
            if ack is None:
                # Silent past the deadline: the real watchdog.
                self._watchdog(shard_id)
                cycle.statuses[shard_id] = "hung"
            else:
                cycle.statuses[shard_id] = "ok"
                cycle.acks[shard_id] = ack
        cycle.awaiting = []
        power = np.full(self.cluster.n_units, np.nan)
        caps = np.full(self.cluster.n_units, np.nan)
        for shard_id, status in sorted(cycle.statuses.items()):
            if status in _DOWN_EVENTS:
                kind, detail = _DOWN_EVENTS[status]
                self.events.emit(kind, node_id=shard_id, detail=detail)
            elif status == "ok":
                ack = cycle.acks[shard_id]
                if shard_id < self.n_shards:
                    power[self._slices[shard_id]] = ack["power"]
                    caps[self._slices[shard_id]] = ack["caps"]
                    self._acked_leases[shard_id] = ack["lease_w"]
                self._append_acked(ack.get("events", ()))
        for shard_id in cycle.partitions:
            self._members[shard_id].link.partition()
            self.events.emit(
                "shard_partitioned",
                node_id=shard_id,
                detail="link severed both directions",
            )
        for shard_id in cycle.heals:
            self._members[shard_id].link.heal()
            self.events.emit("shard_partition_healed", node_id=shard_id)
        if cycle.kill_arbiter and self.arbiter is not None:
            self._retire(self.arbiter)
            self._saved_members = list(self.arbiter.member_specs)
            self.arbiter = None
            self.events.emit("arbiter_killed", detail="injected kill")
        if cycle.restart_arbiter and self.arbiter is None:
            self.arbiter = self._make_arbiter(self._saved_members, None)
            resumed = self.arbiter.resume()
            self.arbiter_restarts += 1
            self._arbiter_cycles -= self.arbiter.cycle
            self.events.emit(
                "arbiter_restarted", detail=f"resumed_from_checkpoint={resumed}"
            )
            # Re-admit live fleet members the snapshot predates.
            for shard_id in sorted(self.handles.keys() & self._members.keys()):
                self._admit_known(shard_id)
        for shard_id in cycle.admitted:
            # The arbiter-restart path above may already have swept the
            # new shard in; only register a genuinely unknown member.
            self._admit_known(shard_id)
        for shard_id in sorted(cycle.drains):
            if self.arbiter is not None:
                self.arbiter.drain(shard_id)
            handle = self.handles.pop(shard_id)
            doc = handle.finish_drain() or {}
            self._bytes_retired += handle.bytes_clock
            self.drained.append(shard_id)
            self.drained_rcs[shard_id] = doc.get("rc")
            self._append_acked(doc.get("events", ()))

        if self.arbiter is not None and (step + 1) % self.config.period_cycles == 0:
            # Shards sent their summaries before their acks, but over
            # TCP on a different socket: wait for each live link's frame
            # to land before collecting, so healthy shards are never
            # spuriously quarantined by a scheduling race.
            for shard_id, status in cycle.statuses.items():
                if status == "ok" and shard_id in self._members:
                    self._members[shard_id].link.wait_readable(1.0)
            self._last_stats = self.arbiter.cycle_once()
        self._power.append(power)
        self._caps.append(caps)
        # Finalize to finalize: the per-cycle throughput a deployment sees.
        wall_now = time.perf_counter()
        self._walls.append(wall_now - self._wall_anchor)
        self._wall_anchor = wall_now

    def _append_acked(self, docs) -> None:
        """Log a shard's acked events with the shard's own stamps."""
        for doc in docs:
            self.events.append(event_from_doc(doc))

    # -- restart bookkeeping --------------------------------------------

    def _settle(self, prior: _Cycle | None, shard_id: int) -> None:
        """Collect one shard's outstanding ack ahead of the others.

        Called before anything that destroys the shard's buffered clock
        traffic — SIGKILL (a kill strike; the kernel's RST drops
        received-but-unread bytes) or SIGTERM (the host may drain before
        processing a queued cycle document).  A shard that never acks is
        recorded ``hung`` for ``prior`` *without* crash bookkeeping: the
        caller is about to account the process's death itself.
        """
        if prior is None or shard_id not in prior.awaiting:
            return
        prior.awaiting.remove(shard_id)
        ack = self.handles[shard_id].await_ack(
            prior.step, self.recovery.hang_timeout_s
        )
        prior.statuses[shard_id] = "hung" if ack is None else "ok"
        if ack is not None:
            prior.acks[shard_id] = ack

    def _watchdog(self, shard_id: int) -> None:
        """A shard stayed silent past its ack deadline: SIGKILL, restart."""
        detail = f"no ack within {self.recovery.hang_timeout_s}s; killed"
        self.events.emit("controller_hung", node_id=shard_id, detail=detail)
        self.handles[shard_id].kill()
        self._crash(shard_id)

    def _crash(self, shard_id: int) -> None:
        restarts = self.restarts[shard_id]
        detail = f"shard down after {restarts} restarts"
        self.events.emit("controller_killed", node_id=shard_id, detail=detail)
        if restarts >= self.recovery.max_restarts:
            self.failed.add(shard_id)
        elif self.recovery.restart_delay_cycles > 0:
            self._outage[shard_id] = self.recovery.restart_delay_cycles
        else:
            self._respawn(shard_id)

    def _respawn(self, shard_id: int) -> None:
        self.handles[shard_id].spawn(resume=self._step)
        self.restarts[shard_id] += 1
        attempt = (
            f"restart {self.restarts[shard_id]} of at most "
            f"{self.recovery.max_restarts}"
        )
        for kind, detail in (
            ("controller_restarted", f"{attempt}, resumed from checkpoint"),
            ("shard_restarted", f"shard respawned from its checkpoint ({attempt})"),
        ):
            self.events.emit(kind, node_id=shard_id, detail=detail)


def run_sharded(
    cluster: Cluster,
    n_shards: int,
    manager_factory: Callable[[int], PowerManager],
    demand_fn: Callable[[int], np.ndarray],
    cycles: int,
    checkpoint_dir: str | Path,
    dt_s: float = 1.0,
    config: ArbiterConfig | None = None,
    chaos: ShardChaosSchedule | None = None,
    recovery: RecoveryOptions | None = None,
    resilience: ResilienceConfig | None = None,
    safety: SafetyConfig | None = None,
    invariant_mode: str = "strict",
    timeout_s: float = 5.0,
    rng: np.random.Generator | None = None,
    mode: str = "thread",
    manager_name: str | None = None,
    codec: str = "json",
    max_ack_events: int = 256,
) -> ShardedResult:
    """Run a :class:`Fleet` for ``cycles`` cycles under ``chaos``.

    Args (the others are :class:`Fleet`'s):
        manager_factory: thread mode only — shard id → a fresh (unbound)
            power manager, or None to build each from ``manager_name``
            (a subprocess always rebuilds its manager from the name).
        demand_fn: step index → per-unit demand for the *whole* cluster.
        cycles: control cycles to run.
        chaos: optional failure plan, checked against the fleet before
            anything is spawned and struck before each cycle.

    Returns:
        A :class:`ShardedResult`; every process and socket is shut down
        before returning, succeed or fail.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    chaos = chaos or ShardChaosSchedule()
    fleet = Fleet(
        cluster,
        n_shards,
        manager_name,
        checkpoint_dir,
        manager_factory=manager_factory,
        dt_s=dt_s,
        config=config,
        recovery=recovery,
        resilience=resilience,
        safety=safety,
        invariant_mode=invariant_mode,
        timeout_s=timeout_s,
        rng=rng,
        mode=mode,
        codec=codec,
        max_ack_events=max_ack_events,
    )
    chaos.check(fleet)
    with fleet:
        fleet.start()
        for step in range(cycles):
            chaos.strike(fleet, step)
            fleet.step(demand_fn(step))
        return fleet.close()
