"""Lock-step multi-shard harness with shard-level chaos.

:func:`run_sharded` is the repo's one deployment loop: N real
:class:`~repro.deploy.server.DeployServer` instances (one per shard,
each on its own kernel-chosen ephemeral port, each with its own
:class:`~repro.deploy.client.DeployClient` daemons over localhost TCP)
under one :class:`~repro.shard.arbiter.BudgetArbiter`.  One shard is
the paper's single-server deployment: it holds the whole budget as its
lease, and every chaos field below applies to it unchanged.

There is **one loop and two transports**.  The calling thread hosts the
arbiter and the lock-step clock; a
:class:`~repro.shard.supervisor.ShardSupervisor` drives the fleet and
keeps the only restart bookkeeping.  Every shard is a
:class:`~repro.shard.server.HostedShard` built by
:func:`~repro.shard.supervisor.host_shard` from one
:class:`~repro.shard.supervisor.ShardSpec`, running the same cycle body —
step its slice's physics with its demand slice, run the leased control
cycle, wait for the caps to land, summarize on the arbiter period,
acknowledge with powers/caps/events/lease — and ``mode`` picks only how
the clock reaches it and how the arbiter's link does:

* ``"thread"`` — the shard runs in process, on the calling thread, over
  its slice of the caller's ``cluster``: its cycle is recorded at
  dispatch and run when its ack is collected
  (:class:`~repro.shard.supervisor.InlineShard`), and it is leased over
  the wire-faithful in-memory :class:`~repro.shard.lease.ShardLink`.
* ``"process"`` — the shard is a ``dps-repro shard-server`` subprocess
  over a private sub-cluster, reading its spec from its directory,
  commanded over a TCP clock connection
  (:class:`~repro.shard.supervisor.ShardProcess`) and leased over a
  :class:`~repro.comm.shardlink.TcpShardLink`.  Only this transport can
  admit and drain members live, and only it has a clock codec.

Cycles are **pipelined one deep**: each step splits into a *dispatch*
phase (cycle N+1's demand slices pushed to every shard, plus the
clock-side chaos — kill/hang, admit spawn, drain SIGTERM) and a
*finalize* phase (cycle N's acks collected in cycle order, histories
scattered, link and arbiter chaos fired, the arbiter cycle run).
Dispatching N+1 before collecting N lets every process shard compute
while the harness thread is busy finalizing — in-process shards overlap
nothing, since each runs its cycle when that cycle is collected —
without giving up lock-step determinism: acks are still applied
strictly in cycle order, a chaos victim's outstanding ack is settled
before it is struck, and every
arbiter-relative ordering (chaos after arbiter cycle N-1, before
arbiter cycle N) is exactly the sequential schedule's.  The pipeline
deliberately breaks at arbiter period boundaries: the arbiter re-cuts
leases there, and its grants must reach every shard before the next
demand slice does, or grant application would race the cycle it funds.
It breaks the same way on a cycle with a partition or heal scheduled,
so link chaos for cycle N fires after every shard finished N (its
summary included) and before any shard starts N+1.

Histories are assembled from the acknowledgements, so a shard that is
down contributes NaN rows — a dead shard reports nothing, whichever
transport it died on — and its slice of the physics stands still until
it is back.

Chaos covers the full failure matrix: node-daemon *kill/reconnect*
(the shard's deploy server quarantines the node, serves fallback
readings and HELLO-rejoins the fresh daemon), shard *kill* (the shard
goes down and is warm-restarted from its checkpoint), shard *hang*
(silent past the ack deadline, then killed and restarted), link
*partition* (frames dropped both directions; the arbiter quarantines the
shard, the shard freezes on its lease term), and arbiter *kill/restart*
(shards run autonomously on their last leases and freeze when the terms
expire; the restarted arbiter resumes from its checkpoint).  Every
transition lands in the merged event log as a structured event — there
is no silent failover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.cluster.cluster import Cluster
from repro.comm.shardlink import TcpShardLink
from repro.core.managers import PowerManager
from repro.deploy.health import ResilienceConfig
from repro.recovery.checkpoint import CheckpointStore
from repro.safety import SafetyConfig
from repro.shard.arbiter import ArbiterShard, BudgetArbiter
from repro.shard.lease import ArbiterConfig, ShardLink
from repro.shard.server import event_from_doc
from repro.shard.supervisor import (
    InlineShard,
    PendingCycle,
    RecoveryOptions,
    ShardProcess,
    ShardSpec,
    ShardSupervisor,
    host_shard,
)
from repro.telemetry.log import LeaseTimeline, ResilienceEventLog

__all__ = ["ShardChaosSchedule", "ShardedResult", "run_sharded"]


@dataclass(frozen=True)
class ShardChaosSchedule:
    """Failure plan of a sharded session (cycle indices, each fires once).

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
        for label, cycles in (
            ("shard_kill_at", self.shard_kill_at.values()),
            ("shard_hang_at", self.shard_hang_at.values()),
            ("partition_at", self.partition_at.values()),
            ("heal_at", self.heal_at.values()),
            ("drain_at", self.drain_at.values()),
            ("node_kill_at", self.node_kill_at.values()),
            ("node_reconnect_at", self.node_reconnect_at.values()),
            ("arbiter_kill_at", (self.arbiter_kill_at,)),
            ("arbiter_restart_at", (self.arbiter_restart_at,)),
            ("admit_at", (self.admit_at,)),
        ):
            for cycle in cycles:
                if cycle is not None and cycle < 0:
                    raise ValueError(f"{label} holds negative cycle {cycle}")
        if self.arbiter_restart_at is not None and self.arbiter_kill_at is None:
            raise ValueError("arbiter_restart_at needs an arbiter_kill_at")
        for node_id, cycle in self.node_reconnect_at.items():
            if (
                node_id in self.node_kill_at
                and cycle <= self.node_kill_at[node_id]
            ):
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

            def in_outage(cycle: int) -> bool:
                return cycle >= lo and (hi is None or cycle < hi)

            if self.admit_at is not None and in_outage(self.admit_at):
                raise ValueError(
                    f"admit at cycle {self.admit_at} falls inside the "
                    "arbiter outage"
                )
            for shard_id, cycle in self.drain_at.items():
                if in_outage(cycle):
                    raise ValueError(
                        f"shard {shard_id} drains at cycle {cycle}, inside "
                        "the arbiter outage"
                    )
        for shard_id, cycle in self.heal_at.items():
            if (
                shard_id in self.partition_at
                and cycle <= self.partition_at[shard_id]
            ):
                raise ValueError(
                    f"shard {shard_id} heals at cycle {cycle}, before its "
                    f"partition at cycle {self.partition_at[shard_id]}"
                )
        overlap = set(self.shard_kill_at) & set(self.shard_hang_at)
        for shard_id in overlap:
            if self.shard_kill_at[shard_id] == self.shard_hang_at[shard_id]:
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


@dataclass
class ShardedResult:
    """Outcome of a sharded session.

    Attributes:
        cycles: control cycles executed.
        n_shards: shard servers in the session.
        budget_w: the global budget that was arbitrated.
        events: merged structured events of the whole session — harness,
            arbiter, and every shard's deploy/recovery stack.
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
    shard_restarts: list[int] = field(default_factory=list)
    failed_shards: tuple[int, ...] = ()
    arbiter_restarts: int = 0
    arbiter_cycles: int = 0
    invariant_sweeps: int = 0
    invariant_violations: int = 0
    worst_case_w: float | None = None
    steady_w: float | None = None
    bytes_links: int = 0
    checkpoint_dir: Path | None = None
    cycle_wall_s: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    mode: str = "thread"
    admitted: tuple[int, ...] = ()
    drained: tuple[int, ...] = ()
    drained_rcs: dict[int, int | None] = field(default_factory=dict)
    link_reconnects: int = 0
    bytes_clock: int = 0
    codec: str = "json"


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
    """Run a sharded control-plane session over localhost TCP.

    Args:
        cluster: the simulated hardware; its nodes are partitioned into
            ``n_shards`` contiguous groups.  Thread-mode shards step
            their group's physics in place; process-mode shards own a
            private sub-cluster of the same shape, so there ``cluster``
            contributes topology, its RAPL configuration and the global
            budget only.
        n_shards: shard servers to run (1 ≤ n_shards ≤ n_nodes).
        manager_factory: shard id → a fresh (unbound) power manager for
            that shard; bound here to the shard's slice topology with
            the shard's initial lease as its budget.  Thread mode only —
            a subprocess rebuilds its manager from ``manager_name``.
        demand_fn: step index → per-unit demand for the *whole* cluster.
        cycles: control cycles to run.
        checkpoint_dir: root for per-shard and arbiter checkpoints.
        dt_s: control period.
        config: arbiter/lease knobs.
        chaos: optional shard-level failure plan.
        recovery: checkpoint/restart knobs shared by every shard
            (``checkpoint_dir`` inside it is ignored — shards get
            subdirectories of this function's ``checkpoint_dir``);
            ``hang_timeout_s`` is the per-cycle ack deadline.
        resilience: client quarantine knobs for every shard server.
        safety: deploy-layer safety config for every shard server.
        invariant_mode: the arbiter's invariant-monitor cadence
            (``"strict"`` raises — the chaos-test posture).
        timeout_s: per-shard deploy-server socket deadline.
        rng: manager randomness; child streams are spawned per shard
            (thread mode; a subprocess seeds itself from its shard id).
        mode: ``"thread"`` runs in-process shards on the caller's
            thread with in-memory links (the default); ``"process"``
            runs each shard as a ``dps-repro shard-server`` subprocess
            behind a real TCP link, supervised with OS signals.
        manager_name: power-manager registry name, required in process
            mode (the subprocess rebuilds the manager from its name;
            ``manager_factory`` is not picklable across an exec).
        codec: process-mode clock-plane bulk encoding — ``"json"``
            (float lists, the historical wire) or ``"binary"`` (raw
            array frames, :mod:`repro.comm.wire`).  Thread mode has no
            wire and accepts only ``"json"``.
        max_ack_events: per-ack structured-event cap each shard server
            enforces (overflow collapses into ``events_truncated``).

    Returns:
        A :class:`ShardedResult`; every process and socket is shut down
        before returning, succeed or fail.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    spec = cluster.spec
    if not 1 <= n_shards <= spec.n_nodes:
        raise ValueError(
            f"n_shards must be in [1, {spec.n_nodes}], got {n_shards}"
        )
    if mode not in ("thread", "process"):
        raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
    if codec not in ("json", "binary"):
        raise ValueError(f"codec must be 'json' or 'binary', got {codec!r}")
    if mode == "thread" and codec != "json":
        raise ValueError("codec='binary' needs a wire; run with mode='process'")
    cfg = config or ArbiterConfig()
    chaos = chaos or ShardChaosSchedule()
    recovery = recovery or RecoveryOptions(checkpoint_dir=checkpoint_dir)
    rng = rng if rng is not None else np.random.default_rng(0)
    root = Path(checkpoint_dir)
    _validate_chaos(chaos, n_shards, spec.n_nodes)
    if mode == "process":
        if manager_name is None:
            raise ValueError("mode='process' requires manager_name")
    elif chaos.admit_at is not None or chaos.drain_at:
        raise ValueError(
            "admit/drain chaos needs real shard processes; run with "
            "mode='process'"
        )

    # Partition the nodes (and therefore the unit range) contiguously.
    bounds = [round(i * spec.n_nodes / n_shards) for i in range(n_shards + 1)]
    node_counts = [bounds[i + 1] - bounds[i] for i in range(n_shards)]
    if any(count < 1 for count in node_counts):
        raise ValueError(
            f"{n_shards} shards leave some shard empty over "
            f"{spec.n_nodes} nodes"
        )
    units = np.asarray(node_counts, dtype=np.float64) * spec.sockets_per_node
    edges = np.concatenate(([0], np.cumsum(units))).astype(int)
    base_slices = [
        slice(int(edges[i]), int(edges[i + 1])) for i in range(n_shards)
    ]
    initial = np.clip(
        cluster.budget_w * units / float(units.sum()),
        units * spec.min_cap_w,
        units * spec.tdp_w,
    )

    harness_events = ResilienceEventLog()
    shard_events = ResilienceEventLog()
    timeline = LeaseTimeline()
    clock_now = {"now": 0.0}
    shard_rngs = rng.spawn(n_shards)

    # -- the two transports: one spec, one builder -----------------------

    def shard_spec(
        shard_id: int, first_node: int, nodes: int, lease_w: float
    ) -> ShardSpec:
        return ShardSpec(
            shard_id=shard_id,
            cluster=replace(spec, n_nodes=nodes),
            rapl=cluster.rapl_config,
            manager=manager_name,
            lease_w=lease_w,
            first_node=first_node,
            dt_s=dt_s,
            seed=shard_id,
            arbiter=cfg,
            checkpoint_every=recovery.checkpoint_every,
            keep_generations=recovery.keep_generations,
            safety=safety,
            resilience=resilience,
            codec=codec,
            max_ack_events=max_ack_events,
            timeout_s=timeout_s,
        )

    def process_shard(
        shard_id: int, first_node: int, nodes: int, lease_w: float
    ) -> ShardProcess:
        return ShardProcess(
            shard_spec(shard_id, first_node, nodes, lease_w),
            root / f"shard-{shard_id}",
        )

    def thread_shard(shard_id: int, lease_w: float) -> InlineShard:
        link = ShardLink()
        lo, hi = bounds[shard_id], bounds[shard_id + 1]
        hosted = host_shard(
            shard_spec(shard_id, lo, hi - lo, lease_w),
            root / f"shard-{shard_id}",
            manager_factory(shard_id),
            shard_rngs[shard_id],
            cluster.nodes[lo:hi],
            link,
        )
        return InlineShard(hosted, link)

    supervisor = ShardSupervisor(
        {
            i: (
                process_shard(
                    i, bounds[i], node_counts[i], float(initial[i])
                )
                if mode == "process"
                else thread_shard(i, float(initial[i]))
            )
            for i in range(n_shards)
        },
        recovery,
        events=harness_events,
    )
    links: dict[int, ShardLink | TcpShardLink] = {}
    arb_specs: dict[int, ArbiterShard] = {}

    def register(shard_id: int, n_units: int, consume_hello: bool = True) -> None:
        """Give the arbiter its edge of the shard's lease channel."""
        proc = supervisor.fleet[shard_id]
        if isinstance(proc, InlineShard):
            link: ShardLink | TcpShardLink = proc.link
        else:
            assert proc.address is not None
            link = TcpShardLink(
                proc.address,
                shard_id=shard_id,
                seed=shard_id,
                events=harness_events,
                clock=lambda: clock_now["now"],
            )
            # Kick the dial now so the shard holds an arbiter connection
            # before its first summary.  Member links also drain the
            # shard's answering HELLO here, leaving the buffer empty so
            # the pre-collection wait below latches onto the first real
            # summary; an admitted shard's HELLO is left in place — the
            # arbiter's admission path must see it.
            link.take_summaries()
            if consume_hello and link.wait_readable(2.0):
                link.take_summaries()
        links[shard_id] = link
        arb_specs[shard_id] = ArbiterShard(
            shard_id=shard_id,
            link=link,
            n_units=n_units,
            min_cap_w=spec.min_cap_w,
            max_cap_w=spec.tdp_w,
        )

    arbiter_store = CheckpointStore(
        root / "arbiter", keep=recovery.keep_generations
    )

    def make_arbiter(
        shard_specs: list[ArbiterShard], leases: np.ndarray | None
    ) -> BudgetArbiter:
        return BudgetArbiter(
            budget_w=cluster.budget_w,
            shards=shard_specs,
            initial_leases_w=leases,
            config=cfg,
            events=harness_events,
            timeline=timeline,
            store=arbiter_store,
            invariant_mode=invariant_mode,
        )

    power_history = np.full((cycles, cluster.n_units), np.nan)
    caps_history = np.full((cycles, cluster.n_units), np.nan)
    counters = {
        "arbiter_restarts": 0,
        "arbiter_cycles": 0,
        "sweeps": 0,
        "violations": 0,
    }
    last_stats = None
    cycle_wall = np.zeros(cycles, dtype=np.float64)
    #: The lease each initial shard last acknowledged holding — the one
    #: mode-independent answer to "what are the leases" when the arbiter
    #: is down at session end.
    acked_leases = np.full(n_shards, np.nan)
    admitted: list[int] = []
    drained: list[int] = []
    drained_rcs: dict[int, int | None] = {}
    #: Clock-side chaos fires at dispatch time, but its arbiter-side
    #: half (admit registration, drain reclamation) must keep the
    #: sequential ordering — after arbiter cycle N-1, before arbiter
    #: cycle N — so it is deferred to the same cycle's finalize phase.
    deferred_admits: dict[int, list[int]] = {}
    deferred_drains: dict[int, list[int]] = {}
    saved_members: list[ArbiterShard] | None = None
    next_shard_id = n_shards
    arbiter: BudgetArbiter | None = None
    pending: PendingCycle | None = None

    def retire_arbiter(instance: BudgetArbiter) -> None:
        counters["arbiter_cycles"] += instance.cycle
        counters["sweeps"] += instance.monitor.sweeps_run
        counters["violations"] += len(instance.monitor.violations)

    def record_shard_events(docs) -> None:
        for doc in docs:
            event = event_from_doc(doc)
            shard_events.emit(
                event.time_s,
                event.kind,
                unit=event.unit,
                node_id=event.node_id,
                detail=event.detail,
            )

    def dispatch_phase(
        step: int, prior: PendingCycle | None
    ) -> PendingCycle:
        """Push cycle ``step`` to the fleet; clock-side chaos fires here."""
        nonlocal next_shard_id
        clock_now["now"] = float(step)
        if chaos.admit_at == step:
            shard_id = next_shard_id
            next_shard_id += 1
            new_units = node_counts[0] * spec.sockets_per_node
            # The admitted shard's nodes are numbered past the cluster's.
            supervisor.admit(
                process_shard(
                    shard_id,
                    spec.n_nodes,
                    node_counts[0],
                    float(new_units * spec.min_cap_w),
                )
            )
            register(shard_id, new_units, consume_hello=False)
            deferred_admits.setdefault(step, []).append(shard_id)
            admitted.append(shard_id)
        drains_now = sorted(
            sid for sid, at in chaos.drain_at.items() if at == step
        )
        for shard_id in drains_now:
            # Settle the victim's outstanding ack before SIGTERM: the
            # host could otherwise drain and exit with the previous
            # cycle document still queued, leaving its ack unsent.
            supervisor.settle(prior, shard_id)
            supervisor.begin_drain(shard_id)
        if drains_now:
            deferred_drains[step] = drains_now

        global_demand = np.asarray(demand_fn(step), dtype=np.float64)
        fill = float(global_demand.mean()) if global_demand.size else 0.0
        demands: dict[int, np.ndarray] = {}
        for shard_id in supervisor.fleet:
            if shard_id in supervisor.draining:
                continue
            if shard_id < n_shards:
                demands[shard_id] = global_demand[base_slices[shard_id]]
            else:
                demands[shard_id] = np.full(arb_specs[shard_id].n_units, fill)
        kills = {
            sid for sid, at in chaos.shard_kill_at.items() if at == step
        }
        hangs = {
            sid for sid, at in chaos.shard_hang_at.items() if at == step
        }

        def local(schedule: Mapping[int, int], sid: int) -> tuple[int, ...]:
            """Shard ``sid``'s daemons struck this cycle, as slice indices."""
            lo, hi = bounds[sid], bounds[sid + 1]
            return tuple(
                sorted(
                    n - lo
                    for n, at in schedule.items()
                    if at == step and lo <= n < hi
                )
            )

        node_chaos = {
            sid: (
                local(chaos.node_kill_at, sid),
                local(chaos.node_reconnect_at, sid),
            )
            for sid in range(n_shards)
        }
        return supervisor.dispatch(
            step, demands, kills, hangs, prior, node_chaos
        )

    def finalize_phase(step: int, pend: PendingCycle) -> None:
        """Collect cycle ``step``; arbiter-relative chaos fires here.

        Acks first: every shard has then finished cycle ``step``, summary
        included, so the link chaos below can never race a summary.
        """
        nonlocal arbiter, saved_members, last_stats
        now = float(step)
        clock_now["now"] = now
        statuses = supervisor.collect(pend)
        for shard_id, (status, ack) in sorted(statuses.items()):
            if status == "crashed":
                harness_events.emit(
                    now,
                    "shard_killed",
                    node_id=shard_id,
                    detail="shard crash injected",
                )
            elif status == "hung":
                harness_events.emit(
                    now,
                    "shard_hung",
                    node_id=shard_id,
                    detail="silent past the ack deadline",
                )
            elif status == "ok" and ack is not None:
                if shard_id < n_shards:
                    sl = base_slices[shard_id]
                    power_history[step, sl] = ack["power"]
                    caps_history[step, sl] = ack["caps"]
                    acked_leases[shard_id] = ack["lease_w"]
                record_shard_events(ack.get("events", ()))
        for shard_id, at in chaos.partition_at.items():
            if at == step:
                links[shard_id].partition()
                harness_events.emit(
                    now,
                    "shard_partitioned",
                    node_id=shard_id,
                    detail="link severed both directions",
                )
        for shard_id, at in chaos.heal_at.items():
            if at == step:
                links[shard_id].heal()
                harness_events.emit(
                    now, "shard_partition_healed", node_id=shard_id
                )
        if chaos.arbiter_kill_at == step and arbiter is not None:
            retire_arbiter(arbiter)
            saved_members = list(arbiter.member_specs)
            arbiter = None
            harness_events.emit(now, "arbiter_killed", detail="injected kill")
        if chaos.arbiter_restart_at == step and arbiter is None:
            assert saved_members is not None
            arbiter = make_arbiter(saved_members, None)
            resumed = arbiter.resume()
            counters["arbiter_restarts"] += 1
            counters["arbiter_cycles"] -= arbiter.cycle
            harness_events.emit(
                now,
                "arbiter_restarted",
                detail=f"resumed_from_checkpoint={resumed}",
            )
            # Re-admit live fleet members the snapshot predates.
            for shard_id in sorted(supervisor.fleet):
                if (
                    shard_id not in arbiter.member_ids
                    and shard_id not in arbiter.pending_ids
                    and shard_id in arb_specs
                ):
                    arbiter.admit(arb_specs[shard_id], now)
        for shard_id in deferred_admits.pop(step, []):
            # The arbiter-restart path above may already have swept the
            # new shard in; only register a genuinely unknown member.
            if (
                arbiter is not None
                and shard_id not in arbiter.member_ids
                and shard_id not in arbiter.pending_ids
            ):
                arbiter.admit(arb_specs[shard_id], now)
        for shard_id in deferred_drains.pop(step, []):
            if arbiter is not None:
                arbiter.drain(shard_id, now)
            doc = supervisor.finish_drain(shard_id)
            drained.append(shard_id)
            drained_rcs[shard_id] = doc.get("rc") if doc is not None else None
            record_shard_events((doc or {}).get("events", ()))

        if arbiter is not None and (step + 1) % cfg.period_cycles == 0:
            # Shards sent their summaries before their acks, but over
            # TCP on a different socket: wait for each live link's frame
            # to land before collecting, so healthy shards are never
            # spuriously quarantined by a scheduling race.
            for shard_id, (status, _ack) in statuses.items():
                if status == "ok" and shard_id in links:
                    links[shard_id].wait_readable(1.0)
            last_stats = arbiter.cycle_once(now=now)

    try:
        supervisor.start()
        for i in range(n_shards):
            register(i, int(units[i]))
        arbiter = make_arbiter([arb_specs[i] for i in range(n_shards)], initial)

        # One-cycle pipeline: dispatch N+1, then finalize N while the
        # process shards compute.  cycle_wall measures finalize-to-
        # finalize (the per-cycle throughput a deployment would see).
        # The pipeline breaks at arbiter period boundaries: finalize N
        # re-cuts leases there, and its grants must be on the wire
        # before demand N+1 or grant application degrades into a
        # scheduling race (applied at N+1 on a fast shard, N+2 on a
        # slow one).  It breaks on link chaos for the same reason: a
        # partition or heal fired while cycle N+1 runs would race that
        # cycle's summary.
        unpipelined = set(chaos.partition_at.values()) | set(
            chaos.heal_at.values()
        )
        def close_cycle(pend: PendingCycle) -> None:
            nonlocal wall_anchor
            finalize_phase(pend.step, pend)
            wall_now = time.perf_counter()
            cycle_wall[pend.step] = wall_now - wall_anchor
            wall_anchor = wall_now

        wall_anchor = time.perf_counter()
        for step in range(cycles):
            if pending is not None and (
                (pending.step + 1) % cfg.period_cycles == 0
                or pending.step in unpipelined
            ):
                close_cycle(pending)
                pending = None
            fresh = dispatch_phase(step, pending)
            if pending is not None:
                close_cycle(pending)
            pending = fresh
        if pending is not None:
            close_cycle(pending)
    finally:
        supervisor.stop()
        for link in links.values():
            link.close()

    if arbiter is not None:
        retire_arbiter(arbiter)

    events = ResilienceEventLog()
    events.extend(harness_events)
    events.extend(shard_events)

    return ShardedResult(
        cycles=cycles,
        n_shards=n_shards,
        budget_w=cluster.budget_w,
        events=events,
        timeline=timeline,
        leases_w=arbiter.leases_w if arbiter is not None else acked_leases,
        power_history=power_history,
        caps_history=caps_history,
        shard_restarts=[supervisor.restarts.get(i, 0) for i in range(n_shards)],
        failed_shards=tuple(sorted(supervisor.failed)),
        arbiter_restarts=counters["arbiter_restarts"],
        arbiter_cycles=counters["arbiter_cycles"],
        invariant_sweeps=counters["sweeps"],
        invariant_violations=counters["violations"],
        worst_case_w=last_stats.worst_case_w if last_stats else None,
        steady_w=last_stats.steady_w if last_stats else None,
        bytes_links=sum(link.bytes_total for link in links.values()),
        checkpoint_dir=root,
        cycle_wall_s=cycle_wall,
        mode=mode,
        admitted=tuple(admitted),
        drained=tuple(drained),
        drained_rcs=drained_rcs,
        link_reconnects=sum(link.reconnects for link in links.values()),
        bytes_clock=supervisor.bytes_clock,
        codec=codec,
    )


def _validate_chaos(
    chaos: ShardChaosSchedule, n_shards: int, n_nodes: int
) -> None:
    for label, schedule, kind, count in (
        ("shard_kill_at", chaos.shard_kill_at, "shard", n_shards),
        ("shard_hang_at", chaos.shard_hang_at, "shard", n_shards),
        ("partition_at", chaos.partition_at, "shard", n_shards),
        ("heal_at", chaos.heal_at, "shard", n_shards),
        ("drain_at", chaos.drain_at, "shard", n_shards),
        ("node_kill_at", chaos.node_kill_at, "node", n_nodes),
        ("node_reconnect_at", chaos.node_reconnect_at, "node", n_nodes),
    ):
        for key in schedule:
            if not 0 <= key < count:
                raise ValueError(f"chaos {label} names unknown {kind} {key}")
