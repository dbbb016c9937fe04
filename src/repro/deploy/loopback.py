"""Loopback deployment: the full TCP control plane in one process.

Runs the real :class:`~repro.deploy.server.DeployServer` and one
:class:`~repro.deploy.client.DeployClient` thread per node over localhost
TCP, while the calling thread advances the simulated cluster physics —
the closest this repo gets to the artifact's actual deployment, exercising
sockets, framing, quantization, and the threaded daemons end to end.

A :class:`ChaosSchedule` lets a session kill client daemons mid-run and
reconnect them later, driving the server's quarantine / fallback /
HELLO-rejoin machinery over real sockets — and, with
``controller_kill_at`` / ``controller_hang_at``, kill or hang the
*controller itself*.  Controller chaos requires :class:`RecoveryOptions`:
the session then runs under a
:class:`~repro.recovery.supervisor.Supervisor`, the manager is wrapped in
a :class:`~repro.recovery.controller.RecoverableController`
(journal + periodic checkpoints), and each restart warm-restores from the
latest valid checkpoint, replays the journal tail, re-baselines the
meters, and waits for every client to re-HELLO before the control loop
continues.  Cycles during the outage advance physics only — the hardware
holds its last programmed caps, exactly as RAPL does when the controller
is down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.managers import PowerManager
from repro.deploy.client import DeployClient
from repro.deploy.plane import ClientPlane
from repro.deploy.server import DeployServer
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.controller import RecoverableController
from repro.recovery.supervisor import (
    ControllerCrash,
    ControllerHang,
    Heartbeat,
    Supervisor,
)
from repro.resilience.health import HealthState, ResilienceConfig
from repro.safety import SafetyConfig
from repro.telemetry.log import CycleTimingLog, ResilienceEventLog

__all__ = [
    "ChaosSchedule",
    "LoopbackResult",
    "RecoveryOptions",
    "run_loopback",
]


@dataclass(frozen=True)
class ChaosSchedule:
    """Failure plan for a loopback session.

    Attributes:
        kill_at: node id → cycle index at which that node's daemon is
            killed (socket severed without QUIT — the daemon crashes, the
            node's hardware keeps running under its last caps).
        reconnect_at: node id → cycle index at which a fresh daemon for
            that node connects and HELLO-rejoins.
        controller_kill_at: cycle indices at which the *controller*
            process crashes (each fires once; requires recovery options).
        controller_hang_at: cycle indices at which the controller stops
            making progress until the watchdog aborts it (each fires
            once; requires recovery options).
    """

    kill_at: Mapping[int, int] = field(default_factory=dict)
    reconnect_at: Mapping[int, int] = field(default_factory=dict)
    controller_kill_at: tuple[int, ...] = ()
    controller_hang_at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for node_id, cycle in self.reconnect_at.items():
            if node_id in self.kill_at and cycle <= self.kill_at[node_id]:
                raise ValueError(
                    f"node {node_id} reconnects at cycle {cycle}, before "
                    f"its kill at cycle {self.kill_at[node_id]}"
                )
        for label, steps in (
            ("controller_kill_at", self.controller_kill_at),
            ("controller_hang_at", self.controller_hang_at),
        ):
            for step in steps:
                if step < 0:
                    raise ValueError(f"{label} holds negative cycle {step}")
        overlap = set(self.controller_kill_at) & set(self.controller_hang_at)
        if overlap:
            raise ValueError(
                f"cycles {sorted(overlap)} appear in both controller_kill_at "
                "and controller_hang_at"
            )

    @property
    def has_controller_chaos(self) -> bool:
        """True when any controller kill/hang is scheduled."""
        return bool(self.controller_kill_at or self.controller_hang_at)


@dataclass(frozen=True)
class RecoveryOptions:
    """Controller crash-recovery configuration of a loopback session.

    Attributes:
        checkpoint_dir: directory for checkpoint generations and the
            cycle journal.
        checkpoint_every: cycles between checkpoints.
        keep_generations: checkpoint generations retained.
        max_restarts: controller restarts allowed before the session
            fails.
        hang_timeout_s: heartbeat staleness (wall-clock) at which the
            watchdog declares the controller hung.
        restart_delay_cycles: control cycles the restart takes — physics
            advances, hardware holds its last caps, no control happens.
    """

    checkpoint_dir: str | Path
    checkpoint_every: int = 5
    keep_generations: int = 3
    max_restarts: int = 3
    hang_timeout_s: float = 2.0
    restart_delay_cycles: int = 2

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_generations < 1:
            raise ValueError(
                f"keep_generations must be >= 1, got {self.keep_generations}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.restart_delay_cycles < 0:
            raise ValueError(
                "restart_delay_cycles must be >= 0, got "
                f"{self.restart_delay_cycles}"
            )


@dataclass
class LoopbackResult:
    """Outcome of a loopback session.

    Attributes:
        cycles: control cycles executed (including controller-outage
            cycles, which advance physics only).
        bytes_total: protocol payload bytes both directions.
        caps_history: the manager's cap decisions per cycle,
            ``(cycles, units)``.  Clients apply them asynchronously (each
            before answering its next POLL), so the hardware-side caps may
            trail by under one cycle and differ by the protocol's 0.1 W
            quantization.  During a controller outage the row holds the
            hardware's held caps.
        readings_history: the reading vectors the manager consumed per
            cycle, ``(cycles, units)`` — wire readings for healthy
            clients, fallback values for quarantined ones, NaN during a
            controller outage (nobody read the meters).
        power_history: true per-unit power at the end of each cycle,
            ``(cycles, units)`` — the progress ground truth.
        client_cycles: per-node cycles served by the *original* daemons
            (all equal when no chaos was scheduled).
        fallback_cycles: cycles in which at least one unit's reading came
            from the fallback policy.
        events: structured resilience *and* recovery events of the whole
            session (all attempts).
        timings: per-cycle phase timings of the server's control cycles
            (all attempts; outage cycles run no control and are absent).
        final_health: health state per node id at session end.
        controller_restarts: supervisor restarts performed.
        checkpoints_written: checkpoint generations written.
        journal_replayed: journal records replayed across all restarts.
    """

    cycles: int
    bytes_total: int
    caps_history: np.ndarray
    readings_history: np.ndarray
    power_history: np.ndarray
    client_cycles: list[int] = field(default_factory=list)
    fallback_cycles: int = 0
    events: ResilienceEventLog = field(default_factory=ResilienceEventLog)
    timings: CycleTimingLog = field(default_factory=CycleTimingLog)
    final_health: dict[int, HealthState] = field(default_factory=dict)
    controller_restarts: int = 0
    checkpoints_written: int = 0
    journal_replayed: int = 0


def _validate_chaos(chaos: ChaosSchedule, cluster: Cluster) -> None:
    node_ids = {node.node_id for node in cluster.nodes}
    for label, schedule in (
        ("kill_at", chaos.kill_at),
        ("reconnect_at", chaos.reconnect_at),
    ):
        for node_id in schedule:
            if node_id not in node_ids:
                raise ValueError(f"chaos {label} names unknown node {node_id}")


def run_loopback(
    cluster: Cluster,
    manager: PowerManager,
    demand_fn: Callable[[int], np.ndarray],
    cycles: int,
    dt_s: float = 1.0,
    rng: np.random.Generator | None = None,
    chaos: ChaosSchedule | None = None,
    resilience: ResilienceConfig | None = None,
    recovery: RecoveryOptions | None = None,
    safety: SafetyConfig | None = None,
) -> LoopbackResult:
    """Drive a full TCP control-plane session on localhost.

    The session is a sequence of restartable *attempts* over one step
    counter.  With ``recovery`` the attempts run under a
    :class:`~repro.recovery.supervisor.Supervisor` and step a
    :class:`~repro.recovery.controller.RecoverableController`; without
    it there is exactly one attempt, the bare manager is the stepper,
    and nothing is checkpointed.

    Args:
        cluster: the simulated hardware (provides nodes and physics).
        manager: power manager; bound here to the cluster's topology.
        demand_fn: step index → per-unit demand vector (W).
        cycles: number of control cycles to run.
        dt_s: control period.
        rng: manager randomness (seeded default if omitted).
        chaos: optional daemon/controller kill schedule.
        resilience: server quarantine/fallback configuration.
        recovery: checkpoint/supervisor configuration; required when the
            chaos schedule kills or hangs the controller, optional (plain
            periodic checkpointing) otherwise.
        safety: budget-safety envelope configuration, passed through to
            every :class:`~repro.deploy.server.DeployServer` the session
            creates.  After a supervised restart the new server's
            envelope starts from the pessimistic applied-view prior
            (hardware assumed uncapped) — the conservative posture when
            the controller's knowledge of the hardware was lost.

    Returns:
        A :class:`LoopbackResult`; the server and every client are shut
        down before returning, succeed or fail.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    chaos = chaos or ChaosSchedule()
    _validate_chaos(chaos, cluster)
    if chaos.has_controller_chaos and recovery is None:
        raise ValueError(
            "controller kill/hang chaos requires recovery options"
        )
    manager.bind(
        n_units=cluster.n_units,
        budget_w=cluster.budget_w,
        max_cap_w=cluster.spec.tdp_w,
        min_cap_w=cluster.spec.min_cap_w,
        dt_s=dt_s,
        rng=rng if rng is not None else np.random.default_rng(0),
    )
    events = ResilienceEventLog()
    timings = CycleTimingLog()
    stepper: PowerManager | RecoverableController = manager
    supervisor: Supervisor | None = None
    if recovery is not None:
        ckpt_dir = Path(recovery.checkpoint_dir)
        stepper = RecoverableController(
            manager,
            store=CheckpointStore(ckpt_dir, keep=recovery.keep_generations),
            journal=CycleJournal(ckpt_dir / "journal.log"),
            checkpoint_every=recovery.checkpoint_every,
            events=events,
        )
        supervisor = Supervisor(
            max_restarts=recovery.max_restarts,
            hang_timeout_s=recovery.hang_timeout_s,
            events=events,
        )

    caps_history = np.full((cycles, cluster.n_units), np.nan)
    readings_history = np.full((cycles, cluster.n_units), np.nan)
    power_history = np.full((cycles, cluster.n_units), np.nan)

    # Shared across attempts: the global step cursor, the chaos events
    # already fired, and the session accounting.
    state = {"step": 0, "bytes": 0, "fallback": 0, "replayed": 0}
    fired: set[int] = set()
    first_clients: list[DeployClient] = []
    final_health: dict[int, HealthState] = {}

    def outage_cycle(step: int) -> None:
        """One controller-down cycle: physics only, caps held by hardware."""
        cluster.step_physics(demand_fn(step), dt_s)
        caps_history[step] = cluster.caps_w()
        power_history[step] = cluster.true_power_w()

    def attempt(index: int, heartbeat: Heartbeat) -> dict[int, HealthState]:
        if index > 0:
            assert recovery is not None  # Only a supervisor restarts.
            # The restart window: the supervisor is re-launching the
            # controller while the machines keep running under their
            # last programmed caps.
            for _ in range(recovery.restart_delay_cycles):
                if state["step"] >= cycles:
                    break
                outage_cycle(state["step"])
                state["step"] += 1
            if stepper.resume():
                state["replayed"] += stepper.replayed
            # A restarted metering daemon re-anchors its energy cursors;
            # without this the outage's accumulated energy lands on the
            # first post-restart reading.
            cluster.rebaseline_meters()
        if state["step"] >= cycles:
            return dict(final_health)

        server = DeployServer(
            stepper, resilience=resilience, events=events, safety=safety
        )
        with ClientPlane(server, cluster.nodes, dt_s) as plane:
            if index == 0:
                first_clients.extend(plane.originals)
            try:
                while state["step"] < cycles:
                    step = state["step"]
                    if step in chaos.controller_kill_at and step not in fired:
                        fired.add(step)
                        raise ControllerCrash(f"injected kill at cycle {step}")
                    if step in chaos.controller_hang_at and step not in fired:
                        fired.add(step)
                        # Stall without beating until the watchdog aborts
                        # the attempt — the hang is *detected*, not timed.
                        while not heartbeat.aborted:
                            time.sleep(0.005)
                        raise ControllerHang(f"hang detected at cycle {step}")
                    for node_id, kill_cycle in chaos.kill_at.items():
                        if kill_cycle == step:
                            plane.kill(node_id)
                    for node_id, rc_cycle in chaos.reconnect_at.items():
                        if rc_cycle == step:
                            plane.reconnect(node_id)

                    cluster.step_physics(demand_fn(step), dt_s)
                    stats = plane.cycle(server.control_cycle)
                    heartbeat.beat()
                    state["bytes"] += stats.bytes_up + stats.bytes_down
                    readings_history[step] = stats.readings_w
                    caps_history[step] = np.asarray(stepper.caps)
                    power_history[step] = cluster.true_power_w()
                    if stats.fallback_units > 0:
                        state["fallback"] += 1
                    state["step"] = step + 1
                return server.health
            finally:
                final_health.clear()
                final_health.update(server.health)
                timings.extend(server.timings)
                if recovery is not None:
                    stepper.close()

    if supervisor is None:
        health = attempt(0, Heartbeat())
    else:
        health = supervisor.run(attempt)

    return LoopbackResult(
        cycles=cycles,
        bytes_total=state["bytes"],
        caps_history=caps_history,
        readings_history=readings_history,
        power_history=power_history,
        client_cycles=[c.cycles_served for c in first_clients],
        fallback_cycles=state["fallback"],
        events=events,
        timings=timings,
        final_health=health,
        controller_restarts=supervisor.restarts if supervisor else 0,
        checkpoints_written=len(events.of_kind("checkpoint_written")),
        journal_replayed=state["replayed"],
    )
