"""Discrete-time simulation engine.

One step of the engine is one turn of the paper's control loop (§4.3,
default 1 s):

1. each workload publishes the uncapped *demand* of its sockets;
2. the RAPL domains advance physically — true power relaxes toward
   ``min(demand, cap)`` under the caps currently in effect;
3. workload progress advances at the rate the performance model grants
   under those caps (capped phases stretch);
4. the meters produce noisy power readings, the manager turns them into new
   caps, and the actuator programs the caps for the next interval.

The engine runs until every workload has completed its target number of
back-to-back runs, reproducing the paper's repeat-until-enough-samples
methodology, and records the artifact-style logs (telemetry + events).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import EventLog, NodeFailureEvent
from repro.cluster.perfmodel import progress_rate
from repro.core.config import (
    ClusterSpec,
    PerfModelConfig,
    RaplConfig,
    SimulationConfig,
)
from repro.core.dps import DPSManager
from repro.core.managers import PowerManager
from repro.powercap.actuator import CapActuator
from repro.powercap.faults import FaultConfig
from repro.safety import ControlStack, SafetyConfig
from repro.telemetry.log import ResilienceEventLog, TelemetryLog
from repro.workloads.runtime import WorkloadExecution
from repro.workloads.spec import WorkloadSpec

__all__ = ["Simulation", "SimulationResult", "Assignment"]


@dataclass(frozen=True)
class Assignment:
    """One workload placed on a slice of the cluster.

    Attributes:
        spec: the workload.
        unit_ids: global unit indices of its cluster half.
    """

    spec: WorkloadSpec
    unit_ids: np.ndarray


@dataclass
class SimulationResult:
    """Everything a finished simulation produced.

    Attributes:
        executions: per-workload runtime state with completed-run records.
        telemetry: per-step traces (None unless recording was requested).
        events: structured run/violation events.
        steps: control-loop iterations executed.
        sim_time_s: simulated wall-clock duration.
        truncated: True if ``max_steps`` was hit before all targets.
        budget_w: the budget the manager was bound to.
        max_caps_sum_w: largest observed sum of caps (budget-respect check).
    """

    executions: list[WorkloadExecution]
    telemetry: TelemetryLog | None
    events: EventLog
    steps: int
    sim_time_s: float
    truncated: bool
    budget_w: float
    max_caps_sum_w: float
    durations: dict[str, float] = field(default_factory=dict)
    #: Checkpoint generations written (0 unless checkpointing was enabled).
    checkpoints_written: int = 0
    #: Journal records replayed by a resumed run (0 for cold starts).
    journal_replayed: int = 0
    #: Control cycle the manager state resumed at (None for cold starts).
    resumed_at_cycle: int | None = None
    #: Verified-actuation write retries that eventually succeeded.
    actuation_retries: int = 0
    #: Cap writes whose read-back verification exhausted the retry budget.
    actuation_verify_failures: int = 0
    #: Structured ``budget_*`` / ``invariant_violation`` events (None
    #: unless the safety envelope was enabled).
    safety_events: ResilienceEventLog | None = None
    #: Cycles whose worst-case committed power exceeded the budget.
    budget_excursions: int = 0
    #: Degradation-ladder rungs the budget guard took, by event kind.
    guard_rungs: dict[str, int] = field(default_factory=dict)

    def execution(self, name: str) -> WorkloadExecution:
        """The execution record of the named workload.

        Raises:
            KeyError: unknown workload name.
        """
        for e in self.executions:
            if e.spec.name == name:
                return e
        raise KeyError(
            f"no workload {name!r} in this simulation; "
            f"have {[e.spec.name for e in self.executions]}"
        )


class Simulation:
    """One configured experiment run.

    Args:
        cluster_spec: topology and budget.
        manager: the power manager under test (bound by :meth:`run`).
        assignments: workloads and the cluster slices they occupy; slices
            must not overlap.  Units in no slice stay at idle power.
        target_runs: completed runs required of *every* workload before the
            simulation ends.
        sim_config: step length, time scale, gap, and step limit.
        perf_config: cap-to-performance model.
        rapl_config: RAPL noise/lag behaviour.
        seed: master seed; every randomness consumer (sockets, workloads,
            manager) gets an independent child stream.
        record_telemetry: keep per-step traces (memory ~ steps x units).
        actuation_delay_steps: control intervals between a cap decision and
            it taking effect (1 models the networked client round trip).
        failures: scheduled node crash/recovery events.  While a node is
            down its units draw no power, its workload stalls, and its
            readings are dropouts (0.0 W).
        fault_config: per-reading measurement-fault probabilities, set
            on every unit of the cluster's bank
            (:meth:`~repro.powercap.rapl.RaplBank.set_faults`) when given.
        verify_actuation: read every programmed cap back and retry on
            mismatch (:class:`~repro.powercap.actuator.CapActuator`
            verify mode); verification events flow into the telemetry
            event channel, never exceptions.
        checkpoint_dir: when given, the manager runs wrapped in a
            :class:`~repro.recovery.controller.RecoverableController`
            opened on this directory: it journals every cycle's inputs
            there and writes durable snapshot generations every
            ``checkpoint_every`` cycles.
        checkpoint_every: cycles between checkpoint generations (>= 1).
        resume: warm-restore the manager from the newest valid
            checkpoint in ``checkpoint_dir`` (replaying the journal
            tail) before the first cycle.  Requires ``checkpoint_dir``.
            The physics restart cold — resume preserves the *controller*
            state (filters, priorities, RNG stream), which keeps the
            budget guarantee from cycle 0 and skips re-convergence.
        safety: budget-safety envelope configuration.  When given, the
            run tracks the commanded/dispatched/applied cap views, gates
            every cap vector through the
            :class:`~repro.safety.guard.BudgetGuard` (worst-case
            committed power includes the actuator's in-flight pipeline
            and the domains' read-back caps), and runs the runtime
            invariant monitors.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        manager: PowerManager,
        assignments: list[Assignment],
        target_runs: int = 1,
        sim_config: SimulationConfig | None = None,
        perf_config: PerfModelConfig | None = None,
        rapl_config: RaplConfig | None = None,
        seed: int = 0,
        record_telemetry: bool = False,
        actuation_delay_steps: int = 0,
        failures: Sequence[NodeFailureEvent] = (),
        fault_config: FaultConfig | None = None,
        verify_actuation: bool = False,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 10,
        resume: bool = False,
        safety: SafetyConfig | None = None,
    ) -> None:
        if target_runs < 1:
            raise ValueError(f"target_runs must be >= 1, got {target_runs}")
        if not assignments:
            raise ValueError("at least one workload assignment is required")
        if resume and checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        for nf in failures:
            if nf.node_id >= cluster_spec.n_nodes:
                raise ValueError(
                    f"failure schedules node {nf.node_id} but the cluster "
                    f"has {cluster_spec.n_nodes} nodes"
                )
        self.failures = tuple(failures)
        self.fault_config = fault_config
        self.cluster_spec = cluster_spec
        self.manager = manager
        self.sim_config = sim_config or SimulationConfig()
        self.perf_config = perf_config or PerfModelConfig()
        self.rapl_config = rapl_config or RaplConfig()
        self.target_runs = target_runs
        self.record_telemetry = record_telemetry
        self.actuation_delay_steps = actuation_delay_steps
        self.seed = seed
        self.verify_actuation = verify_actuation
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.safety = safety

        # Validate the assignment slices partition-or-less the unit range.
        # ``durations`` and ``SimulationResult.execution`` are keyed by
        # workload name, so two assignments of one name would merge.
        seen: set[int] = set()
        names: set[str] = set()
        for a in assignments:
            if a.spec.name in names:
                raise ValueError(
                    f"{a.spec.name}: workload assigned twice; results are "
                    f"keyed by workload name, so give each placement its "
                    f"own (dataclasses.replace(spec, name=...))"
                )
            names.add(a.spec.name)
            ids = {int(u) for u in a.unit_ids}
            if not ids:
                raise ValueError(f"{a.spec.name}: empty unit assignment")
            if ids & seen:
                raise ValueError(
                    f"{a.spec.name}: unit assignment overlaps another workload"
                )
            if max(ids) >= cluster_spec.n_units or min(ids) < 0:
                raise ValueError(
                    f"{a.spec.name}: unit ids out of range "
                    f"[0, {cluster_spec.n_units})"
                )
            seen |= ids
        self.assignments = assignments

    def run(self) -> SimulationResult:
        """Execute the simulation to completion.

        Returns:
            A :class:`SimulationResult`; ``truncated`` is True (and a
            ``simulation_truncated`` event is logged) if the step limit was
            reached first.
        """
        with ExitStack() as teardown:
            return self._run(teardown)

    def _run(self, teardown: ExitStack) -> SimulationResult:
        rng = np.random.default_rng(self.seed)
        cluster_rng, manager_rng, *workload_rngs = rng.spawn(
            2 + len(self.assignments)
        )
        cluster = Cluster(self.cluster_spec, self.rapl_config, cluster_rng)
        sim_cfg = self.sim_config
        dt = sim_cfg.dt_s
        if self.fault_config is not None:
            # Spawned after the baseline streams so fault-free runs keep
            # their exact seed lineage.
            cluster.bank.set_faults(
                self.fault_config, rng.spawn(cluster.n_units)
            )

        executions = [
            WorkloadExecution(
                spec=a.spec,
                unit_ids=a.unit_ids,
                rng=wrng,
                time_scale=sim_cfg.time_scale,
                inter_run_gap_s=sim_cfg.inter_run_gap_s,
                idle_power_w=self.cluster_spec.idle_power_w,
                max_demand_w=self.cluster_spec.tdp_w,
                duration_jitter_std=sim_cfg.duration_jitter_std,
            )
            for a, wrng in zip(self.assignments, workload_rngs)
        ]

        self.manager.bind(
            n_units=cluster.n_units,
            budget_w=cluster.budget_w,
            max_cap_w=self.cluster_spec.tdp_w,
            min_cap_w=self.cluster_spec.min_cap_w,
            dt_s=dt,
            rng=manager_rng,
        )
        stepper = self.manager
        controller = None
        resumed_at: int | None = None
        if self.checkpoint_dir is not None:
            # Imported here: repro.recovery.controller imports the manager
            # registry, and the plain simulator path must stay light.
            from repro.recovery.controller import RecoverableController

            controller = RecoverableController.open(
                self.manager,
                self.checkpoint_dir,
                checkpoint_every=self.checkpoint_every,
            )
            teardown.callback(controller.close)
            if self.resume and controller.resume():
                resumed_at = controller.cycle
            stepper = controller

        actuator = CapActuator(
            cluster.domains,
            delay_steps=self.actuation_delay_steps,
            verify=self.verify_actuation,
        )
        actuator.issue(np.asarray(self.manager.caps))
        actuator.flush()

        safety_events = ResilienceEventLog() if self.safety is not None else None
        stack = ControlStack(stepper, self.safety, safety_events)
        if stack.envelope is not None:
            # The simulator can read the hardware back directly, so the
            # applied view starts from the domains' real caps instead of
            # the pessimistic uncapped prior.
            stack.envelope.record_applied(slice(None), cluster.caps_w())
        stack.dispatched(slice(None), np.asarray(self.manager.caps))

        telemetry = (
            TelemetryLog(cluster.n_units) if self.record_telemetry else None
        )

        def drain_actuator(at_s: float) -> None:
            """Move pending verification events into the telemetry channel."""
            if telemetry is not None:
                for kind, unit, detail in actuator.events:
                    telemetry.events.emit(at_s, kind, unit=unit, detail=detail)
            actuator.events.clear()

        drain_actuator(0.0)
        events = EventLog()
        for e in executions:
            events.emit(0.0, "run_started", workload=e.spec.name)

        idle_power_w = self.cluster_spec.idle_power_w
        requires_demand = self.manager.requires_demand
        budget_limit_w = cluster.budget_w * (1 + 1e-6)
        target_runs = self.target_runs
        demand = np.full(cluster.n_units, idle_power_w, dtype=np.float64)
        completed = [0] * len(executions)
        max_caps_sum = float(np.sum(cluster.caps_w()))
        now = 0.0
        steps = 0
        truncated = False
        down_nodes: set[int] = set()
        pending_failures = sorted(self.failures, key=lambda f: f.fail_at_s)
        fail_fired = [False] * len(pending_failures)
        recover_fired = [False] * len(pending_failures)

        while min(completed) < target_runs:
            if steps >= sim_cfg.max_steps:
                truncated = True
                events.emit(now, "simulation_truncated")
                break

            # 0. Scheduled node failures/recoveries crossing this step.
            for idx, nf in enumerate(pending_failures):
                if not fail_fired[idx] and nf.fail_at_s <= now:
                    fail_fired[idx] = True
                    down_nodes.add(nf.node_id)
                    for sock in cluster.nodes[nf.node_id].sockets:
                        sock.domain.power_off()
                    events.emit(
                        now, "node_failed", detail=f"node={nf.node_id}"
                    )
                    if telemetry is not None:
                        telemetry.events.emit(
                            now, "node_failed", node_id=nf.node_id
                        )
                elif (
                    fail_fired[idx]
                    and not recover_fired[idx]
                    and nf.recover_at_s is not None
                    and nf.recover_at_s <= now
                ):
                    recover_fired[idx] = True
                    down_nodes.discard(nf.node_id)
                    events.emit(
                        now, "node_recovered", detail=f"node={nf.node_id}"
                    )
                    if telemetry is not None:
                        telemetry.events.emit(
                            now, "node_recovered", node_id=nf.node_id
                        )
            down_units = (
                np.asarray(
                    [
                        uid
                        for nid in down_nodes
                        for uid in cluster.nodes[nid].unit_ids
                    ],
                    dtype=np.intp,
                )
                if down_nodes
                else None
            )

            # 1. Demands from every workload; unassigned units idle.
            demand.fill(idle_power_w)
            for e in executions:
                demand[e.unit_ids] = e.demand()
            if down_units is not None:
                demand[down_units] = 0.0  # A dead machine draws nothing.

            # 2. Physics under the caps currently in effect.
            caps_in_effect = cluster.caps_w()
            in_effect_sum = float(caps_in_effect.sum())
            if in_effect_sum > max_caps_sum:
                max_caps_sum = in_effect_sum
            true_power = cluster.step_physics(demand, dt)
            now += dt
            steps += 1

            # 3. Progress under those caps; a dead node's workload stalls.
            rates = progress_rate(caps_in_effect, demand, self.perf_config)
            if down_units is not None:
                rates[down_units] = 0.0
            for k, e in enumerate(executions):
                e.advance(
                    rates[e.unit_ids], true_power[e.unit_ids], dt, now
                )
                done = len(e.records)
                if done > completed[k]:
                    completed[k] = done
                    events.emit(
                        now,
                        "run_completed",
                        workload=e.spec.name,
                        detail=f"run {done}",
                    )

            # 4. Measure, decide, actuate.
            readings = cluster.read_powers_w(dt)
            if down_units is not None:
                # A dead host's telemetry is a dropout, not a number.
                readings[down_units] = 0.0
            # The domains' current caps (nothing has written one since
            # step 2 read them) are what the coming interval is committed
            # to until the new dispatch lands.
            new_caps, _ = stack.decide(
                readings, demand if requires_demand else None, now,
                applied_w=caps_in_effect, pending=actuator.pending,
            )
            actuator.issue(new_caps)
            stack.dispatched(slice(None), new_caps)
            if actuator.events:
                drain_actuator(now)
            stack.check(new_caps, readings, now)

            if telemetry is not None:
                priority = (
                    self.manager.priority
                    if isinstance(self.manager, DPSManager)
                    else None
                )
                telemetry.record(
                    now, true_power, readings, caps_in_effect, priority
                )
            caps_sum = float(new_caps.sum())
            if caps_sum > budget_limit_w:
                events.emit(
                    now, "budget_violation", detail=f"sum={caps_sum:.1f}"
                )

        durations = {}
        for e in executions:
            if e.records:
                durations[e.spec.name] = e.mean_duration_s()
        if telemetry is not None and controller is not None:
            telemetry.events.extend(controller.events)
        if telemetry is not None and safety_events is not None:
            telemetry.events.extend(safety_events)
        return SimulationResult(
            executions=executions,
            telemetry=telemetry,
            events=events,
            steps=steps,
            sim_time_s=now,
            truncated=truncated,
            budget_w=cluster.budget_w,
            max_caps_sum_w=max_caps_sum,
            durations=durations,
            checkpoints_written=(
                len(controller.events.of_kind("checkpoint_written"))
                if controller is not None
                else 0
            ),
            journal_replayed=(
                controller.replayed if controller is not None else 0
            ),
            resumed_at_cycle=resumed_at,
            actuation_retries=actuator.retries,
            actuation_verify_failures=actuator.verify_failures,
            safety_events=safety_events,
            budget_excursions=stack.guard.excursions if stack.guard else 0,
            guard_rungs=dict(stack.guard.rungs_taken) if stack.guard else {},
        )
