"""Discrete-time simulation engine: the plant under the control stack.

One step is one turn of the paper's control loop (§4.3, default 1 s): the
:class:`~repro.cluster.plant.Plant` advances an interval and reads its
meters, the :class:`~repro.safety.ControlStack` turns the readings into
caps, and the actuator programs them for the next interval.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import NodeFailureEvent
from repro.cluster.plant import Assignment, Plant
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

if TYPE_CHECKING:
    from repro.workloads.runtime import WorkloadExecution

__all__ = ["Simulation", "SimulationResult", "Assignment"]


@dataclass
class SimulationResult:
    """Everything a finished simulation produced.

    Attributes:
        executions: per-workload runtime state with completed-run records.
        telemetry: per-step traces (None unless recording was requested).
        events: the run's one event log, stamped in simulated seconds:
            runs, outages, actuation retries, the controller's recovery
            events and the safety envelope's.
        steps: control-loop iterations executed.
        sim_time_s: simulated wall-clock duration.
        truncated: True if ``max_steps`` was hit before all targets.
        budget_w: the budget the manager was bound to.
        max_caps_sum_w: largest observed sum of caps (budget-respect check).
    """

    executions: list[WorkloadExecution]
    telemetry: TelemetryLog | None
    events: ResilienceEventLog
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
    #: :attr:`events` again when the safety envelope was enabled, else
    #: None; kept only for readers that look for ``invariant_violation``
    #: here.
    safety_events: ResilienceEventLog | None = None
    #: Cycles whose worst-case committed power exceeded the budget.
    budget_excursions: int = 0
    #: Degradation-ladder rungs the budget guard took, by event kind.
    guard_rungs: dict[str, int] = field(default_factory=dict)

    def execution(self, name: str) -> WorkloadExecution:
        """The execution record of the named workload (KeyError if none)."""
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
        assignments: workloads and their slices, as :class:`~repro.cluster.plant.Plant`.
        target_runs: runs *every* workload must complete before the run ends;
            the paper repeats each workload until it has enough samples.
        sim_config: step length, time scale, gap, and step limit.
        perf_config: cap-to-performance model.
        rapl_config: RAPL noise/lag behaviour.
        seed: master seed; every randomness consumer (sockets, workloads,
            manager) gets an independent child stream.
        record_telemetry: keep per-step traces (memory ~ steps x units).
        actuation_delay_steps: control intervals between a cap decision and
            it taking effect (1 models the networked client round trip).
        failures / fault_config: node outages and measurement faults,
            handed to the plant.
        verify_actuation: read every programmed cap back and retry on
            mismatch; verification events go to the run's event log.
        checkpoint_dir: run the manager in a
            :class:`~repro.recovery.controller.RecoverableController` that
            journals there and checkpoints every ``checkpoint_every`` cycles.
        resume: warm-restore the manager from ``checkpoint_dir`` first.  The
            physics restart cold; the controller state (filters, priorities,
            RNG stream) keeps the budget guarantee from cycle 0.
        safety: the budget-safety envelope: cap views, the
            :class:`~repro.safety.guard.BudgetGuard` on worst-case
            committed power, and the runtime invariant monitors.
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
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.failures = tuple(failures)
        self.sim_config = sim_config or SimulationConfig()
        Plant.check(
            cluster_spec, assignments, self.failures, self.sim_config.dt_s
        )
        self.fault_config = fault_config
        self.cluster_spec = cluster_spec
        self.manager = manager
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
        self.assignments = assignments

    def run(self) -> SimulationResult:
        """Execute the simulation to completion; ``truncated`` (and a
        ``simulation_truncated`` event) marks a run the step limit cut."""
        with ExitStack() as teardown:
            return self._run(teardown)

    def _run(self, teardown: ExitStack) -> SimulationResult:
        rng = np.random.default_rng(self.seed)
        cluster_rng, manager_rng, *workload_rngs = rng.spawn(2 + len(self.assignments))
        cluster = Cluster(self.cluster_spec, self.rapl_config, cluster_rng)
        dt = self.sim_config.dt_s
        plant = Plant(
            cluster, self.assignments, workload_rngs, self.sim_config,
            self.perf_config, self.failures, self.fault_config,
            # Spawned after the baseline streams so fault-free runs keep
            # their exact seed lineage.
            rng.spawn(cluster.n_units) if self.fault_config is not None else (),
        )
        events = plant.events
        telemetry = (
            TelemetryLog(cluster.n_units, events)
            if self.record_telemetry else None
        )

        self.manager.bind(
            n_units=cluster.n_units,
            budget_w=cluster.budget_w,
            max_cap_w=self.cluster_spec.tdp_w,
            min_cap_w=self.cluster_spec.min_cap_w,
            dt_s=dt,
            rng=manager_rng,
        )
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
                events=events,
            )
            teardown.callback(controller.close)
            if self.resume and controller.resume():
                resumed_at = controller.cycle

        actuator = CapActuator(
            cluster.domains,
            delay_steps=self.actuation_delay_steps,
            verify=self.verify_actuation,
            events=events,
        )
        actuator.issue(np.asarray(self.manager.caps))
        actuator.flush()

        stack = ControlStack(controller or self.manager, self.safety, events)
        if stack.envelope is not None:
            # The simulator can read the hardware back directly, so the
            # applied view starts from the domains' real caps instead of
            # the pessimistic uncapped prior.
            stack.envelope.record_applied(slice(None), cluster.caps_w())
        stack.dispatched(slice(None), np.asarray(self.manager.caps))

        with_priority = telemetry is not None and isinstance(self.manager, DPSManager)
        requires_demand = self.manager.requires_demand
        budget_limit_w = cluster.budget_w * (1 + 1e-6)
        target_runs = self.target_runs
        completed = plant.completed
        max_caps_sum = float(cluster.caps_w().sum())
        steps = 0

        while min(completed) < target_runs and steps < self.sim_config.max_steps:
            readings = plant.step(dt)
            steps += 1
            now = plant.now
            caps_in_effect = plant.caps_in_effect
            in_effect_sum = float(np.add.reduce(caps_in_effect))
            if in_effect_sum > max_caps_sum:
                max_caps_sum = in_effect_sum

            # Decide and actuate.  The domains' current caps (nothing has
            # written one since the plant read them) are what the coming
            # interval is committed to until the new dispatch lands.
            new_caps, _ = stack.decide(
                readings, plant.demand if requires_demand else None,
                applied_w=caps_in_effect, pending=actuator.pending,
            )
            actuator.issue(new_caps)
            stack.dispatched(slice(None), new_caps)
            stack.check(new_caps, readings)

            if telemetry is not None:
                telemetry.record(
                    now, plant.true_power, readings, caps_in_effect,
                    self.manager.priority if with_priority else None,
                )
            caps_sum = float(np.add.reduce(new_caps))
            if caps_sum > budget_limit_w:
                events.emit("budget_violation", detail=f"sum={caps_sum:.1f}")

        truncated = min(completed) < target_runs
        if truncated:
            events.emit("simulation_truncated")
        durations = {
            e.spec.name: e.mean_duration_s() for e in plant.executions if e.records
        }
        return SimulationResult(
            executions=plant.executions,
            telemetry=telemetry,
            events=events,
            steps=steps,
            sim_time_s=plant.now,
            truncated=truncated,
            budget_w=cluster.budget_w,
            max_caps_sum_w=max_caps_sum,
            durations=durations,
            checkpoints_written=len(events.of_kind("checkpoint_written")),
            journal_replayed=controller.replayed if controller else 0,
            resumed_at_cycle=resumed_at,
            actuation_retries=actuator.retries,
            actuation_verify_failures=actuator.verify_failures,
            safety_events=events if self.safety is not None else None,
            budget_excursions=stack.guard.excursions if stack.guard else 0,
            guard_rungs=dict(stack.guard.rungs_taken) if stack.guard else {},
        )
