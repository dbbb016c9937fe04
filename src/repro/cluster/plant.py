"""The simulated plant: the cluster, its workloads and their outages.

Paper §5.1's testbed, without the controller: whatever programs the caps
(an actuator, or a caller writing the bank) acts between two steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.events import NodeFailureEvent
from repro.cluster.perfmodel import progress_rate
from repro.core.config import ClusterSpec, PerfModelConfig, SimulationConfig
from repro.powercap.faults import FaultConfig
from repro.telemetry.log import Clock, ResilienceEventLog
from repro.workloads.runtime import WorkloadExecution
from repro.workloads.spec import WorkloadSpec

__all__ = ["Assignment", "Plant"]


@dataclass(frozen=True)
class Assignment:
    """One workload placed on a slice of the cluster.

    Attributes:
        spec: the workload.
        unit_ids: global unit indices of its cluster half.
    """

    spec: WorkloadSpec
    unit_ids: np.ndarray


class Plant:
    """The cluster's hardware, one running workload per assignment (one
    generator each in ``rngs``; units in no slice idle) and the scheduled
    node ``failures``: a down node's units draw nothing, its workload
    stalls and its readings are dropouts (0.0 W).  ``fault_config`` sets
    measurement faults on every unit, rolled from ``fault_rngs`` (one per
    unit).

    After a :meth:`step`, :attr:`demand`, :attr:`caps_in_effect` and
    :attr:`true_power` hold that interval's vectors, and :attr:`completed`
    each workload's finished runs.  :attr:`events` is the run's one event
    log, stamped with :attr:`now`.
    """

    def __init__(
        self,
        cluster: Cluster,
        assignments: Sequence[Assignment],
        rngs: Sequence[np.random.Generator],
        sim_config: SimulationConfig | None = None,
        perf_config: PerfModelConfig | None = None,
        failures: Sequence[NodeFailureEvent] = (),
        fault_config: FaultConfig | None = None,
        fault_rngs: Sequence[np.random.Generator] = (),
    ) -> None:
        spec = cluster.spec
        sim = sim_config or SimulationConfig()
        self.check(spec, assignments, failures, sim.dt_s)
        self.cluster = cluster
        self.perf_config = perf_config or PerfModelConfig()
        if fault_config is not None:
            cluster.bank.set_faults(fault_config, fault_rngs)
        self.executions = [
            WorkloadExecution(
                spec=a.spec,
                unit_ids=a.unit_ids,
                rng=rng,
                time_scale=sim.time_scale,
                inter_run_gap_s=sim.inter_run_gap_s,
                idle_power_w=spec.idle_power_w,
                max_demand_w=spec.tdp_w,
                duration_jitter_std=sim.duration_jitter_std,
            )
            for a, rng in zip(assignments, rngs)
        ]
        self._clock = Clock()
        #: The run's events, in the order they happened, stamped with
        #: :attr:`now`.
        self.events = ResilienceEventLog(self._clock)
        for e in self.executions:
            self.events.emit("run_started", workload=e.spec.name)
        self.completed = [0] * len(self.executions)
        self.demand = np.full(cluster.n_units, spec.idle_power_w)
        self.caps_in_effect: np.ndarray | None = None
        self.true_power: np.ndarray | None = None
        self._idle_w = spec.idle_power_w
        # Each outage window, in fail order, with its transitions to come.
        self._windows = [
            (f.node_id, [(f.fail_at_s, "node_failed")] + (
                [(f.recover_at_s, "node_recovered")]
                if f.recover_at_s is not None else []
            ))
            for f in sorted(failures, key=lambda f: f.fail_at_s)
        ]
        self._down: set[int] = set()
        self._down_units: np.ndarray | None = None
        self._next_s = min((f.fail_at_s for f in failures), default=math.inf)

    @property
    def now(self) -> float:
        """Simulated seconds at the end of the last step."""
        return self._clock.now

    @staticmethod
    def check(
        spec: ClusterSpec,
        assignments: Sequence[Assignment],
        failures: Sequence[NodeFailureEvent],
        dt_s: float,
    ) -> None:
        """Raise ValueError for a failure off the cluster, an outage time
        that is not a whole number of ``dt_s`` steps (to a relative 1e-9:
        a step cannot start or end inside itself), two outage windows of
        one node that overlap (windows are half-open, and a permanent one
        never ends), or a bad placement."""
        windows: dict[int, tuple[float, float]] = {}
        for nf in sorted(failures, key=lambda f: (f.node_id, f.fail_at_s)):
            if nf.node_id >= spec.n_nodes:
                raise ValueError(
                    f"failure schedules node {nf.node_id} but the cluster "
                    f"has {spec.n_nodes} nodes"
                )
            for t in (nf.fail_at_s, nf.recover_at_s):
                if t is not None and not math.isclose(round(t / dt_s) * dt_s, t):
                    raise ValueError(
                        f"node {nf.node_id}: outage time {t} s is not a "
                        f"whole number of {dt_s} s steps"
                    )
            end = nf.recover_at_s if nf.recover_at_s is not None else math.inf
            last = windows.get(nf.node_id)
            if last is not None and nf.fail_at_s < last[1]:
                raise ValueError(
                    f"node {nf.node_id}: outage windows [{last[0]}, {last[1]}) "
                    f"and [{nf.fail_at_s}, {end}) overlap"
                )
            windows[nf.node_id] = (nf.fail_at_s, end)
        seen: set[int] = set()
        names: set[str] = set()
        n_units = spec.n_units
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
            if max(ids) >= n_units or min(ids) < 0:
                raise ValueError(
                    f"{a.spec.name}: unit ids out of range [0, {n_units})"
                )
            seen |= ids

    def step(self, dt: float) -> np.ndarray:
        """Advance one interval of ``dt`` s; return the meters' readings."""
        # 0. Scheduled node failures/recoveries crossing this step.
        if self.now + 0.5 * dt > self._next_s:
            self._fire_outages(dt)
        down = self._down_units

        # 1. Demands from every workload; unassigned units idle.
        demand = self.demand
        demand.fill(self._idle_w)
        for e in self.executions:
            demand[e.unit_ids] = e.demand()
        if down is not None:
            demand[down] = 0.0  # A dead machine draws nothing.

        # 2. Physics under the caps currently in effect.
        caps = self.caps_in_effect = self.cluster.caps_w()
        true_power = self.true_power = self.cluster.step_physics(demand, dt)
        self._clock.now = now = self._clock.now + dt

        # 3. Progress under those caps; a dead node's workload stalls.
        rates = progress_rate(caps, demand, self.perf_config)
        if down is not None:
            rates[down] = 0.0
        completed = self.completed
        for k, e in enumerate(self.executions):
            e.advance(rates[e.unit_ids], true_power[e.unit_ids], dt, now)
            done = len(e.records)
            if done > completed[k]:
                completed[k] = done
                self.events.emit(
                    "run_completed", workload=e.spec.name, detail=f"run {done}"
                )

        # 4. Measure; a dead host's telemetry is a dropout, not a number.
        readings = self.cluster.read_powers_w(dt)
        if down is not None:
            readings[down] = 0.0
        return readings

    def _fire_outages(self, dt: float) -> None:
        """Fire the outage transitions due by now, in fail order.  Times
        sit on the step grid (:meth:`check`), so each fires at its own
        time, whatever rounding ``now`` gathered, and a window has at
        most one due per step."""
        due_by, nodes = self.now + 0.5 * dt, self.cluster.nodes
        for node, pending in self._windows:
            if not pending or pending[0][0] >= due_by:
                continue
            _, kind = pending.pop(0)
            if kind == "node_failed":
                self._down.add(node)
                for sock in nodes[node].sockets:
                    sock.domain.power_off()
            else:
                self._down.discard(node)
            self.events.emit(kind, node_id=node, detail=f"node={node}")
        due = [pending[0][0] for _, pending in self._windows if pending]
        self._next_s = min(due, default=math.inf)
        down = [u for node in self._down for u in nodes[node].unit_ids]
        self._down_units = np.asarray(down, dtype=np.intp) if down else None
