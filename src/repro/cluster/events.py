"""The simulator's outage schedule.

A run's events themselves are :class:`~repro.telemetry.log.ResilienceEvent`
records in the run's one :class:`~repro.telemetry.log.ResilienceEventLog`;
this module holds only the input that schedules node outages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NodeFailureEvent"]


@dataclass(frozen=True)
class NodeFailureEvent:
    """A scheduled node crash (and optional recovery) for the simulator.

    While a node is down its units draw no power (the machine is off) and
    their meters read as dropouts (exactly 0.0 W) — the same signature a
    dead host leaves in real telemetry.  On recovery the node resumes from
    cold (idle power, lagging back up under its workload's demand).  The
    windows ``[fail_at_s, recover_at_s)`` of one node must not overlap,
    and both times must fall on the simulation's ``dt_s`` grid
    (:meth:`~repro.cluster.plant.Plant.check`).

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
