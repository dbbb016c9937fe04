"""The replay-floor rule: tick managers, pass records, floor statistics.

A run is ``P`` identical passes.  The program under test is handed a
*tick subclass* of its manager that stamps the clocks around every
``step`` and keeps the returned caps; because passes are identical
(asserted by digest), cycle *i* does the same work in every pass and
its time is the minimum over passes.  Every timing metric is a
statistic of those per-cycle floors.
"""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro import ClusterSpec, create_manager

#: Cycles run and discarded before timing starts in every scenario
#: (longer than the 20-step power history, so filters and flags settle).
WARMUP_CYCLES = 25

#: End-to-end metrics and their units; BENCHMARK.json holds the bounds.
E2E_UNITS = {
    "setup_s": "s",
    "cycles_per_s": "1/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p90": "ms",
    "cpu_ms_per_cycle": "ms",
    "peak_rss_mb": "MB",
}


class TickLog:
    """Clock stamps and cap vectors collected by one tick manager."""

    def __init__(self) -> None:
        self.wall_in: list[float] = []
        self.wall_out: list[float] = []
        self.cpu_in: list[float] = []
        self.cpu_out: list[float] = []
        self.caps: list[np.ndarray] = []
        #: (high-priority share, restored) per step; traced runs only.
        self.observed: list[tuple[float, bool]] = []

    def entry_to_entry(
        self, warmup: int, end_wall: float, end_cpu: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Timed cycles of a simulation: stamp *i* to stamp *i+1*, one
        full loop of physics, meter, decide, guard, actuate and journal.
        The last cycle closes at ``end_*`` (when ``run()`` returned).

        Returns:
            ``(wall_s, cpu_s, windows)``; windows is ``(n, 2)`` wall
            start/end of each timed cycle.
        """
        wall = np.asarray(self.wall_in[warmup:] + [end_wall])
        cpu = np.asarray(self.cpu_in[warmup:] + [end_cpu])
        return (
            np.diff(wall),
            np.diff(cpu),
            np.column_stack([wall[:-1], wall[1:]]),
        )

    def bracketed(
        self, warmup: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Timed cycles of a bare decide loop: the stamps around each
        ``step`` call (inputs are generated between calls, untimed)."""
        wall_in = np.asarray(self.wall_in[warmup:])
        wall_out = np.asarray(self.wall_out[warmup:])
        cpu = np.asarray(self.cpu_out[warmup:]) - np.asarray(
            self.cpu_in[warmup:]
        )
        return wall_out - wall_in, cpu, np.column_stack([wall_in, wall_out])


def tick_manager(name: str, log: TickLog, observe: bool = False):
    """A default-configured manager whose ``step`` stamps into ``log``.

    The subclass is built from whatever class ``create_manager(name)``
    returns and constructed with no arguments, so the benchmark sets no
    product knob: a later change of the defaults is what gets measured.

    Args:
        name: manager registry name.
        log: receives the stamps and the returned cap vectors.
        observe: also record the priority share and restore flag after
            each step (traced runs; costs time inside the cycle).
    """
    base = type(create_manager(name))
    base_step = base.step
    wall_in, wall_out = log.wall_in.append, log.wall_out.append
    cpu_in, cpu_out = log.cpu_in.append, log.cpu_out.append
    keep = log.caps.append

    def step(self, power_w, demand_w=None):
        cpu_in(process_time())
        wall_in(perf_counter())
        caps = base_step(self, power_w, demand_w)
        wall_out(perf_counter())
        cpu_out(process_time())
        keep(caps)
        if observe:
            info = getattr(self, "last_info", None)
            if info is not None:
                log.observed.append(
                    (float(np.mean(info.priority)), bool(info.restored))
                )
        return caps

    return type(f"Tick{base.__name__}", (base,), {"step": step})()


class CapsAudit:
    """Folds cap vectors into a SHA-256 and counts contract breaches.

    A cap vector breaches when any cap is non-finite or outside
    ``[min_cap_w, tdp_w]``, or the caps sum above the budget.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self._sha = hashlib.sha256()
        self._lo = spec.min_cap_w
        self._hi = spec.tdp_w
        self._limit = spec.budget_w * (1.0 + 1e-9)
        self.breaches = 0

    def fold(self, caps: list[np.ndarray]) -> None:
        """Consume (and clear) a list of cap vectors."""
        if not caps:
            return
        block = np.stack(caps)
        caps.clear()
        self._sha.update(block.tobytes())
        # NaN fails every comparison, so non-finite caps count too.
        ok = (
            (block.min(axis=1) >= self._lo)
            & (block.max(axis=1) <= self._hi)
            & (block.sum(axis=1) <= self._limit)
        )
        self.breaches += int(ok.size - np.count_nonzero(ok))

    def note(self, text: str) -> None:
        """Fold any other program output (durations, counts) in."""
        self._sha.update(text.encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class PassRecord:
    """What one pass of a workload produced.

    Attributes:
        setup_s: scenario construction to the first timed cycle.
        wall_s: wall time of each timed cycle.
        cpu_s: process CPU time of each timed cycle.
        digest: SHA-256 over every cap vector and result of the pass.
        breaches: cycles whose caps or events broke the contract.
        windows: ``(n, 2)`` wall start/end of each timed cycle.
        extras: scenario-specific outputs (durations, counters).
    """

    setup_s: float
    wall_s: np.ndarray
    cpu_s: np.ndarray
    digest: str
    breaches: int
    windows: np.ndarray
    extras: dict = field(default_factory=dict)


def floor_metrics(passes: list[PassRecord]) -> dict[str, float]:
    """The timing metrics of a run: statistics of the per-cycle floors.

    All passes must hold the same number of timed cycles.
    """
    wall = np.vstack([p.wall_s for p in passes]).min(axis=0)
    cpu = np.vstack([p.cpu_s for p in passes]).min(axis=0)
    return {
        "setup_s": min(p.setup_s for p in passes),
        "cycles_per_s": wall.size / float(wall.sum()),
        "cycle_ms_p50": float(np.median(wall)) * 1e3,
        "cycle_ms_p90": float(np.percentile(wall, 90)) * 1e3,
        "cpu_ms_per_cycle": float(cpu.sum()) / cpu.size * 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
