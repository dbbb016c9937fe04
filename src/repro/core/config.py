"""Configuration dataclasses for every DPS module and the simulation substrate.

All configs are frozen dataclasses so that experiment descriptions are
hashable, comparable, and safe to share between runs.  Every numeric default
follows the paper where the paper gives a value (history of 20 steps, 1 s
decision loop, 165 W TDP, 110 W constant cap, 66.7 % cluster budget); values
the paper leaves unspecified (MIMD thresholds, peak prominence) are chosen to
match the published qualitative behaviour and are exposed for ablation.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

import numpy as np


def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def _fraction(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")


@dataclass(frozen=True)
class StatelessConfig:
    """Parameters of the MIMD stateless allocator (paper Algorithm 1).

    The SLURM power plugin this module mirrors raises a unit's cap
    multiplicatively when the unit runs close to its cap and lowers it
    multiplicatively (or directly to the observed power) when the unit runs
    well below its cap.

    Attributes:
        inc_threshold: fraction of the current cap above which the unit is
            considered power-hungry and its cap is raised.
        dec_threshold: fraction of the current cap below which the unit is
            considered over-provisioned and its cap is lowered.
        inc_factor: multiplicative cap increase (> 1).
        dec_factor: multiplicative cap decrease (< 1).
    """

    inc_threshold: float = 0.95
    dec_threshold: float = 0.85
    inc_factor: float = 1.10
    dec_factor: float = 0.90

    def __post_init__(self) -> None:
        _fraction("inc_threshold", self.inc_threshold)
        _fraction("dec_threshold", self.dec_threshold)
        if self.dec_threshold >= self.inc_threshold:
            raise ValueError(
                "dec_threshold must be below inc_threshold "
                f"({self.dec_threshold} >= {self.inc_threshold})"
            )
        if self.inc_factor <= 1.0:
            raise ValueError(f"inc_factor must be > 1, got {self.inc_factor}")
        if not 0.0 < self.dec_factor < 1.0:
            raise ValueError(f"dec_factor must be in (0, 1), got {self.dec_factor}")


@dataclass(frozen=True)
class KalmanConfig:
    """Parameters of the per-unit 1-D Kalman filter (paper §4.3.2).

    Attributes:
        process_var: variance of the power random walk between steps (W²).
            Larger values track fast demand changes more aggressively.
        measurement_var: variance of the RAPL measurement noise (W²).
        initial_var: initial estimation uncertainty (W²).
    """

    process_var: float = 25.0
    measurement_var: float = 4.0
    initial_var: float = 100.0

    def __post_init__(self) -> None:
        _positive("process_var", self.process_var)
        _positive("measurement_var", self.measurement_var)
        _positive("initial_var", self.initial_var)


@dataclass(frozen=True)
class PriorityConfig:
    """Parameters of the priority module (paper Algorithm 2).

    Attributes:
        history_len: length of the estimated power history kept per unit
            (paper default: 20 steps).
        deriv_window: number of recent steps spanned by the first-derivative
            estimate (``direv_length`` in Algorithm 2).
        deriv_inc_threshold: derivative (W/s) above which a unit becomes
            high priority.  Must be small: a unit whose demand rises while
            it is capped can only show the few watts between its old power
            and its cap — the Kalman filter exists precisely so such small
            slopes are trustworthy despite measurement noise.
        deriv_dec_threshold: derivative (W/s) below which a unit becomes
            low priority (must be negative).
        peak_prominence: minimum prominence (W) for a local maximum in the
            power history to count as a *prominent peak*.
        pp_threshold: number of prominent peaks in the history above which
            the unit is flagged as a high-frequency unit.  A 20-step
            history spans at most ~2-3 peaks of a sub-10 s-period workload
            (the paper's LR), so the default is 1: two peaks in one window
            already mean the manager cannot track the phases.
        std_threshold: power-history standard deviation (W) that must also be
            undercut before a high-frequency flag is cleared.
        deriv_method: first-derivative estimator — ``"endpoints"`` is the
            paper's Algorithm 2 line 16 (last minus first over the window);
            ``"lsq"`` fits a least-squares slope over the window, which
            averages noise across every sample instead of just two.
    """

    history_len: int = 20
    deriv_window: int = 4
    deriv_inc_threshold: float = 1.8
    deriv_dec_threshold: float = -1.8
    deriv_method: str = "endpoints"
    peak_prominence: float = 20.0
    pp_threshold: int = 1
    std_threshold: float = 12.0

    def __post_init__(self) -> None:
        if self.history_len < 3:
            raise ValueError(f"history_len must be >= 3, got {self.history_len}")
        if not 2 <= self.deriv_window <= self.history_len:
            raise ValueError(
                "deriv_window must be in [2, history_len], got "
                f"{self.deriv_window} (history_len={self.history_len})"
            )
        _positive("deriv_inc_threshold", self.deriv_inc_threshold)
        if self.deriv_dec_threshold >= 0:
            raise ValueError(
                f"deriv_dec_threshold must be negative, got {self.deriv_dec_threshold}"
            )
        _positive("peak_prominence", self.peak_prominence)
        if self.pp_threshold < 1:
            raise ValueError(f"pp_threshold must be >= 1, got {self.pp_threshold}")
        _positive("std_threshold", self.std_threshold)
        if self.deriv_method not in ("endpoints", "lsq"):
            raise ValueError(
                "deriv_method must be 'endpoints' or 'lsq', got "
                f"{self.deriv_method!r}"
            )


@dataclass(frozen=True)
class ReadjustConfig:
    """Parameters of the cap-readjusting module (paper Algorithms 3-4).

    Attributes:
        restore_threshold: fraction of the constant (initial) cap; if *every*
            unit draws less than ``restore_threshold * initial_cap`` the caps
            of all units are restored to the constant cap (Algorithm 3).
        budget_epsilon: leftover budget (W) below which the budget is treated
            as exhausted and the equalize branch of Algorithm 4 runs.  At
            least the smallest normal float: the water-fill's leftover
            shrinks ~1e-16-fold per pass that clips nobody, and under a zero
            or subnormal threshold it can stall on shares that round to 0.
    """

    restore_threshold: float = 0.80
    budget_epsilon: float = 1.0

    def __post_init__(self) -> None:
        _fraction("restore_threshold", self.restore_threshold)
        if not self.budget_epsilon >= sys.float_info.min:
            raise ValueError(
                f"budget_epsilon must be >= {sys.float_info.min}, "
                f"got {self.budget_epsilon!r}"
            )


@dataclass(frozen=True)
class DPSConfig:
    """Complete configuration of the DPS manager (paper §4).

    Composes the stateless, Kalman-filter, priority, and cap-readjusting
    module configurations, plus two switches used by the ablation benches.

    Attributes:
        use_kalman: feed the stateless and priority modules the Kalman
            estimate instead of the raw measurement (ablation 1 in DESIGN.md).
        use_frequency: enable high-frequency detection in the priority module
            (ablation 2); when False only the derivative classifies units.
    """

    stateless: StatelessConfig = field(default_factory=StatelessConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    priority: PriorityConfig = field(default_factory=PriorityConfig)
    readjust: ReadjustConfig = field(default_factory=ReadjustConfig)
    use_kalman: bool = True
    use_frequency: bool = True

    def replace(self, **changes: object) -> "DPSConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ClusterSpec:
    """Topology and budget of the overprovisioned system (paper §5.1).

    Defaults model the Chameleon testbed: 10 client nodes, dual-socket
    Xeon Gold 6240 (TDP 165 W/socket), cluster-wide 66.7 % power limit,
    which yields the paper's 110 W/socket constant cap.

    Attributes:
        n_nodes: number of compute nodes.
        sockets_per_node: power-capping units per node.
        tdp_w: thermal design power of one unit (W) — the maximum cap.
        min_cap_w: lowest cap a unit accepts (RAPL lower clamp).
        budget_fraction: cluster budget as a fraction of aggregate TDP.
        idle_power_w: power drawn by a unit with no workload assigned.
    """

    n_nodes: int = 10
    sockets_per_node: int = 2
    tdp_w: float = 165.0
    min_cap_w: float = 30.0
    budget_fraction: float = 2.0 / 3.0
    idle_power_w: float = 12.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.sockets_per_node < 1:
            raise ValueError(
                f"sockets_per_node must be >= 1, got {self.sockets_per_node}"
            )
        _positive("tdp_w", self.tdp_w)
        _fraction("budget_fraction", self.budget_fraction)
        if not 0 <= self.min_cap_w < self.tdp_w:
            raise ValueError(
                f"min_cap_w must be in [0, tdp_w), got {self.min_cap_w}"
            )
        if not 0 <= self.idle_power_w < self.tdp_w:
            raise ValueError(
                f"idle_power_w must be in [0, tdp_w), got {self.idle_power_w}"
            )

    @property
    def n_units(self) -> int:
        """Total number of power-capping units in the cluster."""
        return self.n_nodes * self.sockets_per_node

    @property
    def budget_w(self) -> float:
        """Cluster-wide power budget in watts."""
        return self.n_units * self.tdp_w * self.budget_fraction

    @property
    def constant_cap_w(self) -> float:
        """Per-unit cap under constant allocation (budget evenly divided)."""
        return self.budget_w / self.n_units

    def half_unit_ids(self, half: int) -> np.ndarray:
        """Global unit indices of the first (``half=0``) or second half of
        the nodes: the paper runs "two clusters in parallel" (§5.2), two
        workloads on a half each under one budget.  An odd node count
        gives half 1 the extra node."""
        if half not in (0, 1):
            raise ValueError(f"half must be 0 or 1, got {half}")
        split = self.n_nodes // 2
        first, stop = (0, split) if half == 0 else (split, self.n_nodes)
        if first == stop:
            raise ValueError("cluster too small to split into two halves")
        per = self.sockets_per_node
        return np.arange(first * per, stop * per, dtype=np.intp)


@dataclass(frozen=True)
class PerfModelConfig:
    """Cap-to-performance model of a capped unit (DESIGN.md §2).

    When a unit's demand exceeds its cap, RAPL lowers frequency/voltage until
    the limit is met; performance then follows a concave function of the
    dynamic power.  We model the progress rate of a capped unit as::

        rate = ((cap - idle) / (demand - idle)) ** (1 / theta)

    clipped to ``[min_rate, 1]``.  ``theta = 2`` approximates the square-root
    performance/dynamic-power relationship of DVFS; ``theta = 1`` makes
    performance linear in power (harsher capping penalty).

    Attributes:
        idle_power_w: static power floor subtracted before scaling.
        theta: concavity of the power/performance curve (>= 1).
        min_rate: lower clamp on progress rate (a capped unit never stalls
            completely; there is always leakage-level forward progress).
    """

    idle_power_w: float = 12.0
    theta: float = 2.0
    min_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.idle_power_w < 0:
            raise ValueError(f"idle_power_w must be >= 0, got {self.idle_power_w}")
        if self.theta < 1.0:
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        if not 0 < self.min_rate <= 1:
            raise ValueError(f"min_rate must be in (0, 1], got {self.min_rate}")


@dataclass(frozen=True)
class RaplConfig:
    """Behaviour of the simulated RAPL domain (DESIGN.md §2, §6).

    Attributes:
        noise_std_w: standard deviation of the Gaussian measurement noise
            added when power is derived from the energy counter (W).
        lag_tau_s: time constant of the first-order lag with which true
            power approaches its target (demand clipped at cap).
        counter_wrap_uj: value at which the µJ energy counter wraps
            (``max_energy_range_uj`` in the sysfs powercap ABI).
    """

    noise_std_w: float = 1.5
    lag_tau_s: float = 0.8
    counter_wrap_uj: int = 262_143_328_850

    def __post_init__(self) -> None:
        if self.noise_std_w < 0:
            raise ValueError(f"noise_std_w must be >= 0, got {self.noise_std_w}")
        if self.lag_tau_s <= 0:
            raise ValueError(f"lag_tau_s must be > 0, got {self.lag_tau_s}")
        if self.counter_wrap_uj <= 0:
            raise ValueError(
                f"counter_wrap_uj must be > 0, got {self.counter_wrap_uj}"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """Global knobs of the discrete-time engine.

    Attributes:
        dt_s: control-loop period (paper: 1 s decision loop).
        time_scale: multiplier applied to all workload durations; < 1 shrinks
            experiments while preserving phase structure and power-class
            fractions (DESIGN.md §2, last row).
        max_steps: hard step limit guarding against non-terminating runs.
        inter_run_gap_s: idle gap between back-to-back repeats of a workload
            (emulates job launch time; makes short NPB apps look phased,
            reproducing the §6.3 observation).
        duration_jitter_std: lognormal sigma of a per-run execution-speed
            factor, modelling the run-to-run Spark variance the paper
            repeats >= 10 times to average out (§6.1: runs "demonstrate
            such variable performance between different runs under the
            same execution condition").  Default 0 (deterministic runs);
            the variance bench enables it.
    """

    dt_s: float = 1.0
    time_scale: float = 1.0
    max_steps: int = 500_000
    inter_run_gap_s: float = 5.0
    duration_jitter_std: float = 0.0

    def __post_init__(self) -> None:
        _positive("dt_s", self.dt_s)
        _positive("time_scale", self.time_scale)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.inter_run_gap_s < 0:
            raise ValueError(
                f"inter_run_gap_s must be >= 0, got {self.inter_run_gap_s}"
            )
        if self.duration_jitter_std < 0:
            raise ValueError(
                "duration_jitter_std must be >= 0, got "
                f"{self.duration_jitter_std}"
            )
