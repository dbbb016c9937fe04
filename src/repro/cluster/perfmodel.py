"""Cap-to-performance model (DESIGN.md §2; paper §3 premise).

The paper's premise is that meeting a node's power demand yields full
performance while capping below demand costs performance (compute-bound
units most of all).  RAPL meets a cap by lowering frequency and voltage;
with dynamic power roughly cubic in frequency and performance linear in it,
performance is a concave function of the granted dynamic power.  We model a
capped unit's *progress rate* (fraction of full speed) as::

    rate(cap, demand) = ((cap - idle) / (demand - idle)) ** (1 / theta)

for ``cap < demand``, else 1 — clipped to ``[min_rate, 1]``.  ``theta = 2``
gives the square-root power/performance curve typical of DVFS; ``theta = 1``
is the linear (harshest) model used as an ablation.
"""

from __future__ import annotations

import numpy as np

from repro.core import _native
from repro.core.config import PerfModelConfig

__all__ = ["progress_rate"]


def progress_rate(
    cap_w: np.ndarray | float,
    demand_w: np.ndarray | float,
    config: PerfModelConfig | None = None,
) -> np.ndarray:
    """Progress rate of units given their caps and uncapped demands.

    Args:
        cap_w: per-unit power caps (W); scalar or array.
        demand_w: per-unit uncapped demands (W); same shape as ``cap_w``.
        config: model parameters; defaults to :class:`PerfModelConfig`.

    Returns:
        Array of rates in ``[min_rate, 1]``, broadcast over the inputs.
    """
    cfg = config or PerfModelConfig()
    cap = np.asarray(cap_w, dtype=np.float64)
    demand = np.asarray(demand_w, dtype=np.float64)
    kernels = _native.kernels()
    # NumPy's x ** 0.5 is sqrt and x ** 1.0 is x; any other exponent is
    # its vector power, which the C library's pow does not reproduce.
    exponent = 1.0 / cfg.theta
    if (
        kernels is None
        or exponent not in (0.5, 1.0)
        or cap.ndim != 1
        or cap.shape != demand.shape
        or not cap.size
    ):
        return _progress_rate(cap, demand, cfg)
    # Both are n float64 by the checks above; the kernel also needs them
    # adjacent.
    cap = np.ascontiguousarray(cap)
    demand = np.ascontiguousarray(demand)
    rate = np.empty(cap.shape[0])
    at = _native.address
    bad = kernels.progress_rate(
        at(cap),
        at(demand),
        at(rate),
        cap.shape[0],
        cfg.idle_power_w,
        exponent == 0.5,
        cfg.min_rate,
    )
    if bad >= 0:
        raise ValueError("caps and demands must be >= 0")
    return rate


def _progress_rate(
    cap: np.ndarray, demand: np.ndarray, cfg: PerfModelConfig
) -> np.ndarray:
    """:func:`progress_rate` in NumPy passes: the compiled pass's
    fallback, and the only form for inputs of another shape and for a
    ``theta`` other than 1 or 2."""
    # "Any element < 0" as one reduction: fmin skips a NaN, as the
    # elementwise comparison does, and ``initial`` covers an empty input.
    if (
        np.fmin.reduce(cap, axis=None, initial=0.0) < 0
        or np.fmin.reduce(demand, axis=None, initial=0.0) < 0
    ):
        raise ValueError("caps and demands must be >= 0")

    idle = cfg.idle_power_w
    # Units demanding no more than their cap (or no more than idle power —
    # nothing to throttle) run at full speed.
    headroom_cap = np.maximum(cap - idle, 0.0)
    headroom_demand = np.maximum(demand - idle, 1e-9)
    ratio = np.minimum(headroom_cap / headroom_demand, 1.0)
    rate = ratio ** (1.0 / cfg.theta)
    rate = np.where(demand <= np.maximum(cap, idle), 1.0, rate)
    return rate.clip(cfg.min_rate, 1.0)
