"""A host-independent cost gate on the 20-unit testbed cycle.

At the paper's scale (10 nodes x 2 sockets) a control cycle does almost no
arithmetic: its cost is the number of Python-level calls it makes, and
that number repeats exactly from run to run on one interpreter.  So it
can gate where milliseconds cannot.

The budgets stand for one rule on the per-cycle path of ``workloads/``,
``cluster/`` and ``powercap/`` (docs/simulation.md, "One control step"):
reductions and clamps are spelled as ndarray methods or ufunc calls,
never as NumPy's Python wrappers, each of which is three to five
profiled calls around the one that does the work.  What a trip of this
gate most likely means, by name:

* ``np.clip(x, lo, hi)`` for ``x.clip(lo, hi)`` — or, on a scalar,
  for ``min(max(x, lo), hi)``;
* ``np.mean(x)`` for ``np.add.reduce(x) / n``; ``np.sum`` or ``x.sum()``
  for ``np.add.reduce(x)``; ``np.min``/``np.max`` for the methods;
* ``np.any(x < 0)`` / ``np.all(np.isfinite(x))`` for one reduction
  (``np.fmin.reduce(...) < 0``, ``np.isfinite(x).all()``);
* ``np.searchsorted`` on a scalar for ``bisect``; ``np.full`` for
  ``np.empty`` plus a fill, every cycle;
* a property (``in_gap``, ``n_units``, ``runs_completed``) or a config
  chain (``self.cluster_spec.idle_power_w``) read inside the loop, a
  generator expression as the loop condition;
* the same vector validated again by the layer it is handed to.

Measured on Python 3.11.7 + NumPy 2.4: 225.1 / 240.8 / 317.0 calls per
cycle (constant / slurm / dps) before the rewrite, 125-128 / 141-144 /
217-220 after.  Spelling the manager's budget sum and each workload's
energy sum as ``np.add.reduce`` took 120.7 / 131.8 / 211.1 to
114.8 / 125.8 / 205.1 (Python 3.11.7, NumPy 2.4).  The headroom is for other
interpreters of the CI matrix, not for new wrappers.

With the plant's RAPL step, progress rate and meter read compiled
(``_native.kernels()``), the counts are 123.8 / 134.3 / 213.3 with the
kernels and 116.4 / 133.6 / 245.6 without them (``-o
usefixtures=no_native``), against 114.9 / 127.1 / 205.1 and
110.4 / 127.5 / 239.5 before (Python 3.11.7, NumPy 2.4.6).  The compiled
path makes more profiled calls and takes less time: each pass is one
ctypes call plus ``ctypes.c_char.from_buffer``/``addressof`` per array it
was handed, about 0.3 µs each, where the NumPy passes were ufunc
dispatches cProfile does not count.  One budget covers both paths, and
the fallback, the larger, still meets it.
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro import (
    Assignment,
    ClusterSpec,
    Simulation,
    SimulationConfig,
    create_manager,
    get_workload,
)

#: Profiled calls per control cycle a manager's leg may cost.
CALL_BUDGET = {"constant": 160, "slurm": 175, "dps": 255}


@pytest.mark.parametrize("manager", sorted(CALL_BUDGET))
def test_calls_per_cycle(manager):
    spec = ClusterSpec()
    per = spec.n_units // 2
    sim = Simulation(
        spec,
        create_manager(manager),
        [
            Assignment(get_workload(name), np.arange(k * per, (k + 1) * per))
            for k, name in enumerate(("lda", "linear"))
        ],
        sim_config=SimulationConfig(time_scale=0.5),
        seed=12000,
    )
    profile = cProfile.Profile()
    result = profile.runcall(sim.run)
    assert not result.truncated and result.steps > 500
    calls = pstats.Stats(profile).total_calls / result.steps
    assert calls <= CALL_BUDGET[manager], (
        f"{manager}: {calls:.1f} profiled calls per cycle, budget "
        f"{CALL_BUDGET[manager]} (see this module's docstring)"
    )
