"""Reference implementations the decision core is held bit-exact against.

``_increase_loop`` and ``_classify_loop`` are the original per-unit Python
walks of Algorithm 1's increase pass and Algorithm 2's flag transitions.
The product (``repro.core.stateless._increase``,
``repro.core.priority.PriorityModule._classify``) replays them as whole-
array passes; these stay as the readable, obviously-sequential definition
the equivalence suite in ``test_decision_core.py`` compares against.  They
are test fixtures, not product: nothing in ``src/`` can select them.

:func:`loop_core` swaps both in (and forces the Python peak walk) for the
duration of a reference run; :func:`no_native` only disables the compiled
peak kernel.  Both are context managers rather than fixtures so they can
wrap a single Hypothesis example.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import _native, stateless
from repro.core.priority import PriorityModule


def _increase_loop(
    caps: np.ndarray,
    want: np.ndarray,
    order: np.ndarray,
    avail: float,
    max_cap_w: float,
    inc_factor: float,
    changed: np.ndarray,
    scratch: dict,
) -> float:
    """Per-unit increase walk (the test oracle); mutates caps/changed."""
    del scratch
    for u in order:
        if not want[u] or avail <= 0.0:
            continue
        target = min(caps[u] * inc_factor, max_cap_w)
        grow = min(target - caps[u], avail)
        if grow <= 0.0:
            continue
        caps[u] += grow
        avail -= grow
        changed[u] = True
    return avail


def _classify_loop(self, derivs: np.ndarray) -> None:
    """Per-unit flag walk (the equivalence-test oracle)."""
    cfg = self.config
    pp_counts = self._pp
    stds = self._std
    high_freq = self._high_freq
    priority = self._priority
    for u in range(self.n_units):
        if self.use_frequency:
            if not high_freq[u]:
                if pp_counts[u] > cfg.pp_threshold:
                    high_freq[u] = True
                    priority[u] = True
                    continue
            else:
                if (
                    pp_counts[u] < cfg.pp_threshold
                    and stds[u] < cfg.std_threshold
                ):
                    high_freq[u] = False
                    priority[u] = False
                # Either way a (former) high-frequency unit skips the
                # derivative check this step (Algorithm 2 lines 10-15).
                continue

        # Low-frequency unit: classify by the average first derivative
        # over the last `deriv_window` samples.
        if derivs[u] > cfg.deriv_inc_threshold:
            priority[u] = True
        elif derivs[u] < cfg.deriv_dec_threshold:
            priority[u] = False
        # Otherwise: keep the previous priority (hysteresis).


@contextlib.contextmanager
def no_native():
    """Run the body as a host without a C compiler would."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_cache", {"resolved": True, "fn": None})
        yield


@contextlib.contextmanager
def loop_core():
    """Run the body on the per-unit oracles and the Python peak walk."""
    with no_native(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateless, "_increase", _increase_loop)
        mp.setattr(PriorityModule, "_classify", _classify_loop)
        yield
