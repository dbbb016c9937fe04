"""Reference implementations the decision core is held bit-exact against.

``_decrease_loop``, ``_increase_loop``, ``_kalman_loop`` and
``_classify_loop`` are the per-unit Python walks that *define* Algorithm
1's two passes, the scalar Kalman step and Algorithm 2's flag transitions.
The product runs each of them twice over: as a compiled transcription in
``repro/core/_peaks_kernel.c`` and, where no C compiler is to be had, as
whole-array NumPy passes (``repro.core.stateless._decrease`` /
``_increase``, ``KalmanBank._filter``, ``PriorityModule._classify``).
These walks stay as the readable, obviously-sequential definition the
equivalence suite in ``test_decision_core.py`` compares both against.
They are test fixtures, not product: nothing in ``src/`` can select them.

:func:`no_native` runs the body as a host without a compiler would (every
kernel off, the NumPy fallbacks and the Python peak walk on);
:func:`loop_core` additionally swaps the walks in for the fallbacks.  Both
are context managers rather than fixtures so they can wrap a single
Hypothesis example.  :func:`overlap` picks, at any size, which of its
two orders ``mimd_step`` runs the draw and ``alongside`` in.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
import pytest

from repro.core import _native, stateless
from repro.core.kalman import KalmanBank
from repro.core.priority import PriorityModule


def _decrease_loop(
    power: np.ndarray,
    caps: np.ndarray,
    changed: np.ndarray,
    min_cap_w: float,
    max_cap_w: float,
    config,
) -> None:
    """Per-unit decrease walk (Alg. 1 lines 5-8); mutates caps/changed."""
    for u in range(caps.shape[0]):
        if power[u] < caps[u] * config.dec_threshold:
            lowered = max(power[u], caps[u] * config.dec_factor)
            lowered = min(max(lowered, min_cap_w), max_cap_w)
            changed[u] = lowered != caps[u]
            caps[u] = lowered


def _increase_loop(
    caps: np.ndarray,
    want: np.ndarray,
    order: np.ndarray,
    avail: float,
    max_cap_w: float,
    inc_factor: float,
    changed: np.ndarray,
) -> float:
    """Per-unit increase walk (the test oracle); mutates caps/changed."""
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


def _kalman_loop(self, z: np.ndarray) -> None:
    """Per-unit scalar Kalman predict/update (Welch & Bishop)."""
    q = self.config.process_var
    r = self.config.measurement_var
    x, p = self._x, self._p
    for u in range(self.n_units):
        p[u] += q
        gain = p[u] / (p[u] + r)
        x[u] += gain * (z[u] - x[u])
        p[u] *= 1.0 - gain


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
    """Run the body as a host without a C compiler would: one patch turns
    every kernel off, since ``_native`` resolves them all or none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_cache", {"resolved": True, "fn": None})
        yield


@contextlib.contextmanager
def loop_core():
    """Run the body on the per-unit oracles and the Python peak walk."""
    with no_native(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateless, "_decrease", _decrease_loop)
        mp.setattr(stateless, "_increase", _increase_loop)
        mp.setattr(KalmanBank, "_filter", _kalman_loop)
        mp.setattr(PriorityModule, "_classify", _classify_loop)
        yield


@contextlib.contextmanager
def overlap(on: bool):
    """Force ``mimd_step`` to draw its order on the helper thread beside
    ``alongside`` (``on``, as on a host with two CPUs) or before it, at
    any unit count; yields the unit counts of the draws the helper was
    handed."""
    handed: list[int] = []
    submit = stateless._DRAWER.submit

    def counting(fn, *args):
        handed.append(args[0])
        return submit(fn, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateless, "OVERLAP_MIN_UNITS", 1 if on else sys.maxsize)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mp.setattr(stateless._DRAWER, "submit", counting)
        yield handed
