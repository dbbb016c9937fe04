"""Vectorized 1-D Kalman filter bank (paper §4.3.2).

DPS treats each unit's true power draw as a hidden variable observed through
noisy RAPL readings.  The paper uses the standard scalar Kalman filter
formulation (Welch & Bishop) with a random-walk process model — the minimum
compute-load filter that still smooths measurement noise.  One filter runs
per power-capping unit; this implementation keeps all of them in flat NumPy
arrays so one control step is one compiled pass over them
(:mod:`repro.core._native`) or, on a host without a C compiler, a handful
of vector operations (:meth:`KalmanBank._filter`) with the same bits --
either way regardless of cluster size (the §6.5 scaling claim).
"""

from __future__ import annotations

import numpy as np

from repro.core import _native
from repro.core.config import KalmanConfig
from repro.recovery.state import encode_array, read_leaf

__all__ = ["KalmanBank"]


class KalmanBank:
    """A bank of independent scalar Kalman filters, one per unit.

    State per unit: estimate ``x`` (W) and estimation variance ``p`` (W²).
    The process model is a random walk (``x_t = x_{t-1} + w``,
    ``w ~ N(0, q)``); the measurement model is direct observation with noise
    variance ``r``.

    Args:
        n_units: number of filters in the bank.
        config: filter parameters; defaults follow :class:`KalmanConfig`.
    """

    def __init__(self, n_units: int, config: KalmanConfig | None = None) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self.config = config or KalmanConfig()
        self.n_units = n_units
        self._x = np.zeros(n_units, dtype=np.float64)
        self._p = np.full(n_units, self.config.initial_var, dtype=np.float64)
        # Both arrays are only ever written in place (reset, restore).
        self._pinned = _native.Pinned(self._x, self._p)
        self._initialized = False

    @property
    def estimate(self) -> np.ndarray:
        """Current power estimates (W), shape ``(n_units,)`` (read-only view)."""
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def variance(self) -> np.ndarray:
        """Current estimation variances (W²), shape ``(n_units,)``."""
        view = self._p.view()
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        """Forget all state; the next update re-initializes the estimates."""
        self._x.fill(0.0)
        self._p.fill(self.config.initial_var)
        self._initialized = False

    def snapshot(self) -> dict:
        """JSON-able document of the complete filter-bank state."""
        return {
            "x": encode_array(self._x),
            "p": encode_array(self._p),
            "initialized": self._initialized,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the bank's state with a snapshot's content."""
        x = read_leaf(state["x"])
        p = read_leaf(state["p"])
        if x.shape != (self.n_units,) or p.shape != (self.n_units,):
            raise ValueError(
                f"snapshot shapes {x.shape}/{p.shape} != ({self.n_units},)"
            )
        self._x[:] = x
        self._p[:] = p
        self._initialized = bool(state["initialized"])

    def update(
        self, measurement: np.ndarray, *, validate: bool = True
    ) -> np.ndarray:
        """Advance every filter one step with the given measurements.

        The first update initializes each estimate directly from the
        measurement (with the configured initial variance) instead of
        filtering against the zero prior, so start-up transients do not
        leak into the power history.

        Args:
            measurement: observed powers (W), shape ``(n_units,)``.
            validate: scan the measurement for non-finite values.  On by
                default for standalone use; callers that already validated
                at their own boundary (``PowerManager.step`` scans every
                reading before ``_decide`` runs) pass False so the hot path
                does not re-scan the same vector twice per decision.  The
                shape is checked either way: it costs nothing, and the
                compiled pass reads ``n_units`` values through a raw
                address.

        Returns:
            Updated estimates (W), shape ``(n_units,)`` — a copy, safe to
            store in a history buffer.
        """
        z = np.asarray(measurement, dtype=np.float64)
        if z.shape != (self.n_units,):
            raise ValueError(
                f"measurement shape {z.shape} != ({self.n_units},)"
            )
        if validate and not np.all(np.isfinite(z)):
            raise ValueError("measurement contains non-finite values")

        if not self._initialized:
            self._x[:] = z
            self._p.fill(self.config.initial_var)
            self._initialized = True
            return self._x.copy()

        kernels = _native.kernels()
        if kernels is None:
            self._filter(z)
        else:
            # z is n_units float64 by the check above; the kernel also
            # needs them adjacent.
            z = np.ascontiguousarray(z)
            kernels.kalman_update(
                *self._pinned.at,
                z.ctypes.data,
                self.n_units,
                self.config.process_var,
                self.config.measurement_var,
            )
        return self._x.copy()

    def _filter(self, z: np.ndarray) -> None:
        """One predict/update step of every filter as NumPy passes."""
        # Predict: random walk inflates uncertainty by the process variance.
        self._p += self.config.process_var
        # Update: standard scalar Kalman gain and correction, in place.
        gain = self._p / (self._p + self.config.measurement_var)
        self._x += gain * (z - self._x)
        self._p *= 1.0 - gain
