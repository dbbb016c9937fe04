"""Priority module (paper Algorithm 2).

Classifies every power-capping unit as high or low priority from the two
*power dynamics* features the paper identifies (§3.3):

* **Frequency** — units whose recent power history contains more than
  ``pp_threshold`` prominent peaks are high-frequency units.  They are pinned
  to high priority because the manager cannot react fast enough to their
  phase changes; treating them as always-hungry yields the constant-
  allocation lower bound (§4.4).  A high-frequency flag is only cleared when
  *both* the prominent-peak count and the history's standard deviation fall
  below their thresholds (the std check catches fast oscillation that the
  fixed-prominence peak counter misses).
* **First derivative** — for low-frequency units, a derivative above the
  positive threshold marks rising power (high priority: the unit needs power
  now or soon); below the negative threshold marks falling power (low
  priority).  In between, the previous priority is *kept*: a unit that rose
  stays high priority until its power actually falls again.

The flag logic is one compiled pass over the units
(:mod:`repro.core._native`) or, on a host without a C compiler, a
boolean-mask pass (:meth:`PriorityModule._classify`) with the same bits:
a handful of whole-array operations regardless of cluster size (§6.5).
"""

from __future__ import annotations

import numpy as np

from repro.core import _native
from repro.core.config import PriorityConfig
from repro.core.peaks import fill_features
from repro.recovery.state import encode_array, read_leaf

__all__ = ["PriorityModule"]


class PriorityModule:
    """Stateful high/low priority classifier for a bank of units.

    Args:
        n_units: number of units tracked.
        config: thresholds and window lengths.
        use_frequency: when False, skip high-frequency detection entirely
            (derivative-only classification; ablation 2 in DESIGN.md §5).
    """

    def __init__(
        self,
        n_units: int,
        config: PriorityConfig | None = None,
        use_frequency: bool = True,
    ) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self.n_units = n_units
        self.config = config or PriorityConfig()
        self.use_frequency = use_frequency
        self._high_freq = np.zeros(n_units, dtype=bool)
        self._priority = np.zeros(n_units, dtype=bool)
        # Per-step scratch: update() runs every control step on every unit,
        # so the feature vectors are written into preallocated buffers via
        # ufunc `out=` instead of being reallocated each call.
        self._pp = np.empty(n_units, dtype=np.intp)
        self._std = np.empty(n_units, dtype=np.float64)
        self._deriv = np.empty(n_units, dtype=np.float64)
        # What the classify kernel reads and writes, in its argument
        # order; all five are only ever written in place.
        self._pinned = _native.Pinned(
            self._pp, self._std, self._deriv, self._high_freq, self._priority
        )
        # Boolean-mask scratch for the fallback classifier.
        self._mask_a = np.empty(n_units, dtype=bool)
        self._mask_b = np.empty(n_units, dtype=bool)
        self._mask_c = np.empty(n_units, dtype=bool)
        self._low = np.empty(n_units, dtype=bool)
        # Centered time basis for the least-squares slope; dt_s-independent
        # (the dt factor divides out at use time), so it can be precomputed.
        w = self.config.deriv_window
        self._t_base = np.arange(w, dtype=np.float64) - (w - 1) / 2
        self._t_sq = float((self._t_base * self._t_base).sum())

    @property
    def priority(self) -> np.ndarray:
        """Current priorities (True = high), shape ``(n_units,)`` (read-only)."""
        view = self._priority.view()
        view.flags.writeable = False
        return view

    @property
    def high_freq(self) -> np.ndarray:
        """Current high-frequency flags, shape ``(n_units,)`` (read-only)."""
        view = self._high_freq.view()
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        """Clear all flags and priorities."""
        self._high_freq.fill(False)
        self._priority.fill(False)

    def snapshot(self) -> dict:
        """JSON-able document of the classifier flags."""
        return {
            "high_freq": encode_array(self._high_freq),
            "priority": encode_array(self._priority),
        }

    def restore(self, state: dict) -> None:
        """Overwrite the classifier flags with a snapshot's content."""
        high_freq = read_leaf(state["high_freq"])
        priority = read_leaf(state["priority"])
        if (
            high_freq.shape != (self.n_units,)
            or priority.shape != (self.n_units,)
        ):
            raise ValueError(
                f"snapshot shapes {high_freq.shape}/{priority.shape} != "
                f"({self.n_units},)"
            )
        # Nonzero is set and is stored as 1: the classify kernel computes
        # on the flag bytes, and a hand-made document may hold others.
        np.not_equal(high_freq, 0, out=self._high_freq)
        np.not_equal(priority, 0, out=self._priority)

    def update(self, history: np.ndarray, dt_s: float) -> np.ndarray:
        """Reclassify all units from the latest power history.

        Args:
            history: estimated power history, shape ``(h, n_units)`` with the
                oldest sample first; ``h`` may be shorter than the configured
                history length during warm-up.  With fewer than
                ``deriv_window`` samples no classification happens and the
                previous priorities are kept (DPS's ~20 s deployment window,
                §6.5).
            dt_s: sampling period of the history (s).

        Returns:
            Copy of the updated priority array.
        """
        history = np.asarray(history, dtype=np.float64)
        if history.ndim != 2 or history.shape[1] != self.n_units:
            raise ValueError(
                f"history shape {history.shape} incompatible with "
                f"{self.n_units} units"
            )
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        h = history.shape[0]
        cfg = self.config
        if h < cfg.deriv_window:
            return self._priority.copy()

        # Batch the numeric features once per step into preallocated scratch
        # (the classifier pass below is pure flag logic).
        if self.use_frequency:
            # Verdict context: _classify only compares _pp against
            # pp_threshold, so a flagged unit that is still noisy is not
            # walked and every other walk stops at pp_threshold + 1.
            fill_features(
                history,
                cfg.peak_prominence,
                self._pp,
                self._std,
                flagged=self._high_freq,
                pp_threshold=cfg.pp_threshold,
                std_threshold=cfg.std_threshold,
            )
        derivs = self._deriv
        if cfg.deriv_method == "lsq":
            # Least-squares slope over the window: averages noise across
            # every sample instead of the two endpoints.  With the centered
            # basis t = t_base * dt_s, slope = (t @ w) / sum(t^2)
            #                                = (t_base @ w) / (sum(t_base^2) * dt_s).
            window = history[-cfg.deriv_window :]
            np.matmul(self._t_base, window, out=derivs)
            derivs /= self._t_sq * dt_s
        else:
            span_s = (cfg.deriv_window - 1) * dt_s
            np.subtract(history[-1], history[-cfg.deriv_window], out=derivs)
            derivs /= span_s

        kernels = _native.kernels()
        if kernels is None:
            self._classify(derivs)
        else:
            kernels.classify(
                *self._pinned.at,
                self.n_units,
                bool(self.use_frequency),
                cfg.pp_threshold,
                cfg.std_threshold,
                cfg.deriv_inc_threshold,
                cfg.deriv_dec_threshold,
            )
        return self._priority.copy()

    def _classify(self, derivs: np.ndarray) -> None:
        """Apply Algorithm 2's flag transitions to every unit at once.

        All transitions are computed from the flags as they stood at entry
        (``elig`` is built before any mask is applied), so the pass is
        order-independent and bit-exact against the per-unit walk in
        tests/core/oracles.py.
        """
        cfg = self.config
        high_freq = self._high_freq
        priority = self._priority
        elig = self._low  # Units that take the derivative branch.
        if self.use_frequency:
            set_m = self._mask_a
            clear_m = self._mask_b
            tmp = self._mask_c
            # Set: an unflagged unit whose prominent-peak count crosses the
            # threshold becomes high-frequency and is pinned high priority.
            np.greater(self._pp, cfg.pp_threshold, out=set_m)
            np.logical_not(high_freq, out=elig)
            set_m &= elig
            # Clear: a flagged unit drops the flag only when the peak count
            # and the history std are both under their thresholds.
            np.less(self._pp, cfg.pp_threshold, out=clear_m)
            np.less(self._std, cfg.std_threshold, out=tmp)
            clear_m &= tmp
            clear_m &= high_freq
            # Derivative branch: only units that entered the step unflagged
            # and stayed unflagged (Algorithm 2 lines 10-15 — a (former)
            # high-frequency unit skips the derivative check this step).
            np.logical_not(set_m, out=tmp)
            elig &= tmp
            high_freq |= set_m
            priority |= set_m
            np.logical_not(clear_m, out=tmp)
            high_freq &= tmp
            priority &= tmp
        else:
            elig.fill(True)

        # Derivative classification with hysteresis: rising units go high,
        # falling units go low, in-between keeps the previous priority.
        # The masks are disjoint (PriorityConfig validates inc_threshold > 0
        # > dec_threshold), so applying them in either order matches the
        # per-unit walk's if/elif.
        rise = self._mask_a
        np.greater(derivs, cfg.deriv_inc_threshold, out=rise)
        rise &= elig
        priority |= rise
        fall = self._mask_b
        np.less(derivs, cfg.deriv_dec_threshold, out=fall)
        fall &= elig
        np.logical_not(fall, out=self._mask_c)
        priority &= self._mask_c
