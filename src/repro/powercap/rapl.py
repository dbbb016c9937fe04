"""Simulated RAPL hardware (paper §4.2; DESIGN.md substitution table row 1).

DPS interacts with the hardware in exactly two ways: reading power and
setting power caps, both via Intel RAPL.  This module provides a faithful
software stand-in:

* a monotonically increasing **energy counter** in microjoules that wraps at
  ``max_energy_range_uj``, exactly like the MSR/sysfs counter — consumers
  must derive power from counter differences, wraps included;
* **cap enforcement**: a domain's true power never exceeds its limit
  (RAPL's running-average window is far shorter than the 1 s control loop,
  so within one step the limit is simply met);
* a **first-order lag** with which true power approaches its target
  (``min(demand, cap)``) — power changes with inertia (§3.3);
* a **power meter** per unit that converts counter reads into power
  samples and adds Gaussian measurement noise, the noise DPS's Kalman
  filter exists to absorb (§4.3.2);
* optional **measurement faults** on any unit range — stalled counters,
  sampler dropouts and transient spikes (:mod:`repro.powercap.faults`).

All of that state lives in one place, a :class:`RaplBank` of contiguous
per-unit arrays.  The simulator, the client daemons and the actuator
advance, meter and program it in bulk, one unit range per call.
:class:`RaplDomain` is an index view of one unit: the per-socket API the
sysfs emulation and the node-crash model use.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from repro.core import _native
from repro.core.config import RaplConfig
from repro.powercap.faults import FaultConfig
from repro.recovery.state import make_rng, rng_state, rng_state_doc

__all__ = ["RaplBank", "RaplDomain", "bank_span"]

#: Samples a per-unit stream (meter noise, fault rolls) draws from its
#: generator at a time.  ``g.normal(0, s, K)`` and ``g.random(K)`` are
#: bit-identical to ``K`` scalar draws, and one call per ``K`` readings
#: takes the generator off the per-cycle path.
NOISE_BLOCK = 64

_ALL = slice(None)


def _normal_block(sigma: float, rng: np.random.Generator) -> np.ndarray:
    """A meter-noise block: ``NOISE_BLOCK`` normal samples of σ ``sigma``."""
    return rng.normal(0.0, sigma, NOISE_BLOCK)


def _uniform_block(rng: np.random.Generator) -> np.ndarray:
    """A fault-roll block: ``NOISE_BLOCK`` samples uniform on [0, 1)."""
    return rng.random(NOISE_BLOCK)


class _Prefetch:
    """One generator per unit, drawn ``NOISE_BLOCK`` samples ahead.

    ``block[i, at[i]]`` is unit i's next sample (``at[i] == NOISE_BLOCK``:
    none left) and ``source[i]`` the raw generator state its block was
    drawn from, which is what a snapshot taken mid-block needs to resume
    the stream.
    """

    def __init__(self, n_units: int, draw) -> None:
        self.rngs: list[np.random.Generator | None] = [None] * n_units
        self.block = np.empty((n_units, NOISE_BLOCK))
        self.at = np.full(n_units, NOISE_BLOCK, dtype=np.intp)
        self.source: list[dict | None] = [None] * n_units
        self._draw = draw

    def attach(self, index: int, rng: np.random.Generator) -> None:
        """Make ``rng`` unit ``index``'s stream, starting at its next draw."""
        self.rngs[index] = rng
        self.at[index] = NOISE_BLOCK

    def take(self, units: np.ndarray) -> np.ndarray:
        """The next sample of each of ``units`` (distinct unit indices)."""
        at = self.at[units]
        if at.max(initial=0) == NOISE_BLOCK:
            self.refill(units[at == NOISE_BLOCK].tolist())
            at = self.at[units]
        self.at[units] = at + 1
        return self.block[units, at]

    def refill(self, units: Sequence[int]) -> None:
        """Draw the next block of each given unit."""
        for index in units:
            rng = self.rngs[index]
            self.source[index] = rng.bit_generator.state
            self.block[index] = self._draw(rng)
            self.at[index] = 0


class RaplBank:
    """Struct-of-arrays state of ``n_units`` identical RAPL domains.

    Every bulk call takes a ``span`` — a contiguous unit range, the whole
    bank by default — and writes its slice of the arrays in place, so
    callers on threads of their own may drive disjoint ranges of one bank
    concurrently.

    Args:
        n_units: number of domains.
        max_power_w: hardware maximum power / highest accepted cap (TDP).
        min_power_w: lowest accepted cap.
        config: noise, lag, and counter-wrap behaviour.
        initial_power_w: true power at construction (idle floor).

    Attributes:
        cap_w: programmed power limits (W).
        power_w: true instantaneous powers (W) — hidden from managers,
            who must estimate them through the (noisy) meters.
        energy_uj: unwrapped energy integrals (µJ); the counter a reader
            sees is this modulo ``config.counter_wrap_uj``.
        meter_uj: each meter's cursor — the counter value at its last read.
        faults_injected: readings each unit's faults have replaced so far.
    """

    def __init__(
        self,
        n_units: int,
        max_power_w: float,
        min_power_w: float = 0.0,
        config: RaplConfig | None = None,
        initial_power_w: float = 0.0,
    ) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if max_power_w <= 0:
            raise ValueError(f"max_power_w must be > 0, got {max_power_w}")
        if not 0 <= min_power_w <= max_power_w:
            raise ValueError(
                f"min_power_w must be in [0, max_power_w], got {min_power_w}"
            )
        if not 0 <= initial_power_w <= max_power_w:
            raise ValueError(
                f"initial_power_w must be in [0, max_power_w], "
                f"got {initial_power_w}"
            )
        self.n_units = n_units
        self.max_power_w = float(max_power_w)
        self.min_power_w = float(min_power_w)
        self.config = config or RaplConfig()
        if self.config.counter_wrap_uj >= 2**63:
            raise ValueError(
                "counter_wrap_uj must fit a signed 64-bit cursor, got "
                f"{self.config.counter_wrap_uj}"
            )
        self.cap_w = np.full(n_units, self.max_power_w)
        self.power_w = np.full(n_units, float(initial_power_w))
        self.energy_uj = np.zeros(n_units)
        self.meter_uj = np.zeros(n_units, dtype=np.int64)
        self._take_views()
        # ``_units`` is arange(n), kept for the per-unit block lookups.
        self._units = np.arange(n_units)
        sigma = self.config.noise_std_w
        self._noise = (
            _Prefetch(n_units, partial(_normal_block, sigma))
            if sigma > 0
            else None
        )
        # Measurement faults (set_faults): which units roll, their
        # stuck / dropout / spike probabilities, spike gain, and the
        # reading a stuck counter repeats.
        self._n_faulty = 0
        self._fault_on = np.zeros(n_units, dtype=bool)
        self._fault_p = np.zeros((3, n_units))
        self._spike_gain = np.zeros(n_units)
        self._last_w = np.zeros(n_units)
        self._has_last = np.zeros(n_units, dtype=bool)
        self._rolls: _Prefetch | None = None  # Built by the first set.
        self.faults_injected = np.zeros(n_units, dtype=np.int64)
        # The compiled step and meter read write these arrays through
        # their addresses, so each is only ever written in place; a
        # reading is assembled in ``_reading`` and handed out as a copy.
        self._reading = np.empty(n_units)
        noise = () if self._noise is None else (
            self._noise.block, self._noise.at
        )
        self._pinned = _native.Pinned(
            self.cap_w, self.power_w, self.energy_uj, self.meter_uj,
            self._reading, *noise,
        )

    def _take_views(self) -> None:
        # The same storage for the one-unit views: indexing a memoryview
        # yields a Python float or int at half the cost of ndarray.item().
        self._cap_w = memoryview(self.cap_w)
        self._power_w = memoryview(self.power_w)
        self._energy_uj = memoryview(self.energy_uj)

    def __getstate__(self) -> dict:
        # A memoryview neither copies nor pickles: a copy takes its own
        # views of its own arrays (and ``_native.Pinned`` its addresses).
        state = dict(self.__dict__)
        for name in ("_cap_w", "_power_w", "_energy_uj"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._take_views()

    def _range(self, span: slice) -> tuple[int, int] | None:
        """``(first unit, count)`` of a non-empty step-1 span, else None
        (the compiled passes take one offset and one length)."""
        start, stop, stride = span.indices(self.n_units)
        return (start, stop - start) if stride == 1 and stop > start else None

    # -- physics -------------------------------------------------------

    def step(
        self, demand_w: np.ndarray, dt_s: float, span: slice = _ALL
    ) -> np.ndarray:
        """Advance the physical state of a range by one interval.

        Bulk form of :meth:`RaplDomain.step`: true power relaxes toward
        ``min(demand, cap)`` through a first-order lag and is hard-clipped
        at the cap; the energy counters integrate the trajectory.  No
        unit is touched when any demand is rejected.

        Args:
            demand_w: uncapped power each unit's workload would draw (W).
            dt_s: interval length (s).

        Returns:
            True power of the range at the end of the interval (W).
        """
        demand = np.asarray(demand_w, dtype=np.float64)
        cap = self.cap_w[span]
        if demand.shape != cap.shape:
            raise ValueError(f"demand shape {demand.shape} != {cap.shape}")
        kernels = _native.kernels()
        # A bad dt_s takes the fallback, which checks the demand first.
        where = None if kernels is None or not dt_s > 0 else self._range(span)
        if where is None:
            return self._step(demand, cap, dt_s, span)
        start, n = where
        alpha = 1.0 - math.exp(-dt_s / self.config.lag_tau_s)
        # demand is n float64 by the check above; the kernel also needs
        # them adjacent.
        demand = np.ascontiguousarray(demand)
        cap_at, power_at, energy_at = self._pinned.at[:3]
        off = 8 * start
        bad = kernels.rapl_step(
            _native.address(demand), cap_at + off, power_at + off,
            energy_at + off, n, alpha, dt_s,
        )
        if bad >= 0:
            raise ValueError(f"demand_w must be >= 0, got {demand[bad]}")
        return self.power_w[start:start + n].copy()

    def _step(
        self,
        demand: np.ndarray,
        cap: np.ndarray,
        dt_s: float,
        span: slice,
    ) -> np.ndarray:
        """:meth:`step` in NumPy passes (the compiled step's fallback).

        Every min and max is Python's, as in the scalar form: each one
        takes the second argument only where it is strictly beyond the
        first, so the first keeps a tie (``np.minimum``/``np.maximum``
        do not promise which zero a ``-0.0``/``0.0`` tie returns) and a
        NaN.
        """
        if demand.min() < 0:
            raise ValueError(
                f"demand_w must be >= 0, got {demand[demand < 0][0]}"
            )
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        old = self.power_w[span]
        alpha = 1.0 - math.exp(-dt_s / self.config.lag_tau_s)
        new = demand - old  # min(demand, cap) - old
        np.subtract(cap, old, out=new, where=cap < demand)
        new *= alpha
        new += old
        np.minimum(new, cap, out=new, where=cap < new)
        np.maximum(new, 0.0, out=new, where=new < 0.0)
        # Same operation order as the scalar form, one rounding each.
        energy = old + new
        energy *= 0.5
        energy *= dt_s
        energy *= 1e6
        total = self.energy_uj[span]
        total += energy
        old[:] = new
        return new

    # -- metering ------------------------------------------------------

    def attach_meter(self, index: int, rng: np.random.Generator) -> None:
        """Give unit ``index``'s meter its noise stream and take its
        first read.

        The generator belongs to the bank from here on: it is drawn
        ``NOISE_BLOCK`` samples ahead of the readings.
        """
        if self._noise is not None:
            self._noise.attach(index, rng)
        self.rebaseline(slice(index, index + 1))

    def read_energy_uj(self, span: slice = _ALL) -> np.ndarray:
        """Current values of the wrapping energy counters of a range (µJ)."""
        wrapped = self.energy_uj[span] % self.config.counter_wrap_uj
        return wrapped.astype(np.int64)

    def rebaseline(self, span: slice = _ALL) -> None:
        """Re-anchor the meter cursors of a range at the current counters.

        A restarted metering daemon takes a fresh first read; an
        in-process restart must do the same, or the energy accumulated
        while the controller was down is charged to the first
        post-restart interval and that reading comes back inflated.
        """
        self.meter_uj[span] = self.read_energy_uj(span)

    def read_powers_w(self, dt_s: float, span: slice = _ALL) -> np.ndarray:
        """Sample every meter of a range: average power since its previous
        read, from the wrap-corrected counter difference, plus noise —
        then corrupted where :meth:`set_faults` put faults.
        """
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        kernels = _native.kernels()
        where = None if kernels is None else self._range(span)
        if where is None:
            power = self._read(dt_s, span)
        else:
            start, n = where
            energy_at, meter_at, reading_at, *noise_at = self._pinned.at[2:]
            off = 8 * start
            block_at = at_at = None
            if noise_at:
                block_at = noise_at[0] + off * NOISE_BLOCK
                at_at = noise_at[1] + off
            args = (
                energy_at + off, meter_at + off, block_at, at_at,
                reading_at + off, n, self.config.counter_wrap_uj, dt_s,
            )
            if kernels.meter_read(*args) >= 0:
                # A block ran out: draw what the range needs, read again.
                at = self._noise.at[start:start + n]
                spent = np.flatnonzero(at == NOISE_BLOCK) + start
                self._noise.refill(spent.tolist())
                kernels.meter_read(*args)
            power = self._reading[start:start + n].copy()
        if self._n_faulty:
            self._apply_faults(power, span)
        return power

    def _read(self, dt_s: float, span: slice) -> np.ndarray:
        """The healthy readings of :meth:`read_powers_w` in NumPy passes
        (the compiled read's fallback); the floor at 0 is Python's
        ``max(power, 0.0)``, as in the step."""
        now = self.read_energy_uj(span)
        delta = now - self.meter_uj[span]
        # Counter wrapped between reads (rare: ask before masking).
        if delta.min(initial=0) < 0:
            delta[delta < 0] += self.config.counter_wrap_uj
        self.meter_uj[span] = now
        power = delta / dt_s
        power *= 1e-6
        if self._noise is not None:
            power += self._noise.take(self._units[span])
        np.maximum(power, 0.0, out=power, where=power < 0.0)
        return power

    # -- measurement faults --------------------------------------------

    def set_faults(
        self,
        config: FaultConfig | None,
        rngs: Sequence[np.random.Generator] = (),
        span: slice = _ALL,
    ) -> None:
        """Inject measurement faults into the meters of a range, or clear
        them (``config=None``).

        From its next reading on, each unit of the range draws one roll
        per reading from its own generator (``rngs``, one per unit, owned
        by the bank from here on and drawn a block ahead).  The roll
        picks, in this order: a stall (``stuck_prob``) repeats the unit's
        previous reading, a dropout (``dropout_prob``) reads 0.0, a spike
        (``spike_prob``) multiplies the reading by ``spike_gain``.  A unit
        set here has no previous reading yet, so a stall on its first
        read passes the healthy value through.  The healthy meter always
        advances, so clearing the faults resumes its exact stream.
        """
        units = self._units[span]
        if config is None:
            self._fault_on[span] = False
        else:
            if len(rngs) != units.size:
                raise ValueError(
                    f"{len(rngs)} fault generators for {units.size} units"
                )
            self._fault_on[span] = True
            self._fault_p[:, span] = [
                [config.stuck_prob], [config.dropout_prob], [config.spike_prob]
            ]
            self._spike_gain[span] = config.spike_gain
            self._has_last[span] = False
            if self._rolls is None:
                self._rolls = _Prefetch(self.n_units, _uniform_block)
            for index, rng in zip(units.tolist(), rngs):
                self._rolls.attach(index, rng)
        self._n_faulty = int(np.count_nonzero(self._fault_on))

    def _apply_faults(self, power: np.ndarray, span: slice) -> None:
        """Corrupt a range's fresh readings in place where faults are set."""
        on = self._fault_on[span]
        if not on.any():
            return
        units = self._units[span][on]
        roll = self._rolls.take(units)
        stuck_p, dropout_p, spike_p = self._fault_p[:, units]
        stuck = roll < stuck_p
        roll -= stuck_p
        dropout = ~stuck & (roll < dropout_p)
        roll -= dropout_p
        spike = ~(stuck | dropout) & (roll < spike_p)
        held = stuck & self._has_last[units]
        out = power[on]
        out[spike] *= self._spike_gain[units[spike]]
        out[dropout] = 0.0
        out[held] = self._last_w[units[held]]
        self._last_w[units] = out
        self._has_last[units] = True
        self.faults_injected[units] += held | dropout | spike
        power[on] = out

    # -- capping -------------------------------------------------------

    def set_caps_w(self, caps_w: np.ndarray, span: slice = _ALL) -> None:
        """Program new power limits for a range, each clamped to the
        accepted range (bulk form of :meth:`RaplDomain.set_cap_w`)."""
        caps = np.asarray(caps_w, dtype=np.float64)
        cap = self.cap_w[span]
        if caps.shape != cap.shape:
            raise ValueError(f"caps shape {caps.shape} != {cap.shape}")
        if not np.isfinite(caps).all():
            bad = caps[~np.isfinite(caps)][0]
            raise ValueError(f"cap must be finite, got {bad!r}")
        # One pass; like the scalar form, a cap on a bound stays as written.
        caps.clip(self.min_power_w, self.max_power_w, out=cap)

    # -- deterministic replay -----------------------------------------

    def _meter_doc(self, index: int, last_uj: int) -> dict:
        """One meter's cursor and noise stream.

        A noise-free meter (``noise_std_w == 0``) never draws from its
        generator, so its state is omitted — at fleet scale the dead
        RNG states dominate an otherwise small snapshot.
        """
        doc: dict = {"last_uj": last_uj}
        noise = self._noise
        if noise is not None and noise.rngs[index] is not None:
            at = noise.at.item(index)
            if at == NOISE_BLOCK:
                doc["rng"] = rng_state(noise.rngs[index])
            else:
                # Mid-block: the state the block came from (kept raw at
                # the refill, a snapshot is rare and a refill is not) and
                # how far into it the readings are.
                doc["rng"] = rng_state_doc(noise.source[index])
                doc["noise_at"] = at
        return doc

    def _restore_meter(self, index: int, state: dict) -> None:
        self.meter_uj[index] = int(state["last_uj"])
        noise = self._noise
        if "rng" in state and noise is not None:
            noise.attach(index, make_rng(state["rng"]))
            at = int(state.get("noise_at", 0))
            if at:
                noise.refill((index,))
                noise.at[index] = at

    def snapshot(self) -> dict:
        """JSON-able document of every domain and meter; a domain's
        document is the one :meth:`RaplDomain.snapshot` produces.

        Measurement faults are test instruments, not hardware state, and
        are not part of it."""
        return {
            "domains": [
                {"cap_w": cap, "power_w": power, "energy_uj": energy}
                for cap, power, energy in zip(
                    self.cap_w.tolist(),
                    self.power_w.tolist(),
                    self.energy_uj.tolist(),
                )
            ],
            "meters": [
                self._meter_doc(i, last_uj)
                for i, last_uj in enumerate(self.meter_uj.tolist())
            ],
        }

    def restore(self, state: dict) -> None:
        """Overwrite every domain and meter with a snapshot's content."""
        domains = state["domains"]
        meters = state["meters"]
        if len(domains) != self.n_units or len(meters) != self.n_units:
            raise ValueError(
                f"snapshot holds {len(domains)}/{len(meters)} units, "
                f"bank has {self.n_units}"
            )
        for key, column in (
            ("cap_w", self.cap_w),
            ("power_w", self.power_w),
            ("energy_uj", self.energy_uj),
        ):
            column[:] = [float(doc[key]) for doc in domains]
        for index, doc in enumerate(meters):
            self._restore_meter(index, doc)


class RaplDomain:
    """One power-capping unit with RAPL read/cap semantics.

    A view of one unit of a :class:`RaplBank`; built this way it owns a
    one-unit bank of its own.

    Args:
        name: identifier (e.g. ``"package-0"``), surfaced in the sysfs tree.
        max_power_w: hardware maximum power / highest accepted cap (TDP).
        min_power_w: lowest accepted cap.
        config: noise, lag, and counter-wrap behaviour.
        initial_power_w: true power at construction (idle floor).
    """

    def __init__(
        self,
        name: str,
        max_power_w: float,
        min_power_w: float = 0.0,
        config: RaplConfig | None = None,
        initial_power_w: float = 0.0,
    ) -> None:
        self.name = name
        self.bank = RaplBank(
            1, max_power_w, min_power_w, config, initial_power_w
        )
        self.index = 0

    @classmethod
    def of_bank(cls, bank: RaplBank, index: int, name: str) -> RaplDomain:
        """The view of unit ``index`` of an existing bank."""
        if not 0 <= index < bank.n_units:
            raise IndexError(f"unit {index} outside a {bank.n_units}-unit bank")
        view = cls.__new__(cls)
        view.name = name
        view.bank = bank
        view.index = index
        return view

    @property
    def max_power_w(self) -> float:
        """Hardware maximum power / highest accepted cap (W)."""
        return self.bank.max_power_w

    @property
    def min_power_w(self) -> float:
        """Lowest accepted cap (W)."""
        return self.bank.min_power_w

    @property
    def config(self) -> RaplConfig:
        """Noise, lag, and counter-wrap behaviour."""
        return self.bank.config

    @property
    def cap_w(self) -> float:
        """Current power limit (W)."""
        return self.bank._cap_w[self.index]

    @property
    def power_w(self) -> float:
        """True instantaneous power (W) — hidden from managers, who must
        estimate it through the (noisy) meter."""
        return self.bank._power_w[self.index]

    def set_cap_w(self, cap_w: float) -> float:
        """Program a new power limit, clamped to the accepted range.

        Returns:
            The effective (clamped) limit, mirroring how the powercap sysfs
            interface clamps out-of-range writes.
        """
        if not math.isfinite(cap_w):
            raise ValueError(f"cap must be finite, got {cap_w!r}")
        # Native comparisons: this runs per unit per control step, and
        # np.clip on a scalar costs more than the whole clamp.
        bank = self.bank
        cap = float(cap_w)
        if cap < bank.min_power_w:
            cap = bank.min_power_w
        elif cap > bank.max_power_w:
            cap = bank.max_power_w
        bank._cap_w[self.index] = cap
        return cap

    def read_energy_uj(self) -> int:
        """Current value of the wrapping energy counter (µJ)."""
        bank = self.bank
        return int(bank._energy_uj[self.index] % bank.config.counter_wrap_uj)

    def power_off(self) -> None:
        """Hard power loss: true power drops to zero instantly.

        Models a node crash — unlike stepping with zero demand (which
        decays through the first-order lag), a dead machine stops drawing
        power immediately.  The energy counter and the programmed cap are
        preserved, exactly as RAPL state survives in the simulator's
        bookkeeping of a host that will later reboot.
        """
        self.bank._power_w[self.index] = 0.0

    def snapshot(self) -> dict:
        """JSON-able document of the domain's physical state."""
        bank, i = self.bank, self.index
        return {
            "cap_w": bank._cap_w[i],
            "power_w": bank._power_w[i],
            "energy_uj": bank._energy_uj[i],
        }

    def restore(self, state: dict) -> None:
        """Overwrite the physical state with a snapshot's content."""
        bank, i = self.bank, self.index
        bank._cap_w[i] = float(state["cap_w"])
        bank._power_w[i] = float(state["power_w"])
        bank._energy_uj[i] = float(state["energy_uj"])

    def step(self, demand_w: float, dt_s: float) -> float:
        """Advance the physical state by one interval.

        True power relaxes toward ``min(demand, cap)`` through a first-order
        lag and is hard-clipped at the cap (RAPL enforcement); the energy
        counter integrates the trajectory.

        Args:
            demand_w: uncapped power the workload would draw (W).
            dt_s: interval length (s).

        Returns:
            True power at the end of the interval (W).
        """
        if demand_w < 0:
            raise ValueError(f"demand_w must be >= 0, got {demand_w}")
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        bank, i = self.bank, self.index
        cap = bank._cap_w[i]
        target = min(demand_w, cap)
        alpha = 1.0 - math.exp(-dt_s / bank.config.lag_tau_s)
        # Trapezoidal energy over the exponential approach is within a few
        # percent of exact for dt ~ tau; use the midpoint of old/new power.
        old = bank._power_w[i]
        new = max(min(old + (target - old) * alpha, cap), 0.0)
        bank._power_w[i] = new
        bank._energy_uj[i] += (old + new) * 0.5 * dt_s * 1e6
        return new


def bank_span(domains: Sequence[RaplDomain]) -> tuple[RaplBank, slice] | None:
    """The bank and unit range a sequence of domains views, in order.

    Returns:
        ``None`` when they are not consecutive units of one bank.
    """
    first = domains[0]
    bank, start = first.bank, first.index
    for offset, dom in enumerate(domains):
        if dom.bank is not bank or dom.index != start + offset:
            return None
    return bank, slice(start, start + len(domains))
