"""The per-object RAPL model the struct-of-arrays bank replaced.

Kept as the reference side of ``test_bank.py`` and ``test_faults.py``:
one Python object per domain, per meter, per fault wrapper and one
unit-by-unit actuator, every quantity a Python float or int attribute,
one scalar ``rng.normal`` per noisy reading and one scalar
``rng.random`` per fault roll — the arithmetic of ``repro.powercap`` as
it stood before the bank, statement for statement.  The bank's scalar
views and bulk calls must reproduce it bit for bit, and a snapshot
document these objects write must still load.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.recovery.state import rng_state


class OracleDomain:
    def __init__(self, max_power_w, min_power_w, config, initial_power_w):
        self.max_power_w = float(max_power_w)
        self.min_power_w = float(min_power_w)
        self.config = config
        self.cap_w = self.max_power_w
        self.power_w = float(initial_power_w)
        self.energy_uj = 0.0

    def set_cap_w(self, cap_w):
        if not math.isfinite(cap_w):
            raise ValueError(f"cap must be finite, got {cap_w!r}")
        cap = float(cap_w)
        if cap < self.min_power_w:
            cap = self.min_power_w
        elif cap > self.max_power_w:
            cap = self.max_power_w
        self.cap_w = cap
        return cap

    def read_energy_uj(self):
        return int(self.energy_uj % self.config.counter_wrap_uj)

    def power_off(self):
        self.power_w = 0.0

    def step(self, demand_w, dt_s):
        target = min(demand_w, self.cap_w)
        alpha = 1.0 - math.exp(-dt_s / self.config.lag_tau_s)
        old = self.power_w
        new = min(old + (target - old) * alpha, self.cap_w)
        self.power_w = max(new, 0.0)
        self.energy_uj += (old + self.power_w) * 0.5 * dt_s * 1e6
        return self.power_w

    def snapshot(self):
        return {
            "cap_w": self.cap_w,
            "power_w": self.power_w,
            "energy_uj": self.energy_uj,
        }


class OracleMeter:
    def __init__(self, domain, rng):
        self.domain = domain
        self.rng = rng
        self.last_uj = domain.read_energy_uj()

    def rebaseline(self):
        self.last_uj = self.domain.read_energy_uj()

    def read_power_w(self, dt_s):
        now = self.domain.read_energy_uj()
        delta = now - self.last_uj
        if delta < 0:
            delta += self.domain.config.counter_wrap_uj
        self.last_uj = now
        power = delta / dt_s * 1e-6
        noise_std = self.domain.config.noise_std_w
        if noise_std > 0:
            power += self.rng.normal(0.0, noise_std)
        return max(power, 0.0)

    def snapshot(self):
        doc = {"last_uj": self.last_uj}
        if self.domain.config.noise_std_w > 0:
            doc["rng"] = rng_state(self.rng)
        return doc


class OracleCluster:
    """The hardware of ``Cluster(spec, rapl_config, rng)``, object by
    object, seeded the way the cluster seeds its sockets."""

    def __init__(self, spec, rapl_config, rng):
        self.domains = [
            OracleDomain(
                spec.tdp_w, spec.min_cap_w, rapl_config, spec.idle_power_w
            )
            for _ in range(spec.n_units)
        ]
        self.meters = [
            OracleMeter(dom, unit_rng)
            for dom, unit_rng in zip(self.domains, rng.spawn(spec.n_units))
        ]

    def snapshot(self):
        """The document the pre-bank ``Cluster.snapshot`` wrote."""
        return {
            "domains": [d.snapshot() for d in self.domains],
            "meters": [m.snapshot() for m in self.meters],
        }


class OracleFaultyMeter:
    """A meter wrapper injecting stuck/dropout/spike faults: the rule
    ``RaplBank.set_faults`` applies, one Python call per reading."""

    def __init__(self, meter, config, rng):
        self.meter = meter
        self.config = config
        self._rng = rng
        self._last_w = 0.0
        self._has_last = False
        self.faults_injected = 0

    def read_power_w(self, dt_s: float) -> float:
        """Read the underlying meter, possibly corrupted.

        The healthy meter is *always* advanced (its energy-counter cursor
        must track real time), then the returned value may be replaced.
        A stuck fault needs a previous value to repeat; on the very first
        reading it passes the healthy value through instead of returning
        the meaningless 0.0 initial state (which would be a dropout, not
        a stall).
        """
        healthy = self.meter.read_power_w(dt_s)
        roll = self._rng.random()
        cfg = self.config
        if roll < cfg.stuck_prob:
            if self._has_last:
                self.faults_injected += 1
                return self._last_w
            self._last_w = healthy
            self._has_last = True
            return healthy
        roll -= cfg.stuck_prob
        if roll < cfg.dropout_prob:
            self.faults_injected += 1
            self._last_w = 0.0
            self._has_last = True
            return 0.0
        roll -= cfg.dropout_prob
        if roll < cfg.spike_prob:
            self.faults_injected += 1
            self._last_w = healthy * cfg.spike_gain
            self._has_last = True
            return self._last_w
        self._last_w = healthy
        self._has_last = True
        return healthy


class OracleActuator:
    """``CapActuator`` writing and verifying domain by domain, through
    any objects with ``cap_w``/``set_cap_w``/``min_power_w``/
    ``max_power_w`` (the oracle's domains or a cluster's views)."""

    def __init__(
        self, domains, delay_steps=0, verify=False, max_retries=3,
        backoff_s=0.0,
    ):
        self._domains = list(domains)
        self.delay_steps = delay_steps
        self.verify = verify
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._pipeline = []
        self.commands_applied = 0
        self.retries = 0
        self.verify_failures = 0
        self.events = []

    def issue(self, caps_w):
        self._pipeline.append(np.asarray(caps_w, dtype=np.float64).copy())
        if len(self._pipeline) <= self.delay_steps:
            return 0
        return self._apply(self._pipeline.pop(0))

    def _apply(self, due):
        self.commands_applied += len(self._domains)
        changed = 0
        for unit, (dom, cap) in enumerate(zip(self._domains, due)):
            # Quantize to whole microwatts, as a sysfs write would.
            quantized = round(float(cap) * 1e6) / 1e6
            before = dom.cap_w
            dom.set_cap_w(quantized)
            if self.verify:
                self._verify(dom, unit, quantized)
            if dom.cap_w != before:
                changed += 1
        return changed

    def _verify(self, dom, unit, cap_w):
        """Read one programmed limit back; retry the write on mismatch."""
        # What a correct write must read back: the sysfs clamp of the
        # requested limit to the domain's accepted range.
        expected = min(max(cap_w, dom.min_power_w), dom.max_power_w)
        if dom.cap_w == expected:
            return
        delay = self.backoff_s
        for attempt in range(1, self.max_retries + 1):
            if delay > 0:
                time.sleep(delay)
                delay *= 2.0
            self.retries += 1
            dom.set_cap_w(cap_w)
            if dom.cap_w == expected:
                self.events.append(
                    (
                        "actuation_retried",
                        unit,
                        f"verified after {attempt} retr"
                        f"{'y' if attempt == 1 else 'ies'}",
                    )
                )
                return
        self.verify_failures += 1
        self.events.append(
            (
                "actuation_retry_exhausted",
                unit,
                f"cap {cap_w:.3f} W unverified after "
                f"{self.max_retries} retries (read {dom.cap_w:.3f} W)",
            )
        )
