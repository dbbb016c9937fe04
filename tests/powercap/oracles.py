"""The per-object RAPL model the struct-of-arrays bank replaced.

Kept as the reference side of ``test_bank.py``: one Python object per
domain and per meter, every quantity a Python float or int attribute, one
scalar ``rng.normal`` per noisy reading — the arithmetic of
``repro.powercap.rapl`` as it stood before the bank, statement for
statement.  The bank's scalar views and bulk calls must reproduce it bit
for bit, and a snapshot document these objects write must still load.
"""

from __future__ import annotations

import math

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
