"""Simulated RAPL power-capping substrate (sysfs powercap ABI included)."""

from repro.powercap.actuator import CapActuator
from repro.powercap.faults import FaultConfig, FaultyMeter
from repro.powercap.rapl import PowerMeter, RaplBank, RaplDomain
from repro.powercap.sysfs import SysfsPowercap

__all__ = [
    "CapActuator",
    "FaultConfig",
    "FaultyMeter",
    "PowerMeter",
    "RaplBank",
    "RaplDomain",
    "SysfsPowercap",
]
