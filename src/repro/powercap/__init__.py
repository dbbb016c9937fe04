"""Simulated RAPL power-capping substrate (sysfs powercap ABI included)."""

from repro.powercap.actuator import CapActuator
from repro.powercap.faults import FaultConfig
from repro.powercap.rapl import RaplBank, RaplDomain
from repro.powercap.sysfs import SysfsPowercap

__all__ = [
    "CapActuator",
    "FaultConfig",
    "RaplBank",
    "RaplDomain",
    "SysfsPowercap",
]
