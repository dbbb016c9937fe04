"""Old import path of :class:`~repro.shard.supervisor.RecoveryOptions`.

Its one reader is ``benchmarks/perf/probes.py::fleet_probe``, which is
frozen with the benchmark; point it at :mod:`repro.shard` and delete this.
"""

from repro.shard.supervisor import RecoveryOptions

__all__ = ["RecoveryOptions"]
