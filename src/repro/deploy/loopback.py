"""Old import path of :class:`~repro.shard.supervisor.RecoveryOptions`.

Its one reader is ``benchmarks/perf/probes.py::fleet_probe``, which is
frozen with the benchmark and still calls ``run_sharded``; when the probe
moves to :class:`repro.shard.Fleet`, point it at :mod:`repro.shard` and
delete this.
"""

from repro.shard.supervisor import RecoveryOptions

__all__ = ["RecoveryOptions"]
