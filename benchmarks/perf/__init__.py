"""Replay-floor performance benchmark of the DPS control cycle.

Run as ``python -m benchmarks.perf``; ``README.md`` in this directory
holds the measurement contract every later performance claim inherits.
"""
