"""Controller crash-recovery: state protocol, checkpoints, supervision.

Layout:

* :mod:`~repro.recovery.state` — bit-exact array/RNG serialization and the
  ``snapshot()/restore()`` protocol;
* :mod:`~repro.recovery.checkpoint` — durable checkpoint store and the
  bounded cycle journal;
* :mod:`~repro.recovery.controller` — the journaling/checkpointing
  manager proxy;
* :mod:`~repro.recovery.supervisor` — heartbeat, watchdog, and the
  restartable-attempt supervisor.

``controller`` and ``supervisor`` are re-exported lazily: ``state`` is
imported by :mod:`repro.core.managers` itself, so importing them eagerly
here would close an import cycle.
"""

from __future__ import annotations

from repro.recovery.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointStore,
    CycleJournal,
    JournalRecord,
)
from repro.recovery.state import (
    Snapshottable,
    decode_array,
    encode_array,
    make_rng,
    restore_rng,
    rng_state,
    to_json,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "ControllerCrash",
    "ControllerHang",
    "CycleJournal",
    "Heartbeat",
    "JournalRecord",
    "RecoverableController",
    "Snapshottable",
    "Supervisor",
    "Watchdog",
    "decode_array",
    "encode_array",
    "make_rng",
    "restore_rng",
    "rng_state",
    "to_json",
]

_LAZY = {
    "RecoverableController": "repro.recovery.controller",
    "ControllerCrash": "repro.recovery.supervisor",
    "ControllerHang": "repro.recovery.supervisor",
    "Heartbeat": "repro.recovery.supervisor",
    "Supervisor": "repro.recovery.supervisor",
    "Watchdog": "repro.recovery.supervisor",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
