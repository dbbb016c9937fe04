"""Controller crash-recovery: state protocol, checkpoints, journaling.

Layout:

* :mod:`~repro.recovery.state` — bit-exact array/RNG serialization and the
  ``snapshot()/restore()`` protocol;
* :mod:`~repro.recovery.checkpoint` — durable checkpoint store and the
  bounded cycle journal;
* :mod:`~repro.recovery.controller` — the journaling/checkpointing
  manager proxy.

Restarts are driven by :class:`~repro.shard.fleet.Fleet`, which keeps
the only restart bookkeeping.  ``controller`` is re-exported lazily:
``state`` is imported by :mod:`repro.core.managers` itself, so importing
it eagerly here would close an import cycle.
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
    "CycleJournal",
    "JournalRecord",
    "RecoverableController",
    "Snapshottable",
    "decode_array",
    "encode_array",
    "make_rng",
    "restore_rng",
    "rng_state",
    "to_json",
]

_LAZY = {
    "RecoverableController": "repro.recovery.controller",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
