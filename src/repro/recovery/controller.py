"""Recoverable controller: journaled, checkpointed manager proxy.

:class:`RecoverableController` wraps any bound
:class:`~repro.core.managers.PowerManager` and duck-types the surface the
deploy server and simulator drive (``n_units``, ``initial_cap_w``,
``max_cap_w``, ``caps``, ``step``), so either can run a recoverable
controller without knowing it.  Around every ``step`` it:

1. **journals the inputs first** — the reading (and demand) vector is
   durably appended *before* the manager sees it, so a crash mid-step is
   replayed, not lost;
2. steps the wrapped manager;
3. every ``checkpoint_every`` cycles, writes a full snapshot through the
   :class:`~repro.recovery.checkpoint.CheckpointStore` and truncates the
   journal (the tail before a checkpoint is dead weight).

``resume`` is the other half: load the newest valid checkpoint (falling
back across generations on corruption), restore the manager bit-exactly,
then re-``step`` it through the journal tail — after which the manager's
state, including its RNG stream position, equals the pre-crash state
exactly, and the journal holds that tail and nothing else.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.managers import PowerManager
from repro.recovery.checkpoint import CheckpointStore, CycleJournal
from repro.recovery.state import decode_array, encode_array
from repro.telemetry.log import ResilienceEventLog

__all__ = ["RecoverableController"]


class RecoverableController:
    """Checkpointing/journaling proxy around a power manager.

    Args:
        manager: the wrapped manager.  Must be bound before stepping
            (``resume`` binds it from the checkpoint).
        store: durable checkpoint store.
        journal: cycle journal (should live next to the store).
        checkpoint_every: cycles between checkpoints (>= 1).
        events: the run's event log; without one the controller keeps
            its own, stamped with :attr:`cycle`.
    """

    def __init__(
        self,
        manager: PowerManager,
        store: CheckpointStore,
        journal: CycleJournal,
        checkpoint_every: int = 10,
        events: ResilienceEventLog | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.manager = manager
        self.store = store
        self.journal = journal
        self.checkpoint_every = checkpoint_every
        self.events = events if events is not None else ResilienceEventLog(
            lambda: self.cycle
        )
        #: Completed control cycles (monotonic across restarts).
        self.cycle = 0
        #: Journal records replayed by the last ``resume`` (0 if none).
        self.replayed = 0

    @classmethod
    def open(
        cls,
        manager: PowerManager,
        directory: str | Path,
        *,
        checkpoint_every: int,
        keep: int = 3,
        events: ResilienceEventLog | None = None,
    ) -> RecoverableController:
        """A controller over ``directory``: ``keep`` checkpoint
        generations plus ``journal.log``, the one on-disk layout every
        caller shares (the directory is created if missing)."""
        directory = Path(directory)
        return cls(
            manager,
            CheckpointStore(directory, keep),
            CycleJournal(directory / "journal.log"),
            checkpoint_every=checkpoint_every,
            events=events,
        )

    # ------------------------------------------------------------------
    # The manager surface the server/simulator drives.
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.manager.name

    @property
    def requires_demand(self) -> bool:
        return self.manager.requires_demand

    @property
    def n_units(self) -> int:
        return self.manager.n_units

    @property
    def budget_w(self) -> float:
        return self.manager.budget_w

    @property
    def max_cap_w(self) -> float:
        return self.manager.max_cap_w

    @property
    def min_cap_w(self) -> float:
        return self.manager.min_cap_w

    @property
    def initial_cap_w(self) -> float:
        return self.manager.initial_cap_w

    @property
    def caps(self) -> np.ndarray:
        return self.manager.caps

    def set_budget_w(self, budget_w: float) -> None:
        """Apply a budget re-lease to the wrapped manager.

        The new budget is *not* journaled here: it rides the next cycle's
        journal record, so replay re-applies it at exactly the step where
        it first took effect.
        """
        self.manager.set_budget_w(budget_w)

    def step(
        self, power_w: np.ndarray, demand_w: np.ndarray | None = None
    ) -> np.ndarray:
        """Journal the inputs, step the manager, maybe checkpoint."""
        record: dict = {
            "power": encode_array(np.asarray(power_w, dtype=np.float64)),
            # The budget in force for this step.  Checkpoints capture it
            # via the manager binding; journaling it per record lets
            # replay re-apply mid-tail budget re-leases bit-exactly.
            "budget": float(self.manager.budget_w),
        }
        if demand_w is not None:
            record["demand"] = encode_array(
                np.asarray(demand_w, dtype=np.float64)
            )
        self.journal.append(self.cycle + 1, record)
        caps = self.manager.step(power_w, demand_w)
        self.cycle += 1
        if self.cycle % self.checkpoint_every == 0:
            self.checkpoint()
        return caps

    def close(self) -> None:
        """Release the journal's descriptor (a later step reopens it)."""
        self.journal.close()

    # ------------------------------------------------------------------
    # Checkpoint / resume.
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write one durable checkpoint generation and truncate the journal."""
        path = self.store.save(self.cycle, {"manager": self.manager.snapshot()})
        self.journal.truncate()
        self.events.emit(
            "checkpoint_written",
            detail=f"{path.name} @ cycle {self.cycle}",
        )

    def resume(self) -> bool:
        """Restore from the newest valid checkpoint and replay the journal.

        Either way the journal is left holding exactly the replayed tail
        (none on a cold start): a record before the checkpoint, or from
        the timeline a fallback to an older generation abandons, would
        otherwise sit in front of the next cycle's and hide it from the
        next resume.

        Returns:
            True if a checkpoint was restored; False when the store holds
            no usable generation (the caller starts cold — the wrapped
            manager keeps whatever binding it already has).
        """
        self.replayed = 0
        ckpt = self.store.load_latest()
        for rejected in self.store.last_rejected:
            self.events.emit("checkpoint_rejected", detail=rejected.name)
        if ckpt is None:
            self.journal.retain([])
            return False
        self.manager.restore(ckpt.payload["manager"])
        self.cycle = ckpt.cycle
        self.events.emit(
            "restore_performed",
            detail=f"{ckpt.path.name} @ cycle {ckpt.cycle}",
        )
        tail = self.journal.tail_after(ckpt.cycle)
        for rec in tail:
            power = decode_array(rec.data["power"])
            demand = (
                decode_array(rec.data["demand"])
                if "demand" in rec.data
                else None
            )
            # Records written before budget journaling carry no "budget"
            # key; the checkpoint binding's budget then stays in force.
            budget = rec.data.get("budget")
            if budget is not None and float(budget) != self.manager.budget_w:
                self.manager.set_budget_w(float(budget))
            self.manager.step(power, demand)
            self.cycle = rec.cycle
        self.journal.retain(tail)
        self.replayed = len(tail)
        if tail:
            self.events.emit(
                "journal_replayed",
                detail=f"{len(tail)} cycles "
                f"({ckpt.cycle + 1}..{self.cycle})",
            )
        return True
