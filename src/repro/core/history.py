"""Fixed-length power-history buffer shared by the DPS modules.

The paper's server keeps "a short range of estimated power history of each
socket, default 20 time steps" (§6.5) — small enough to live in cache at any
cluster scale.  This ring buffer stores the estimates column-per-unit in one
contiguous ``(history_len, n_units)`` array and hands out chronological
views without reallocating in the steady state.
"""

from __future__ import annotations

import numpy as np

from repro.recovery.state import encode_array, read_leaf

__all__ = ["HistoryBuffer"]


class HistoryBuffer:
    """Ring buffer of per-unit power samples.

    Args:
        history_len: maximum number of samples retained.
        n_units: number of units (columns).
    """

    def __init__(self, history_len: int, n_units: int) -> None:
        if history_len < 1:
            raise ValueError(f"history_len must be >= 1, got {history_len}")
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self.history_len = history_len
        self.n_units = n_units
        # Double-write ring: every sample is stored at ring slot `head` AND
        # at `head + history_len`, so the chronological window is always the
        # contiguous row range [head, head + count) — chronological() hands
        # out zero-copy views even after the ring wraps, at the cost of one
        # extra row write per push (a row is tiny next to unrolling the
        # whole (history_len, n_units) ring every control step).
        self._data = np.zeros((2 * history_len, n_units), dtype=np.float64)
        self._count = 0
        self._head = 0  # Index the next sample is written to.

    def __len__(self) -> int:
        """Number of samples currently stored (<= history_len)."""
        return self._count

    @property
    def full(self) -> bool:
        """True once `history_len` samples have been pushed."""
        return self._count == self.history_len

    def reset(self) -> None:
        """Drop all samples."""
        self._data.fill(0.0)
        self._count = 0
        self._head = 0

    def snapshot(self) -> dict:
        """JSON-able document of the ring contents and cursor.

        Only the logical ring (the first ``history_len`` rows) is encoded;
        the doubled rows are derived storage and are rebuilt on restore.
        """
        return {
            "data": encode_array(self._data[: self.history_len]),
            "count": self._count,
            "head": self._head,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the ring with a snapshot's content."""
        data = read_leaf(state["data"])
        if data.shape != (self.history_len, self.n_units):
            raise ValueError(
                f"snapshot shape {data.shape} != "
                f"{(self.history_len, self.n_units)}"
            )
        count = int(state["count"])
        head = int(state["head"])
        if not 0 <= count <= self.history_len or not 0 <= head < self.history_len:
            raise ValueError(
                f"snapshot cursor count={count} head={head} out of range"
            )
        self._data[: self.history_len] = data
        self._data[self.history_len :] = data
        self._count = count
        self._head = head

    def push(self, sample: np.ndarray) -> None:
        """Append one per-unit sample, evicting the oldest when full.

        Args:
            sample: shape ``(n_units,)``.
        """
        s = np.asarray(sample, dtype=np.float64)
        if s.shape != (self.n_units,):
            raise ValueError(f"sample shape {s.shape} != ({self.n_units},)")
        self._data[self._head] = s
        self._data[self._head + self.history_len] = s
        self._head = (self._head + 1) % self.history_len
        if self._count < self.history_len:
            self._count += 1

    def chronological(self) -> np.ndarray:
        """Stored samples in order, oldest first, shape ``(len, n_units)``.

        Always a zero-copy read-only view of the double-write storage:
        during warm-up the first ``count`` rows, afterwards the contiguous
        window starting at the ring head.  The view is only valid until
        the next :meth:`push` call; copy it to retain.
        """
        if self._count < self.history_len:
            view = self._data[: self._count].view()
        else:
            view = self._data[self._head : self._head + self.history_len]
        view.flags.writeable = False
        return view

    def latest(self) -> np.ndarray:
        """The most recent sample, shape ``(n_units,)``.

        Raises:
            IndexError: if the buffer is empty.
        """
        if self._count == 0:
            raise IndexError("history buffer is empty")
        return self._data[(self._head - 1) % self.history_len].copy()
