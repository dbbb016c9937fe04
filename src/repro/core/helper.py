"""One lazily started daemon thread that runs one job at a time.

Not an executor: one built before ``fork`` hangs in the child, and the
campaign engine's process pool forks.  A forked child resets every helper;
the fork hook keeps a helper, like its thread, for the life of the process.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Any, Callable

__all__ = ["HelperThread"]


class HelperThread:
    """:meth:`submit` joins the job before it, so jobs run in order and a
    failed one is raised at the next submit or :meth:`join`.  Owners in
    several threads hold :attr:`owner` from submit to join."""

    def __init__(self) -> None:
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.owner = threading.Lock()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._pending = False

    def submit(self, fn: Callable, *args: Any) -> None:
        """Start ``fn(*args)`` on the helper thread."""
        self.join()
        if self._thread is None:
            self._thread = threading.Thread(
                target=_serve, args=(self._jobs, self._done), daemon=True
            )
            self._thread.start()
        self._pending = True
        self._jobs.put((fn, args))

    def join(self) -> Any:
        """The pending job's result (None without one), or its error."""
        if not self._pending:
            return None
        self._pending = False
        ok, value = self._done.get()
        if not ok:
            raise value
        return value


def _serve(jobs: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    while True:
        fn, args = jobs.get()
        try:
            done.put((True, fn(*args)))
        except BaseException as exc:  # Raised again by join().
            done.put((False, exc))
        fn = args = None  # Keep nothing of a job past its end.
