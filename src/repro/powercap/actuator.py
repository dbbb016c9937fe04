"""Cap actuation across a range of RAPL domains.

The paper's clients receive cap commands from the server and program them
into RAPL; commands computed from the readings of interval *t* take effect
for interval *t+1*.  :class:`CapActuator` models exactly that one-interval
command pipeline (optionally zero-delay for idealized studies) plus command
quantization to whole microwatts, and counts how many caps actually changed
— the quantity the stateless module's ``set_flag`` tracks and the §6.5
overhead analysis charges for.

The actuated domains are one unit range of a
:class:`~repro.powercap.rapl.RaplBank`, and each command is one bulk write
of that range.  With ``verify=True`` every write is checked by reading the
limits back (the powercap sysfs returns what actually got programmed); the
units that did not take are rewritten up to ``max_retries`` times with
bounded backoff, and exhaustion is *reported, never raised* — an
unverifiable unit must degrade the telemetry, not kill the control loop.
Verification outcomes are ``actuation_*`` events in :attr:`events`, the
run's event log.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.powercap.rapl import RaplDomain, bank_span
from repro.recovery.state import decode_array, encode_array
from repro.telemetry.log import ResilienceEventLog

__all__ = ["CapActuator"]

#: Largest cap that is still a finite number of microwatts.
_MAX_CAP_W = sys.float_info.max / 1e6


class CapActuator:
    """Applies per-unit cap vectors to RAPL domains.

    Args:
        domains: the domains actuated, one per unit, in unit order:
            consecutive units of one bank.
        delay_steps: number of control intervals between a command being
            issued and it taking effect (0 = immediate, 1 = next interval,
            matching a networked client).
        verify: read each programmed limit back and retry on mismatch.
        max_retries: bounded retry budget per unit per command (>= 0).
        backoff_s: sleep before the first retry, doubled per attempt
            (0.0 — the default — never sleeps; simulations retry
            immediately, hardware deployments pass a real base delay).
        events: the run's event log; without one the actuator keeps its
            own, stamped with the number of commands applied so far.
    """

    def __init__(
        self,
        domains: list[RaplDomain],
        delay_steps: int = 0,
        verify: bool = False,
        max_retries: int = 3,
        backoff_s: float = 0.0,
        events: ResilienceEventLog | None = None,
    ) -> None:
        if not domains:
            raise ValueError("at least one domain is required")
        if delay_steps < 0:
            raise ValueError(f"delay_steps must be >= 0, got {delay_steps}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        span = bank_span(domains)
        if span is None:
            raise ValueError("domains must be consecutive units of one bank")
        self._bank, self._span = span
        self.n_units = len(domains)
        self.delay_steps = delay_steps
        self.verify = verify
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._pipeline: list[np.ndarray] = []
        self.commands_applied = 0
        #: Write retries performed across all units (verify mode).
        self.retries = 0
        #: Commands whose verification exhausted the retry budget.
        self.verify_failures = 0
        self.events = events if events is not None else ResilienceEventLog(
            lambda: self.commands_applied // self.n_units
        )

    @property
    def pending(self) -> list[np.ndarray]:
        """Copies of the queued (not yet applied) command vectors, oldest
        first — the in-flight pipeline a crash would lose."""
        return [caps.copy() for caps in self._pipeline]

    def reset(self) -> None:
        """Drop all in-flight commands and counters (the event log keeps
        what happened).

        Required between runs that reuse one actuator: without it, stale
        queued commands from the previous run would actuate into the next
        one's first intervals.
        """
        self._pipeline.clear()
        self.commands_applied = 0
        self.retries = 0
        self.verify_failures = 0

    def issue(self, caps_w: np.ndarray) -> int:
        """Issue a cap command vector; apply whatever is due this interval.

        Args:
            caps_w: per-unit caps (W), shape ``(n_units,)``.

        Returns:
            Number of domains whose effective limit changed this interval.

        Raises:
            ValueError: wrong shape, or a cap that is not a finite number
                of microwatts.  Nothing is queued and no domain is touched:
                a vector applied up to its first bad entry is partly
                raised and partly un-lowered, the budget over-commit the
                actuator exists to prevent.
        """
        caps = np.asarray(caps_w, dtype=np.float64)
        if caps.shape != (self.n_units,):
            raise ValueError(f"caps shape {caps.shape} != ({self.n_units},)")
        if not np.abs(caps).max() <= _MAX_CAP_W:
            bad = np.flatnonzero(~(np.abs(caps) <= _MAX_CAP_W))
            raise ValueError(
                f"non-finite caps {caps[bad].tolist()} for units "
                f"{bad.tolist()}; nothing was queued or programmed"
            )
        self._pipeline.append(caps.copy())
        if len(self._pipeline) <= self.delay_steps:
            return 0
        return self._apply(self._pipeline.pop(0))

    def _apply(self, due: np.ndarray) -> int:
        self.commands_applied += self.n_units
        # Quantize to whole microwatts, as a sysfs write would.  rint is
        # round()'s half-to-even; adding 0.0 turns its -0.0 into the 0.0
        # that dividing Python's integer 0 gives.
        bank, span = self._bank, self._span
        quantized = (np.rint(due * 1e6) + 0.0) / 1e6
        before = bank.cap_w[span].copy()
        bank.set_caps_w(quantized, span)
        if self.verify:
            self._verify(quantized)
        return int(np.count_nonzero(bank.cap_w[span] != before))

    def _verify(self, quantized: np.ndarray) -> None:
        """Read the range's limits back; rewrite the ones that did not take."""
        bank, span = self._bank, self._span
        # What a correct write must read back: the sysfs clamp of the
        # requested limit to the accepted range.
        expected = np.minimum(
            np.maximum(quantized, bank.min_power_w), bank.max_power_w
        )
        missed = np.flatnonzero(bank.cap_w[span] != expected)
        delay = self.backoff_s
        for attempt in range(1, self.max_retries + 1):
            if not missed.size:
                return
            if delay > 0:
                time.sleep(delay)
                delay *= 2.0
            self.retries += missed.size
            caps = bank.cap_w[span].copy()
            caps[missed] = quantized[missed]
            bank.set_caps_w(caps, span)
            took = bank.cap_w[span][missed] == expected[missed]
            detail = f"verified after {attempt} retr{'y' if attempt == 1 else 'ies'}"
            for unit in missed[took].tolist():
                self.events.emit("actuation_retried", unit=unit, detail=detail)
            missed = missed[~took]
        read = bank.cap_w[span]
        for unit in missed.tolist():
            self.verify_failures += 1
            self.events.emit(
                "actuation_retry_exhausted",
                unit=unit,
                detail=f"cap {quantized[unit]:.3f} W unverified after "
                f"{self.max_retries} retries (read {read[unit]:.3f} W)",
            )

    def flush(self) -> None:
        """Apply all queued commands immediately (end-of-run cleanup)."""
        while self._pipeline:
            self._apply(self._pipeline.pop(0))

    def snapshot(self) -> dict:
        """JSON-able document of the in-flight pipeline and counters."""
        return {
            "pipeline": [encode_array(caps) for caps in self._pipeline],
            "commands_applied": self.commands_applied,
            "retries": self.retries,
            "verify_failures": self.verify_failures,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the pipeline and counters with a snapshot's content."""
        pipeline = [decode_array(doc) for doc in state["pipeline"]]
        for caps in pipeline:
            if caps.shape != (self.n_units,):
                raise ValueError(
                    f"snapshot command shape {caps.shape} != "
                    f"({self.n_units},)"
                )
        self._pipeline = pipeline
        self.commands_applied = int(state["commands_applied"])
        self.retries = int(state.get("retries", 0))
        self.verify_failures = int(state.get("verify_failures", 0))
