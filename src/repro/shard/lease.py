"""Lease documents and the arbiter↔shard channel.

The arbiter and its shards speak framed JSON documents — the same
4-byte-length wire format the experiment plane uses
(:mod:`repro.comm.wire`) — over a :class:`ShardLink`.  The link is an
in-process loopback, but every document round-trips through
``encode_frame`` / ``FrameAssembler`` so the arbiter protocol is
wire-faithful byte for byte, and a link can be *partitioned*: frames
sent while partitioned are dropped at the sending edge in both
directions, exactly what a severed TCP path looks like to each end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.wire import FrameAssembler, encode_frame

__all__ = ["ArbiterConfig", "BudgetLease", "ShardLink", "ShardSummary"]


@dataclass(frozen=True)
class ArbiterConfig:
    """Knobs of the budget arbiter and its lease protocol.

    Attributes:
        period_cycles: control cycles between arbiter cycles (shards
            summarize and the arbiter redistributes on this cadence).
        lease_term_cycles: control cycles a lease stays valid without a
            renewal; a shard past the term freezes itself at its last
            confirmed committed power until a grant arrives.
        restore_threshold: when every shard's committed power is at or
            below this fraction of its proportional base lease, the
            arbiter *restores* all leases to base — the shard-level
            analog of :func:`repro.core.readjust.restore`.
        headroom_fraction: reclaim slack — a live shard's lease is drawn
            down toward ``committed * (1 + headroom_fraction)``, never
            to its exact committed power, so ordinary cycle-to-cycle
            variation does not thrash the leases.
        budget_epsilon: watts below which leftover budget is not worth
            redistributing (mirrors ``ReadjustConfig.budget_epsilon``).
    """

    period_cycles: int = 2
    lease_term_cycles: int = 6
    restore_threshold: float = 0.80
    headroom_fraction: float = 0.10
    budget_epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.period_cycles < 1:
            raise ValueError(
                f"period_cycles must be >= 1, got {self.period_cycles}"
            )
        if self.lease_term_cycles < self.period_cycles:
            raise ValueError(
                "lease_term_cycles must be >= period_cycles "
                f"({self.period_cycles}), got {self.lease_term_cycles}"
            )
        if not 0.0 < self.restore_threshold <= 1.0:
            raise ValueError(
                "restore_threshold must be in (0, 1], got "
                f"{self.restore_threshold}"
            )
        if self.headroom_fraction < 0.0:
            raise ValueError(
                "headroom_fraction must be >= 0, got "
                f"{self.headroom_fraction}"
            )
        if self.budget_epsilon <= 0.0:
            raise ValueError(
                f"budget_epsilon must be > 0, got {self.budget_epsilon}"
            )


@dataclass(frozen=True)
class BudgetLease:
    """One budget grant from the arbiter to a shard.

    Attributes:
        shard_id: the lessee.
        seq: per-shard monotonic grant sequence number; a shard applies
            only grants newer than its last applied one, and echoes the
            applied ``seq`` in every summary as the acknowledgement the
            arbiter's applied-view accounting keys on.
        budget_w: the leased budget (W).
        term_cycles: control cycles the lease stays valid without
            renewal.
    """

    shard_id: int
    seq: int
    budget_w: float
    term_cycles: int

    def to_doc(self) -> dict:
        return {
            "type": "grant",
            "shard": self.shard_id,
            "seq": self.seq,
            "budget_w": self.budget_w,
            "term": self.term_cycles,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BudgetLease":
        if doc.get("type") != "grant":
            raise ValueError(f"expected a grant document, got {doc.get('type')!r}")
        return cls(
            shard_id=int(doc["shard"]),
            seq=int(doc["seq"]),
            budget_w=float(doc["budget_w"]),
            term_cycles=int(doc["term"]),
        )


@dataclass(frozen=True)
class ShardSummary:
    """One shard's periodic report to the arbiter.

    Attributes:
        shard_id: the reporter.
        cycle: the shard's control cycle the report describes.
        seq: the lease sequence number the shard has applied (the
            acknowledgement; 0 before any grant beyond the initial one).
        lease_w: the shard's current lease (a frozen shard still reports
            the lease it will return to — its operating budget is the
            lower frozen value, recoverable as ``min(lease_w,
            committed_w)`` since freezing clamps the budget there).
        committed_w: steady-state committed power of the shard's
            envelope (W) — what its hardware will hold once this cycle's
            dispatch lands.
        worst_w: worst-case committed power of the shard's envelope (W).
        headroom_w: ``lease_w - committed_w``.
        high_priority: True when the shard is running high-priority
            demand (its manager reports priority units, or utilization
            is near the lease).
        n_units: power-capping units the shard owns.
        frozen: True while the shard has frozen itself after a lease
            expiry.
        final: True on the last summary of a draining shard — the
            arbiter reclaims the shard's budget only once a summary with
            both ``final`` and ``frozen`` set has arrived (the shard's
            acknowledgement that its hardware is pinned at the frozen
            power and will never rise again).
    """

    shard_id: int
    cycle: int
    seq: int
    lease_w: float
    committed_w: float
    worst_w: float
    headroom_w: float
    high_priority: bool
    n_units: int
    frozen: bool
    final: bool = False

    def to_doc(self) -> dict:
        return {
            "type": "summary",
            "shard": self.shard_id,
            "cycle": self.cycle,
            "seq": self.seq,
            "lease_w": self.lease_w,
            "committed_w": self.committed_w,
            "worst_w": self.worst_w,
            "headroom_w": self.headroom_w,
            "high_priority": self.high_priority,
            "n_units": self.n_units,
            "frozen": self.frozen,
            "final": self.final,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardSummary":
        if doc.get("type") != "summary":
            raise ValueError(
                f"expected a summary document, got {doc.get('type')!r}"
            )
        return cls(
            shard_id=int(doc["shard"]),
            cycle=int(doc["cycle"]),
            seq=int(doc["seq"]),
            lease_w=float(doc["lease_w"]),
            committed_w=float(doc["committed_w"]),
            worst_w=float(doc["worst_w"]),
            headroom_w=float(doc["headroom_w"]),
            high_priority=bool(doc["high_priority"]),
            n_units=int(doc["n_units"]),
            frozen=bool(doc["frozen"]),
            final=bool(doc.get("final", False)),
        )


class ShardLink:
    """Duplex arbiter↔shard channel with wire-faithful framing.

    Both edges live on one thread: the arbiter on the fleet's, the
    shard on the same thread when its cycle runs.  Documents are
    serialized to real frames at the sending edge and reassembled at the
    receiving edge, so a protocol bug (oversized frame, malformed body)
    fails here exactly as it would over TCP.

    A partitioned link drops frames at send time in both directions —
    the sender learns nothing (``send_*`` still returns False so the
    *caller* can account for the unsent grant; a real sender would learn
    it only later, which is why the arbiter's envelope records a
    dispatch only for accepted sends).
    """

    def __init__(self) -> None:
        self._to_shard: list[bytes] = []
        self._to_arbiter: list[bytes] = []
        self._shard_assembler = FrameAssembler()
        self._arbiter_assembler = FrameAssembler()
        #: True while the link drops every frame.
        self.partitioned = False
        #: Frame bytes accepted in both directions.
        self.bytes_total = 0
        #: Re-dials performed; an in-memory link has no session to lose.
        self.reconnects = 0

    def partition(self) -> None:
        """Sever the link (idempotent)."""
        self.partitioned = True

    def heal(self) -> None:
        """Restore the link (idempotent).  Frames dropped while
        partitioned are gone — the protocol must re-send, not replay."""
        self.partitioned = False

    def close(self) -> None:
        """Release the link (nothing to release in memory)."""

    # -- arbiter edge ---------------------------------------------------

    def wait_readable(self, timeout_s: float) -> bool:
        """Whether a summary frame is queued toward the arbiter.

        The TCP link blocks here for a frame still on the wire; in
        memory a sent frame is queued before ``send_summary`` returns,
        so there is never anything to wait for.
        """
        del timeout_s
        return bool(self._to_arbiter)

    def send_grant(self, doc: dict) -> bool:
        """Frame and enqueue one grant toward the shard.

        Returns False when the link is partitioned (frame dropped).
        """
        return self._send(self._to_shard, doc)

    def take_summaries(self) -> list[dict]:
        """Drain and decode every summary frame queued toward the arbiter."""
        frames, self._to_arbiter = self._to_arbiter, []
        return _decode(self._arbiter_assembler, frames)

    # -- shard edge -----------------------------------------------------

    def send_summary(self, doc: dict) -> bool:
        """Frame and enqueue one summary toward the arbiter.

        Returns False when the link is partitioned (frame dropped).
        """
        return self._send(self._to_arbiter, doc)

    def take_grants(self) -> list[dict]:
        """Drain and decode every grant frame queued toward the shard."""
        frames, self._to_shard = self._to_shard, []
        return _decode(self._shard_assembler, frames)

    def _send(self, outbox: list[bytes], doc: dict) -> bool:
        frame = encode_frame(doc)
        if self.partitioned:
            return False
        outbox.append(frame)
        self.bytes_total += len(frame)
        return True


def _decode(assembler: FrameAssembler, frames: list[bytes]) -> list[dict]:
    docs: list[dict] = []
    for frame in frames:
        docs.extend(assembler.feed(frame))
    return docs
