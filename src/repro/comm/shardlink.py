"""The arbiter's edge of a real TCP shard link.

:class:`TcpShardLink` implements the :class:`~repro.shard.lease.ShardLink`
contract over a nonblocking socket dialed at a shard-server's listener
(:mod:`repro.shard.process`).  Where the in-process loopback link fakes a
partition with a boolean, this one gets the real failure modes for free —
connection refused while the shard restarts, RST on a SIGKILLed peer,
buffered bytes delivered after the peer exited — and adds the two
behaviours a long-lived dialer needs:

* **reconnect with jittered exponential backoff**: a send or drain that
  finds the link down schedules the next dial attempt instead of
  blocking; attempts decorrelate across links so a restarted shard is
  not hit by a thundering herd;
* **assembler reset on reconnect**: a frame torn by a dead connection is
  discarded (:meth:`~repro.comm.wire.FrameAssembler.reset`) so it cannot
  prefix — and thereby corrupt — the first frame of the next session.

On every successful connect the link identifies itself with a
``{"type": "hello", "role": "arbiter"}`` document; the shard-server
answers with its own shard HELLO, which the arbiter's admission path
consumes (:meth:`repro.shard.arbiter.BudgetArbiter.admit`).

The link is symmetric on the wire — frames out, frames in — so both
edge pairs of the contract (``send_grant``/``take_summaries`` for the
arbiter, ``send_summary``/``take_grants`` for a dial-out shard) map onto
one send and one drain primitive.  Like the loopback link's arbiter
edge, it is driven from one thread: the fleet's, which hosts the arbiter
and fires partitions and heals.
"""

from __future__ import annotations

import random
import select
import socket
import time

from repro.comm.wire import FrameAssembler, FrameError, encode_frame
from repro.telemetry.log import ResilienceEventLog

__all__ = ["TcpShardLink"]

#: Per-drain receive chunk.
_RECV_BYTES = 65536


class TcpShardLink:
    """Dialing edge of the arbiter↔shard channel over real TCP.

    Args:
        address: ``(host, port)`` of the shard-server's listener.
        shard_id: shard index stamped on ``link_reconnect`` events.
        connect_timeout_s: dial timeout per attempt.
        send_timeout_s: bound on one blocking ``sendall``.
        backoff_base_s / backoff_max_s: reconnect backoff window; the
            delay after ``k`` failures is
            ``min(max, base * 2**k) * uniform(0.5, 1.5)``.
        seed: jitter stream seed (deterministic chaos drills).
        events: optional event log for ``link_reconnect`` (the fleet
            passes its own, stamped with its step).
    """

    def __init__(
        self,
        address: tuple[str, int],
        shard_id: int | None = None,
        connect_timeout_s: float = 2.0,
        send_timeout_s: float = 2.0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 1.0,
        seed: int = 0,
        events: ResilienceEventLog | None = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.shard_id = shard_id
        self.connect_timeout_s = float(connect_timeout_s)
        self.send_timeout_s = float(send_timeout_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.events = events
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._assembler = FrameAssembler()
        #: True while dialing is administratively suppressed.
        self.partitioned = False
        self._attempts = 0
        self._next_attempt_at = 0.0
        self._ever_connected = False
        #: Successful re-establishments after a drop.
        self.reconnects = 0
        #: Frame bytes accepted in both directions.
        self.bytes_total = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def partition(self) -> None:
        """Sever the link and refuse to redial until :meth:`heal`."""
        self.partitioned = True
        self.close()

    def heal(self) -> None:
        """Allow dialing again (the next send/drain reconnects)."""
        self.partitioned = False
        self._attempts = 0
        self._next_attempt_at = 0.0

    def close(self) -> None:
        """Drop the connection without suppressing future redials."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def wait_readable(self, timeout_s: float) -> bool:
        """Block (bounded) until the peer's next frame starts arriving.

        The lock-step fleet uses this to close the cross-socket race
        between a shard's summary (on this link) and its cycle ack (on
        the clock connection): the ack's arrival does not imply the
        summary already reached this socket's buffer.  Returns False
        when the link is down, suppressed, or stays quiet through the
        timeout — all cases the lease protocol already tolerates.
        """
        if self.partitioned or self._sock is None:
            return False
        try:
            readable, _, _ = select.select([self._sock], [], [], timeout_s)
        except (OSError, ValueError):
            return False
        return bool(readable)

    def _ensure_connected(self) -> bool:
        """Dial if down and due; returns True when a socket is live."""
        if self.partitioned:
            return False
        if self._sock is not None:
            return True
        now = time.monotonic()
        if now < self._next_attempt_at:
            return False
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
        except OSError:
            self._attempts += 1
            delay = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** min(self._attempts, 6)),
            )
            self._next_attempt_at = now + delay * (
                0.5 + self._rng.random()
            )
            return False
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A torn frame from the previous session must not corrupt this
        # one: the stream restarts at a frame boundary.
        self._assembler.reset()
        hello = encode_frame({"type": "hello", "role": "arbiter"})
        try:
            sock.settimeout(self.send_timeout_s)
            sock.sendall(hello)
        except OSError:
            sock.close()
            self._attempts += 1
            self._next_attempt_at = now + self.backoff_base_s
            return False
        sock.setblocking(False)
        self._sock = sock
        self._attempts = 0
        self._next_attempt_at = 0.0
        self.bytes_total += len(hello)
        if self._ever_connected:
            self.reconnects += 1
            if self.events is not None:
                self.events.emit(
                    "link_reconnect",
                    node_id=self.shard_id,
                    detail=(
                        f"reconnected to {self.address[0]}:"
                        f"{self.address[1]} (drop #{self.reconnects})"
                    ),
                )
        self._ever_connected = True
        return True

    # -- the ShardLink contract: each edge pair is one send, one drain ----

    def send_grant(self, doc: dict) -> bool:
        """Frame and send one document; False when it never hit the wire."""
        frame = encode_frame(doc)
        if not self._ensure_connected():
            return False
        sock = self._sock
        try:
            sock.settimeout(self.send_timeout_s)
            sock.sendall(frame)
        except OSError:
            self.close()
            return False
        finally:
            if self._sock is not None:
                self._sock.setblocking(False)
        self.bytes_total += len(frame)
        return True

    def take_summaries(self) -> list[dict]:
        """Drain everything the socket has ready and decode it.

        EOF and resets close the connection but still deliver the bytes
        that preceded them — a drained shard's final summary survives its
        process exit.
        """
        docs: list[dict] = []
        if not self._ensure_connected():
            return docs
        while self._sock is not None:
            try:
                data = self._sock.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                data = b""
            if not data:
                self.close()
                break
            self.bytes_total += len(data)
            try:
                docs.extend(self._assembler.feed(data))
            except FrameError:
                # The stream cannot be trusted past this point; drop the
                # connection and let the reconnect reset the assembler.
                self.close()
        return docs

    #: A dial-out shard's edge of the same channel.
    send_summary = send_grant
    take_grants = take_summaries
