"""The per-node DPS client daemon over real TCP sockets (paper §4.3).

``DeployClient`` is the node side of the control plane: it connects to
the server, registers its node's sockets, and answers POLL → READINGS →
CAPS cycles until QUIT.  Power comes from its node's meters and caps land
on its node's RAPL domains — on real hardware those would be sysfs
powercap reads/writes; here they are the node's unit range of the
simulated bank, read and programmed in one bulk call each.  A node's
readings and caps each cross as one batch, packed or unpacked in one
call.

The daemon is a step function, not a thread: :meth:`DeployClient.pump`
handles the one frame the server has just written to its connection.
A :class:`~repro.deploy.plane.ClientPlane` attaches every daemon to its
server, which pumps it right after each POLL, CAPS and QUIT it writes —
so a cycle's caps are on the domains when ``control_cycle`` returns.
"""

from __future__ import annotations

import socket

import numpy as np

from repro.cluster.node import Node
from repro.comm import protocol
from repro.comm.wire import FrameAssembler, encode_frame, encode_words, recv_frame
from repro.powercap.rapl import bank_span

__all__ = ["DeployClient"]


class DeployClient:
    """Per-node daemon speaking the framed TCP protocol.

    Args:
        node: the node whose sockets this client meters and caps:
            consecutive units of one bank.
        address: server ``(host, port)``.
        dt_s: metering window passed to each power read.
        timeout_s: socket-operation timeout once a frame has begun.
    """

    def __init__(
        self,
        node: Node,
        address: tuple[str, int],
        dt_s: float = 1.0,
        timeout_s: float = 5.0,
    ) -> None:
        span = bank_span([s.domain for s in node.sockets])
        if span is None:
            raise ValueError(
                f"node {node.node_id}'s sockets are not one range of a bank"
            )
        self.node = node
        self._bank, self._span = span
        self.address = address
        self.dt_s = dt_s
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._frames = FrameAssembler()
        #: This end's address once connected: the peer the server sees.
        self.local_address: tuple | None = None
        self.cycles_served = 0
        self.error: BaseException | None = None
        self.killed = False

    def connect(self) -> None:
        """Connect and register with the server."""
        self._sock = socket.create_connection(
            self.address, timeout=self.timeout_s
        )
        try:
            # 3-byte messages once a second are the worst case for
            # Nagle + delayed-ACK stalls; the server disables it too.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.local_address = self._sock.getsockname()
        self._sock.sendall(
            encode_frame(protocol.hello(self.node.node_id, len(self.node.sockets)))
        )

    def pump(self) -> None:
        """Handle the one frame the server just wrote to this connection.

        POLL is answered with the node's READINGS batch, CAPS programmed
        onto its domains (one more cycle served), QUIT closes the
        connection.  Nothing raises: a fault is kept in :attr:`error` and
        closes this end, so the server quarantines the node on its next
        read; a vanished server closes it quietly.
        """
        sock = self._sock
        if sock is None:
            return
        try:
            doc = recv_frame(sock, self._frames)
            if doc == protocol.QUIT:
                self.close()
            elif doc == protocol.POLL:
                power = self._bank.read_powers_w(self.dt_s, self._span)
                words = protocol.encode_batch(
                    protocol.MSG_READING, np.minimum(power, 409.5)
                )
                sock.sendall(encode_words(words))
            elif "words" in doc:
                self.apply_caps(doc["words"])
                self.cycles_served += 1
            else:
                raise ValueError(f"expected POLL, CAPS or QUIT, got {doc!r}")
        except ConnectionError:
            self.close()  # Server went away; a daemon exits quietly.
        except Exception as exc:
            self.error = exc
            self.close()

    def apply_caps(self, words: bytes) -> None:
        """Program one CAPS batch onto the node's domains, all or none.

        The whole batch is checked before any domain is touched, so a
        rejected batch leaves every cap as it was.

        Raises:
            ValueError: an empty batch, a non-cap message, or a cap for a
                local unit this node does not have.
        """
        kinds, units, values = protocol.decode_batch(words)
        if not kinds.size:
            raise ValueError("empty cap batch")
        if kinds.min() != protocol.MSG_CAP:  # The highest valid kind.
            raise ValueError("expected cap messages only")
        n_local = len(self.node.sockets)
        if units.max() >= n_local:
            raise ValueError(
                f"cap for unknown local unit {units[units >= n_local][0]} "
                f"on node {self.node.node_id}"
            )
        caps = self._bank.cap_w[self._span].copy()
        caps[units] = values
        self._bank.set_caps_w(caps, self._span)

    def close(self) -> None:
        """Close this end of the connection (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def kill(self) -> None:
        """Simulate a daemon crash: sever the connection without QUIT.

        The node's hardware is untouched — its last programmed caps stay
        in effect, exactly like a killed daemon on a live machine.
        """
        self.killed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.close()
