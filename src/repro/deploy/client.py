"""The per-node DPS client daemon over real TCP sockets (paper §4.3).

``DeployClient`` is the deployable counterpart of
:class:`repro.comm.service.PowerClient`: it connects to the server,
registers its node's sockets, and services POLL → READINGS → CAPS cycles
until QUIT.  Power comes from its node's meters and caps land on its
node's RAPL domains — on real hardware those would be sysfs powercap
reads/writes; here they are the simulated domains, through the identical
code path.
"""

from __future__ import annotations

import socket
import threading

from repro.cluster.node import Node
from repro.comm.protocol import MSG_CAP, MSG_READING, decode, encode
from repro.deploy import framing

__all__ = ["DeployClient"]


class DeployClient:
    """Per-node daemon speaking the framed TCP protocol.

    Args:
        node: the node whose sockets this client meters and caps.
        address: server ``(host, port)``.
        dt_s: metering window passed to each power read.
        timeout_s: socket-operation timeout.
    """

    def __init__(
        self,
        node: Node,
        address: tuple[str, int],
        dt_s: float = 1.0,
        timeout_s: float = 5.0,
    ) -> None:
        if len(node.sockets) > 0xFF:
            raise ValueError("a client frame addresses at most 255 units")
        self.node = node
        self.address = address
        self.dt_s = dt_s
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
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
        framing.send_hello(
            self._sock, self.node.node_id, len(self.node.sockets)
        )

    def serve_forever(self) -> None:
        """Service cycles until QUIT or connection loss (blocking)."""
        assert self._sock is not None, "connect() first"
        sock = self._sock
        try:
            while True:
                tag = framing.recv_tag(sock)
                if tag == framing.FRAME_QUIT:
                    break
                if tag != framing.FRAME_POLL:
                    raise ValueError(f"unexpected frame tag {tag!r}")
                batch = []
                for local, unit in enumerate(self.node.sockets):
                    power = unit.meter.read_power_w(self.dt_s)
                    batch.append(
                        encode(MSG_READING, local, min(power, 409.5))
                    )
                framing.send_batch(sock, framing.FRAME_READINGS, batch)
                caps = framing.recv_batch(sock, framing.FRAME_CAPS)
                for payload in caps:
                    msg = decode(payload)
                    if msg.kind != MSG_CAP:
                        raise ValueError(f"expected cap, got {msg}")
                    self.node.sockets[msg.unit].domain.set_cap_w(msg.value_w)
                self.cycles_served += 1
        except ConnectionError:
            pass  # Server went away; a daemon exits quietly.
        finally:
            sock.close()
            self._sock = None

    # ------------------------------------------------------------------
    # Threaded convenience API (used by the loopback harness and tests).
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Connect and serve on a background thread."""

        def run() -> None:
            try:
                self.serve_forever()
            except BaseException as exc:  # Surfaced via `error`.
                self.error = exc

        self.connect()
        self._thread = threading.Thread(
            target=run, name=f"dps-client-{self.node.node_id}", daemon=True
        )
        self._thread.start()

    def kill(self) -> None:
        """Simulate a daemon crash: sever the connection without QUIT.

        The serving thread dies on the broken socket; :meth:`join` treats
        the resulting error as expected.  The node's hardware is
        untouched — its last programmed caps stay in effect, exactly like
        a killed daemon on a live machine.
        """
        self.killed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def join(self, timeout_s: float = 5.0) -> None:
        """Wait for the serving thread to exit.

        Raises:
            RuntimeError: the thread is still alive after the timeout, or
                the daemon died with an exception (killed daemons exit
                without raising).
        """
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"client {self.node.node_id} did not shut down"
                )
        if self.error is not None and not self.killed:
            raise RuntimeError(
                f"client {self.node.node_id} failed"
            ) from self.error
