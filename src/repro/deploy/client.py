"""The per-node DPS client daemon over real TCP sockets (paper §4.3).

``DeployClient`` is the deployable counterpart of
:class:`repro.comm.service.PowerClient`: it connects to the server,
registers its node's sockets, and services POLL → READINGS → CAPS cycles
until QUIT.  Power comes from its node's meters and caps land on its
node's RAPL domains — on real hardware those would be sysfs powercap
reads/writes; here they are the simulated domains, through the identical
code path.  A node's readings and caps each cross as one batch, packed or
unpacked in one call.  Between cycles a daemon waits without a deadline.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro.cluster.node import Node
from repro.comm import protocol
from repro.comm.wire import FrameAssembler, encode_frame, encode_words, recv_frame

__all__ = ["DeployClient"]


class DeployClient:
    """Per-node daemon speaking the framed TCP protocol.

    Args:
        node: the node whose sockets this client meters and caps.
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
        self.node = node
        self.address = address
        self.dt_s = dt_s
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        #: Notified whenever ``cycles_served``, ``killed`` or ``_exited`` move.
        self._progress = threading.Condition()
        self.cycles_served = 0
        self.error: BaseException | None = None
        self.killed = False
        self._exited = False

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
        self._sock.sendall(
            encode_frame(protocol.hello(self.node.node_id, len(self.node.sockets)))
        )

    def serve_forever(self) -> None:
        """Service cycles until QUIT or connection loss (blocking)."""
        assert self._sock is not None, "connect() first"
        sock = self._sock
        frames = FrameAssembler()
        try:
            while True:
                try:
                    doc = recv_frame(sock, frames)
                except TimeoutError:
                    if frames.pending_bytes:
                        raise
                    continue  # Idle between cycles: not a fault.
                if doc == protocol.QUIT:
                    break
                if doc != protocol.POLL:
                    raise ValueError(f"expected POLL, got {doc!r}")
                power = np.array(
                    [u.meter.read_power_w(self.dt_s) for u in self.node.sockets]
                )
                words = protocol.encode_batch(
                    protocol.MSG_READING, np.minimum(power, 409.5)
                )
                sock.sendall(encode_words(words))
                kinds, units, values = protocol.decode_batch(
                    recv_frame(sock, frames)["words"]
                )
                if kinds.min() != protocol.MSG_CAP:  # The highest valid kind.
                    raise ValueError("expected cap messages only")
                for unit, cap_w in zip(units.tolist(), values.tolist()):
                    self.node.sockets[unit].domain.set_cap_w(cap_w)
                with self._progress:
                    self.cycles_served += 1
                    self._progress.notify_all()
        except ConnectionError:
            pass  # Server went away; a daemon exits quietly.
        finally:
            sock.close()
            self._sock = None

    def wait_served(self, past: int, timeout_s: float) -> None:
        """Block until more than ``past`` cycles are served, the daemon
        has died or exited, or ``timeout_s`` elapses."""
        with self._progress:
            self._progress.wait_for(
                lambda: self.cycles_served > past or self.killed or self._exited,
                timeout_s,
            )

    # ------------------------------------------------------------------
    # Threaded convenience API (used by the client plane and tests).
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Connect and serve on a background thread."""

        def run() -> None:
            try:
                self.serve_forever()
            except BaseException as exc:  # Surfaced via `error`.
                self.error = exc
            finally:
                with self._progress:
                    self._exited = True
                    self._progress.notify_all()

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
        with self._progress:
            self.killed = True
            self._progress.notify_all()
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
