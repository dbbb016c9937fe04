"""The client plane: every node daemon of one deploy-server attempt.

Every harness that drives a :class:`~repro.deploy.server.DeployServer`
over real sockets — a thread-mode shard, a ``shard-server`` process, a
test session — needs the same four things around it: one
:class:`~repro.deploy.client.DeployClient` per node, attached to the
server so it answers on the controller's thread right after each frame
the server writes to it; registration of all of them before the first
cycle; daemon kill/reconnect for chaos; and a teardown that outlives a
crashed controller.  :class:`ClientPlane` is that, once.  Because every
daemon programs its caps before ``control_cycle`` returns, the caller
steps physics straight after it.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.node import Node
from repro.deploy.client import DeployClient
from repro.deploy.server import DeployServer

__all__ = ["ClientPlane"]


class ClientPlane:
    """One daemon per node, registered with ``server`` on construction.

    The plane owns the server's shutdown: leaving the ``with`` block (or
    calling :meth:`close`) sends QUIT to every daemon, closes the
    server's sockets and every daemon's.

    Args:
        server: the attempt's deploy server (listening, no clients yet).
        nodes: the nodes whose daemons to run, one client apiece.
        dt_s: metering window of every daemon.
    """

    def __init__(
        self, server: DeployServer, nodes: Sequence[Node], dt_s: float
    ) -> None:
        self.server = server
        self.dt_s = dt_s
        self._nodes = {node.node_id: node for node in nodes}
        self._spawned: list[DeployClient] = []
        #: The daemons started here, in node order (a reconnect
        #: replaces a node's *current* daemon, never this record).
        self.originals: list[DeployClient] = []
        try:
            # Each daemon is registered before the next connects, so the
            # listen backlog never bounds the plane's size, and no control
            # decision happens before the plane is fully registered.
            for node in nodes:
                self.originals.append(self._spawn(node))
                server.accept_clients(1)
        except BaseException:
            self.close(quiet=True)
            raise

    def _spawn(self, node: Node) -> DeployClient:
        client = DeployClient(node, self.server.address, dt_s=self.dt_s)
        self._spawned.append(client)
        client.connect()
        self.server.attach(client.local_address, client.pump)
        return client

    def kill(self, node_id: int) -> None:
        """Crash a node's current daemon (socket severed without QUIT)."""
        client = next(
            c for c in reversed(self._spawned) if c.node.node_id == node_id
        )
        self.server.detach(client.local_address)
        client.kill()

    def reconnect(self, node_id: int) -> None:
        """Start a fresh daemon for the node; it HELLO-rejoins."""
        self._spawn(self._nodes[node_id])

    def close(self, quiet: bool = False) -> None:
        """Shut the server down and close every daemon (idempotent).

        Args:
            quiet: swallow daemon failures.  A daemon of a crashed
                controller may die on its broken socket; that must not
                mask the crash being handled.

        Raises:
            RuntimeError: a daemon failed (its fault is the cause),
                unless ``quiet``.
        """
        self.server.shutdown()
        spawned, self._spawned = self._spawned, []
        for client in spawned:
            client.close()
        failed = [c for c in spawned if c.error is not None and not c.killed]
        if failed and not quiet:
            raise RuntimeError(
                f"client {failed[0].node.node_id} failed"
            ) from failed[0].error

    def __enter__(self) -> "ClientPlane":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self.close(quiet=exc_type is not None)
