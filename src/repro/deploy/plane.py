"""The client plane: every node daemon of one deploy-server attempt.

Every harness that drives a :class:`~repro.deploy.server.DeployServer`
over real sockets — a thread-mode shard, a ``shard-server`` process, a
test session — needs the same five
things around it: one :class:`~repro.deploy.client.DeployClient` thread
per node, registration of all of them before the first cycle, a barrier
that holds each cycle open until its caps are on the domains, daemon
kill/reconnect for chaos, and a teardown that outlives a crashed
controller.  :class:`ClientPlane` is that, once.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro.cluster.node import Node
from repro.deploy.client import DeployClient
from repro.deploy.server import DeployServer
from repro.resilience.health import HealthState

__all__ = ["ClientPlane"]

T = TypeVar("T")


class ClientPlane:
    """One daemon per node, registered with ``server`` on construction.

    The plane owns the server's shutdown: leaving the ``with`` block (or
    calling :meth:`close`) sends QUIT to every daemon, closes the
    server's sockets and joins every daemon thread.

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
        self._current: dict[int, DeployClient] = {}
        try:
            #: The daemons started here, in node order (a reconnect
            #: replaces a node's *current* daemon, never this record).
            self.originals = [self._spawn(node) for node in nodes]
            # Blocks until every daemon has said HELLO, so no control
            # decision happens before the plane is fully registered.
            server.accept_clients(len(self.originals))
        except BaseException:
            self.close(quiet=True)
            raise

    def _spawn(self, node: Node) -> DeployClient:
        client = DeployClient(node, self.server.address, dt_s=self.dt_s)
        client.start()
        self._spawned.append(client)
        self._current[node.node_id] = client
        return client

    def kill(self, node_id: int) -> None:
        """Crash a node's daemon (socket severed without QUIT)."""
        self._current[node_id].kill()

    def reconnect(self, node_id: int) -> None:
        """Start a fresh daemon for the node; it HELLO-rejoins."""
        self._spawn(self._nodes[node_id])

    def cycle(self, run: Callable[[], T]) -> T:
        """Run one control cycle; return once its caps are applied.

        ``control_cycle`` returns once the cap frames are *written*; the
        daemons program them asynchronously.  Leaving that race in the
        harness would make session power — and every quality measurement
        built on it — depend on thread scheduling, so physics advance only
        after this cycle's caps are on the domains: each healthy daemon is
        awaited (:meth:`DeployClient.wait_served`) under one 1 s deadline.
        A daemon also signals its kill and its exit, so a dead one never
        costs the deadline.

        Args:
            run: performs exactly one ``server.control_cycle()`` (directly
                or wrapped, e.g. a shard's lease bookkeeping around it).
        """
        served = {node_id: c.cycles_served for node_id, c in self._current.items()}
        result = run()
        deadline = time.monotonic() + 1.0
        for node_id, health in self.server.health.items():
            client = self._current.get(node_id)
            if health is HealthState.HEALTHY and client is not None:
                client.wait_served(
                    served[node_id], max(deadline - time.monotonic(), 0.0)
                )
        return result

    def close(self, quiet: bool = False) -> None:
        """Shut the server down and join every daemon (idempotent).

        Args:
            quiet: swallow daemon failures.  A daemon of a crashed
                controller dies on its broken socket; that must not mask
                the crash being handled.

        Raises:
            RuntimeError: a daemon failed or would not exit, unless
                ``quiet``.
        """
        self.server.shutdown()
        spawned, self._spawned = self._spawned, []
        failure: RuntimeError | None = None
        for client in spawned:
            try:
                client.join()
            except RuntimeError as exc:
                failure = failure or exc
        if failure is not None and not quiet:
            raise failure

    def __enter__(self) -> "ClientPlane":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self.close(quiet=exc_type is not None)
