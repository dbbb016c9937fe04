"""Server/client control plane over the simulated network (paper §4.3, §6.5).

DPS "consists of a server on a central node and clients on each computing
node": clients read power and set caps for their sockets; the server runs
the control system.  :class:`PowerClient` and :class:`PowerServer` implement
that split over the 3-byte protocol and the latency-modelled network, so the
overhead analysis measures an actual message exchange:

* one *reading* message per unit, client → server;
* one *cap* message per unit, server → client;
* the server's decision compute time measured with a monotonic clock.

Clients are polled concurrently (asynchronous BSD sockets): propagation
latency overlaps and is paid once per direction, while the controller's
per-message handling and the wire bytes serialize — so a cycle's network
turnaround grows linearly in unit count with a microsecond-scale constant,
which is exactly the §6.5 scaling argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import Node
from repro.comm.network import NetworkModel
from repro.comm.protocol import MSG_CAP, MSG_READING, decode, encode
from repro.core.managers import PowerManager

__all__ = ["PowerClient", "PowerServer", "CycleReport"]


class PowerClient:
    """Per-node daemon: meters its sockets and programs their caps.

    Args:
        node: the node this client manages.
    """

    def __init__(self, node: Node) -> None:
        self.node = node

    def poll(self, dt_s: float) -> list[bytes]:
        """Read every socket's meter and encode one reading message each."""
        messages = []
        for local, sock in enumerate(self.node.sockets):
            power = sock.meter.read_power_w(dt_s)
            messages.append(encode(MSG_READING, local, min(power, 409.5)))
        return messages

    def apply(self, messages: list[bytes]) -> None:
        """Decode cap commands and program the named sockets.

        Raises:
            ValueError: a non-cap message or an unknown local unit index.
        """
        for payload in messages:
            msg = decode(payload)
            if msg.kind != MSG_CAP:
                raise ValueError(f"client received non-cap message {msg}")
            if msg.unit >= len(self.node.sockets):
                raise ValueError(
                    f"cap for unknown local unit {msg.unit} on node "
                    f"{self.node.node_id}"
                )
            self.node.sockets[msg.unit].domain.set_cap_w(msg.value_w)


@dataclass(frozen=True)
class CycleReport:
    """Cost breakdown of one control cycle.

    Attributes:
        network_s: cycle network latency — one overlapped propagation per
            direction plus the serialized per-message/wire costs.
        compute_s: wall time of the manager's decision.
        bytes_up / bytes_down: readings / cap traffic this cycle.
    """

    network_s: float
    compute_s: float
    bytes_up: int
    bytes_down: int

    @property
    def turnaround_s(self) -> float:
        """End-to-end cycle latency (network + decision)."""
        return self.network_s + self.compute_s


class PowerServer:
    """Central controller: collects readings, decides, pushes caps.

    Args:
        manager: the (already bound) power manager making decisions.
        clients: one client per node, in node order; the concatenation of
            their sockets must cover the manager's unit range in order.
        network: shared latency/traffic model.
    """

    def __init__(
        self,
        manager: PowerManager,
        clients: list[PowerClient],
        network: NetworkModel,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        n_units = sum(len(c.node.sockets) for c in clients)
        if n_units != manager.n_units:
            raise ValueError(
                f"clients expose {n_units} units but the manager is bound "
                f"to {manager.n_units}"
            )
        self.manager = manager
        self.clients = clients
        self.network = network

    def control_cycle(self, dt_s: float) -> CycleReport:
        """Run one full poll → decide → cap cycle.

        Args:
            dt_s: interval since the previous cycle (meter window).

        Returns:
            A :class:`CycleReport` with the cycle's cost breakdown.
        """
        readings = np.empty(self.manager.n_units, dtype=np.float64)
        serialized_s = 0.0
        bytes_up = 0

        offset = 0
        uplinks: list[tuple[PowerClient, int, list[bytes]]] = []
        for client in self.clients:
            messages = client.poll(dt_s)
            for payload in messages:
                serialized_s += self.network.transfer(len(payload))
                bytes_up += len(payload)
            uplinks.append((client, offset, messages))
            offset += len(messages)

        for _, base, messages in uplinks:
            for payload in messages:
                msg = decode(payload)
                readings[base + msg.unit] = msg.value_w

        started = time.perf_counter()
        caps = self.manager.step(readings)
        compute_s = time.perf_counter() - started

        bytes_down = 0
        for client, base, messages in uplinks:
            down = []
            for local in range(len(messages)):
                down.append(
                    encode(MSG_CAP, local, min(float(caps[base + local]), 409.5))
                )
            for payload in down:
                serialized_s += self.network.transfer(len(payload))
                bytes_down += len(payload)
            client.apply(down)

        return CycleReport(
            network_s=2 * self.network.propagation_s() + serialized_s,
            compute_s=compute_s,
            bytes_up=bytes_up,
            bytes_down=bytes_down,
        )
