"""Node and socket objects of the overprovisioned system (paper §5.1).

A *unit* in the paper is "each part of a machine that supports power capping
individually" — on the evaluation platform, a socket.  :class:`Socket` is
one simulated RAPL domain, a unit of a bank that also holds its meter;
:class:`Node` groups the sockets of one dual-socket machine and is the
granularity at which the client daemon runs (one client per node reads and
caps all of its sockets in one call each, §4.3).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RaplConfig
from repro.powercap.rapl import RaplBank, RaplDomain

__all__ = ["Socket", "Node"]


class Socket:
    """One power-capping unit: a RAPL package domain.

    The domain is a view of a :class:`~repro.powercap.rapl.RaplBank`,
    which also holds the unit's meter: a socket built this way owns a
    one-unit bank, a cluster's sockets (:meth:`of_bank`) share the
    cluster's.

    Args:
        unit_id: global unit index within the cluster.
        node_id: owning node index.
        tdp_w: maximum power / highest cap (W).
        min_cap_w: lowest accepted cap (W).
        rapl_config: noise/lag/wrap behaviour of the domain.
        rng: the meter's noise stream (one per socket).
        idle_power_w: power at rest (initial condition).
    """

    def __init__(
        self,
        unit_id: int,
        node_id: int,
        tdp_w: float,
        min_cap_w: float,
        rapl_config: RaplConfig,
        rng: np.random.Generator,
        idle_power_w: float = 12.0,
    ) -> None:
        self.unit_id = unit_id
        self.node_id = node_id
        self.domain = RaplDomain(
            name=f"package-{node_id}-{unit_id}",
            max_power_w=tdp_w,
            min_power_w=min_cap_w,
            config=rapl_config,
            initial_power_w=idle_power_w,
        )
        self.domain.bank.attach_meter(0, rng)

    @classmethod
    def of_bank(
        cls,
        bank: RaplBank,
        unit_id: int,
        node_id: int,
        rng: np.random.Generator,
    ) -> Socket:
        """The socket whose state is unit ``unit_id`` of a shared bank."""
        sock = cls.__new__(cls)
        sock.unit_id = unit_id
        sock.node_id = node_id
        sock.domain = RaplDomain.of_bank(
            bank, unit_id, f"package-{node_id}-{unit_id}"
        )
        bank.attach_meter(unit_id, rng)
        return sock

    def __repr__(self) -> str:
        return (
            f"Socket(unit_id={self.unit_id}, node_id={self.node_id}, "
            f"cap_w={self.domain.cap_w:.1f})"
        )


class Node:
    """One compute node: a set of sockets managed by one client daemon.

    Args:
        node_id: node index within the cluster.
        sockets: this node's sockets, in socket order.
    """

    def __init__(self, node_id: int, sockets: list[Socket]) -> None:
        if not sockets:
            raise ValueError("a node needs at least one socket")
        self.node_id = node_id
        self.sockets = tuple(sockets)

    @property
    def unit_ids(self) -> tuple[int, ...]:
        """Global unit indices of this node's sockets."""
        return tuple(s.unit_id for s in self.sockets)

    def __repr__(self) -> str:
        return f"Node(node_id={self.node_id}, sockets={len(self.sockets)})"
