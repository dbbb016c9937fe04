"""Cluster topology: nodes, sockets, budget, and the two-halves layout.

The paper's experiments run "two clusters in parallel to reflect a
real-world cloud service utility" (§5.2) — two workloads, each on half of
the client nodes, under one shared cluster-wide power budget.
:class:`Cluster` owns the simulated hardware — one
:class:`~repro.powercap.rapl.RaplBank` holding every unit's state — and
exposes the vectorized physics/metering interface the simulator drives,
plus the half-split used by every pairing experiment.  Its nodes, sockets
and domains are views of that bank.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ClusterSpec, RaplConfig
from repro.cluster.node import Node, Socket
from repro.powercap.rapl import RaplBank, RaplDomain
from repro.powercap.sysfs import SysfsPowercap

__all__ = ["Cluster"]


class Cluster:
    """The simulated overprovisioned system.

    Args:
        spec: topology and budget (defaults model the paper's testbed).
        rapl_config: shared RAPL behaviour for every domain.
        rng: measurement-noise source; child streams are spawned per socket
            so noise is independent across units yet fully reproducible.
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        rapl_config: RaplConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.spec = spec or ClusterSpec()
        self.rapl_config = rapl_config or RaplConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        socket_rngs = rng.spawn(self.spec.n_units)
        #: The state of every unit; everything below is a view of it.
        self.bank = RaplBank(
            self.spec.n_units,
            max_power_w=self.spec.tdp_w,
            min_power_w=self.spec.min_cap_w,
            config=self.rapl_config,
            initial_power_w=self.spec.idle_power_w,
        )

        self.nodes: list[Node] = []
        self.sockets: list[Socket] = []
        unit_id = 0
        for node_id in range(self.spec.n_nodes):
            node_sockets = []
            for _ in range(self.spec.sockets_per_node):
                sock = Socket.of_bank(
                    self.bank, unit_id, node_id, socket_rngs[unit_id]
                )
                node_sockets.append(sock)
                self.sockets.append(sock)
                unit_id += 1
            self.nodes.append(Node(node_id, node_sockets))
        self._domains = [s.domain for s in self.sockets]
        self._meters = [s.meter for s in self.sockets]

    @property
    def n_units(self) -> int:
        """Total power-capping units."""
        return self.spec.n_units

    @property
    def budget_w(self) -> float:
        """Cluster-wide power budget (W)."""
        return self.spec.budget_w

    @property
    def domains(self) -> list[RaplDomain]:
        """All RAPL domains in unit order (do not mutate)."""
        return self._domains

    def sysfs(self) -> SysfsPowercap:
        """A powercap-sysfs view over every domain (for sysfs-level clients)."""
        return SysfsPowercap(self.domains)

    def half_unit_ids(self, half: int) -> np.ndarray:
        """Global unit indices of one half of the cluster (whole nodes).

        Args:
            half: 0 for the first half of the nodes, 1 for the second.

        Returns:
            Index array; the two halves partition all units when the node
            count is even (an odd node count gives the larger share to
            half 1, matching "two clusters" as closely as possible).
        """
        if half not in (0, 1):
            raise ValueError(f"half must be 0 or 1, got {half}")
        split = self.spec.n_nodes // 2
        nodes = self.nodes[:split] if half == 0 else self.nodes[split:]
        if not nodes:
            raise ValueError("cluster too small to split into two halves")
        return np.asarray(
            [uid for node in nodes for uid in node.unit_ids], dtype=np.intp
        )

    def caps_w(self) -> np.ndarray:
        """Currently programmed per-unit caps (W)."""
        return self.bank.cap_w.copy()

    def true_power_w(self) -> np.ndarray:
        """True (hidden) per-unit power (W) — for accounting, not managers."""
        return self.bank.power_w.copy()

    def step_physics(self, demand_w: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance every domain one interval under the given demands.

        Args:
            demand_w: per-unit uncapped demand (W), shape ``(n_units,)``.
            dt_s: interval length (s).

        Returns:
            True per-unit power at the end of the interval (W).
        """
        return self.bank.step(demand_w, dt_s)

    def _wrapped_meters(self) -> list | None:
        """The sockets' current meters if any was replaced by a wrapper
        (e.g. a ``FaultyMeter``), whose reads must go through it one by
        one; ``None`` while all are the bank's own."""
        meters = [s.meter for s in self.sockets]
        return None if meters == self._meters else meters

    def read_powers_w(self, dt_s: float) -> np.ndarray:
        """Noisy per-unit power readings from every meter (W)."""
        wrapped = self._wrapped_meters()
        if wrapped is None:
            return self.bank.read_powers_w(dt_s)
        return np.asarray(
            [meter.read_power_w(dt_s) for meter in wrapped], dtype=np.float64
        )

    def snapshot(self) -> dict:
        """JSON-able document of every domain and meter (for deterministic
        replay of simulations; a real cluster's state lives in hardware)."""
        return self.bank.snapshot()

    def restore(self, state: dict) -> None:
        """Overwrite every domain and meter with a snapshot's content."""
        self.bank.restore(state)

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={self.spec.n_nodes}, "
            f"units={self.n_units}, budget_w={self.budget_w:.0f})"
        )
