"""Cluster topology: nodes, sockets and budget.

:class:`Cluster` owns the simulated hardware — one
:class:`~repro.powercap.rapl.RaplBank` holding every unit's state — and
exposes the vectorized physics/metering interface the simulator drives.
Its nodes, sockets and domains are views of that bank.
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

    def read_powers_w(self, dt_s: float) -> np.ndarray:
        """Noisy per-unit power readings from every meter (W)."""
        return self.bank.read_powers_w(dt_s)

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
