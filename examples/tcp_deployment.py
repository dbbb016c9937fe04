#!/usr/bin/env python3
"""Run the real TCP control plane: server + per-node client daemons.

This is the artifact's deployment architecture end to end — a central
DPS server and one client daemon per node, talking the 3-byte protocol
over actual localhost TCP sockets — with the simulated cluster standing in
for the hardware under the clients.  The server is the one shard of a
:func:`~repro.shard.run_sharded` fleet, holding the whole budget as its
lease.  A demand step at cycle 10 shows the caps re-converging live
across the wire.

Run time: < 5 s.  Usage::

    python examples/tcp_deployment.py
"""

import tempfile

import numpy as np

from repro import Cluster, ClusterSpec, RaplConfig
from repro.shard import run_sharded


def main() -> None:
    spec = ClusterSpec(n_nodes=4, sockets_per_node=2)
    cluster = Cluster(spec, RaplConfig(), np.random.default_rng(8))

    # Nodes 0-1 run hot from the start; nodes 2-3 surge at cycle 10.
    def demand(step: int) -> np.ndarray:
        d = np.full(spec.n_units, 40.0)
        d[:4] = 160.0
        if step >= 10:
            d[4:] = 160.0
        return d

    with tempfile.TemporaryDirectory(prefix="dps-tcp-") as checkpoints:
        result = run_sharded(
            cluster,
            n_shards=1,
            manager_factory=None,
            manager_name="dps",
            demand_fn=demand,
            cycles=25,
            checkpoint_dir=checkpoints,
        )

    print(
        f"ran {result.cycles} TCP control cycles over {spec.n_nodes} client "
        f"daemons under one server leasing the whole "
        f"{result.leases_w[0]:.0f} W budget\n"
    )
    print("cycle  caps nodes 0-1   caps nodes 2-3   (mean W per socket)")
    for step in range(0, result.cycles, 3):
        caps = result.caps_history[step]
        print(
            f"{step:5d}  {caps[:4].mean():14.1f}   {caps[4:].mean():14.1f}"
        )
    final = result.caps_history[-1]
    print(
        f"\nafter the surge both halves converge near the constant cap "
        f"({spec.constant_cap_w:.0f} W): "
        f"{final[:4].mean():.1f} / {final[4:].mean():.1f} W"
    )


if __name__ == "__main__":
    main()
