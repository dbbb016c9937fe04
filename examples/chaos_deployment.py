#!/usr/bin/env python3
"""Kill a client daemon mid-run and watch the control plane survive.

The real TCP control plane (server + per-node daemons over localhost
sockets, the one shard of a :func:`~repro.shard.run_sharded` fleet) runs
a 30-cycle session during which node 1's daemon is killed at cycle 8 —
the socket is severed without a QUIT, exactly like a crashed process —
and a replacement daemon reconnects at cycle 18.  The server quarantines
the node, serves fallback readings for its units, keeps the cluster
budget enforced on every cycle, and re-integrates the node through the
HELLO-rejoin path.  Fallback cycles and final health are read off the
session's structured event log.

Run time: < 5 s.  Usage::

    python examples/chaos_deployment.py
"""

import tempfile

import numpy as np

from repro import Cluster, ClusterSpec, RaplConfig, create_manager
from repro.deploy.health import HealthState, ResilienceConfig
from repro.shard import ShardChaosSchedule, run_sharded
from repro.telemetry.log import ResilienceEventLog

#: What each client event leaves the node's health at.
HEALTH_AFTER = {
    "client_quarantined": HealthState.DEGRADED,
    "client_dead": HealthState.DEAD,
    "client_rejoined": HealthState.HEALTHY,
}


def fallback_cycles(events: ResilienceEventLog, cycles: int) -> int:
    """Server cycles on which some node's readings were the fallback's.

    A node is on fallback from the cycle it is quarantined up to the one
    it rejoins on (event times are the server's 1-based cycle count).
    """
    down: dict[int, int] = {}
    fallback: set[int] = set()
    for e in events:
        if e.kind == "client_quarantined":
            down.setdefault(e.node_id, int(e.time_s))
        elif e.kind == "client_rejoined":
            fallback.update(range(down.pop(e.node_id), int(e.time_s)))
    for start in down.values():
        fallback.update(range(start, cycles + 1))
    return len(fallback)


def final_health(events: ResilienceEventLog, n_nodes: int) -> dict:
    health = {node: HealthState.HEALTHY for node in range(n_nodes)}
    for e in events:
        if e.kind in HEALTH_AFTER:
            health[e.node_id] = HEALTH_AFTER[e.kind]
    return health


def main() -> None:
    spec = ClusterSpec(n_nodes=4, sockets_per_node=2)
    cluster = Cluster(spec, RaplConfig(), np.random.default_rng(8))

    def demand(step: int) -> np.ndarray:
        return np.full(spec.n_units, 150.0)

    chaos = ShardChaosSchedule(node_kill_at={1: 8}, node_reconnect_at={1: 18})
    with tempfile.TemporaryDirectory(prefix="dps-chaos-") as checkpoints:
        result = run_sharded(
            cluster,
            n_shards=1,
            manager_factory=lambda shard_id: create_manager("dps"),
            demand_fn=demand,
            cycles=30,
            checkpoint_dir=checkpoints,
            chaos=chaos,
            resilience=ResilienceConfig(backoff_cycles=15, fallback="hold-last"),
        )

    print(
        f"ran {result.cycles} TCP control cycles; node 1's daemon was "
        f"killed at cycle 8 and a replacement rejoined at cycle 18\n"
    )
    print("what the server logged about its clients:")
    for e in result.events:
        if not e.kind.startswith(("client_", "fallback_")):
            continue
        where = f"node {e.node_id}" if e.node_id is not None else ""
        detail = f"  ({e.detail})" if e.detail else ""
        print(f"  cycle {int(e.time_s):3d}  {e.kind:20s} {where}{detail}")

    budget_ok = (
        result.caps_history.sum(axis=1) <= cluster.budget_w * (1 + 1e-6)
    ).all()
    print(
        f"\nfallback cycles: {fallback_cycles(result.events, result.cycles)}"
        f"   budget respected on every cycle: {budget_ok}"
    )
    health = final_health(result.events, spec.n_nodes)
    print(
        "final health: "
        + ", ".join(f"node {n}: {s.value}" for n, s in sorted(health.items()))
    )


if __name__ == "__main__":
    main()
