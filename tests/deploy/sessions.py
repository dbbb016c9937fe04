"""The two ways the deploy tests drive a control plane over localhost TCP.

``one_shard`` is the deployment itself: :func:`repro.shard.run_sharded`
with one shard, which holds the whole budget as its lease, checkpoints
its controller, runs the safety envelope, and takes node, controller and
arbiter chaos from one :class:`~repro.shard.ShardChaosSchedule`.

``plane_session`` is a bare :class:`~repro.deploy.server.DeployServer`
and its :class:`~repro.deploy.plane.ClientPlane`, for what only the
server sees — the reading vectors it decided on, its fallback census,
per-phase timings, protocol bytes, final client health, and the cycles
each original daemon served, the caps on the domains once each cycle
returns — and for a server without the envelope.
"""

from types import SimpleNamespace

import numpy as np

from repro.deploy.plane import ClientPlane
from repro.deploy.server import DeployServer
from repro.shard import run_sharded


def one_shard(tmp_path, cluster, manager, demand_fn, cycles, **kwargs):
    """A one-shard thread-mode fleet session around ``manager``."""
    return run_sharded(
        cluster,
        n_shards=1,
        manager_factory=lambda shard_id: manager,
        demand_fn=demand_fn,
        cycles=cycles,
        checkpoint_dir=tmp_path / "ckpt",
        **kwargs,
    )


def plane_session(
    cluster,
    manager,
    demand_fn,
    cycles,
    rng=None,
    kill_at=None,
    reconnect_at=None,
    resilience=None,
    safety=None,
):
    """Step physics, then one control cycle, ``cycles`` times.

    ``kill_at`` / ``reconnect_at`` map a node id to the cycle its daemon
    is killed / a fresh one rejoins, fired before that cycle's physics.
    """
    manager.bind(
        n_units=cluster.n_units,
        budget_w=cluster.budget_w,
        max_cap_w=cluster.spec.tdp_w,
        min_cap_w=cluster.spec.min_cap_w,
        rng=rng if rng is not None else np.random.default_rng(0),
    )
    server = DeployServer(manager, resilience=resilience, safety=safety)
    shape = (cycles, cluster.n_units)
    out = SimpleNamespace(
        caps_history=np.full(shape, np.nan),
        applied_caps_history=np.full(shape, np.nan),
        readings_history=np.full(shape, np.nan),
        power_history=np.full(shape, np.nan),
        bytes_total=0,
        fallback_cycles=0,
        events=server.events,
        timings=server.timings,
    )
    with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
        for step in range(cycles):
            for schedule, strike in (
                (kill_at or {}, plane.kill),
                (reconnect_at or {}, plane.reconnect),
            ):
                for node_id, at in schedule.items():
                    if at == step:
                        strike(node_id)
            cluster.step_physics(demand_fn(step), 1.0)
            stats = server.control_cycle()
            out.bytes_total += stats.bytes_up + stats.bytes_down
            out.fallback_cycles += stats.fallback_units > 0
            out.readings_history[step] = stats.readings_w
            out.caps_history[step] = np.asarray(manager.caps)
            out.applied_caps_history[step] = cluster.caps_w()
            out.power_history[step] = cluster.true_power_w()
        out.final_health = server.health
        out.client_cycles = [c.cycles_served for c in plane.originals]
    return out
