"""Golden digest of a thread-mode fleet session under the full chaos matrix.

A seeded ``dps`` fleet of 2 shards x 4 nodes runs through a shard kill,
a shard hang, a partition and its heal, an arbiter kill and restart, and
a node daemon kill and reconnect.  One SHA-256 covers the whole record a
session leaves: the power and cap histories, the structured event stream
(``time_s, kind, node_id, unit, detail``) and the lease timeline.  The
constant was computed with the closure-based ``run_sharded`` loop, before
the fleet became an object, and committed unchanged: a failure here means
the fleet's schedule moved — which phase a strike fires in, where the
pipeline breaks, the order acks are applied — not that the constant is
stale.
"""

import hashlib

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.shard import (
    ArbiterConfig,
    RecoveryOptions,
    ShardChaosSchedule,
    run_sharded,
)
from tests.shard.sessions import dump_artifacts

GOLDEN = "61239e9cf4f41985a76a7232b59ddfe4fe67211fb0416a66767fe4c474cfc9a4"

CYCLES = 28

CHAOS = ShardChaosSchedule(
    shard_kill_at={0: 5},
    shard_hang_at={1: 11},
    partition_at={0: 14},
    heal_at={0: 18},
    arbiter_kill_at=20,
    arbiter_restart_at=23,
    node_kill_at={5: 3},
    node_reconnect_at={5: 8},
)


def session_digest(result) -> str:
    sha = hashlib.sha256()
    for rows in (result.power_history, result.caps_history):
        sha.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    for e in result.events:
        sha.update(repr((e.time_s, e.kind, e.node_id, e.unit, e.detail)).encode())
    for s in result.timeline:
        sha.update(
            repr(
                (s.cycle, s.shard_id, s.lease_w, s.committed_w, s.headroom_w,
                 s.seq, s.dark, s.frozen)
            ).encode()
        )
    return sha.hexdigest()


def run_golden(tmp_path):
    cluster = Cluster(
        ClusterSpec(n_nodes=8, sockets_per_node=2),
        RaplConfig(),
        np.random.default_rng(3),
    )
    demand = np.random.default_rng(4).uniform(
        60.0, 160.0, (CYCLES, cluster.n_units)
    )
    return run_sharded(
        cluster,
        n_shards=2,
        manager_factory=lambda shard_id: create_manager("dps"),
        demand_fn=lambda step: demand[step],
        cycles=CYCLES,
        checkpoint_dir=tmp_path / "ckpt",
        config=ArbiterConfig(period_cycles=2, lease_term_cycles=3),
        chaos=CHAOS,
        recovery=RecoveryOptions(
            checkpoint_dir=tmp_path / "ckpt", restart_delay_cycles=1
        ),
        rng=np.random.default_rng(5),
    )


def test_chaos_session_digest(tmp_path):
    result = run_golden(tmp_path)
    digest = session_digest(result)
    if digest != GOLDEN:
        dump_artifacts(result, tmp_path, "fleet_golden")
    assert digest == GOLDEN
