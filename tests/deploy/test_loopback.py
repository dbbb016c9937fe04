"""End-to-end TCP deployment on localhost: the one-shard fleet.

``caps_history`` of a fleet session is the hardware side — each cycle's
caps as the daemons programmed them, on the protocol's 0.1 W lattice.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from tests.deploy.sessions import one_shard, plane_session

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


def quiet_cluster(seed=0):
    return Cluster(SPEC, RaplConfig(noise_std_w=0.0),
                   np.random.default_rng(seed))


class TestLoopback:
    def test_session_completes_cleanly(self, tmp_path):
        result = one_shard(
            tmp_path,
            quiet_cluster(),
            create_manager("slurm"),
            demand_fn=lambda step: np.full(4, 100.0),
            cycles=10,
        )
        assert result.cycles == 10
        assert result.shard_restarts == [0]
        assert np.isfinite(result.caps_history).all()
        # Every original daemon served every cycle.
        plain = plane_session(
            quiet_cluster(),
            create_manager("slurm"),
            demand_fn=lambda step: np.full(4, 100.0),
            cycles=10,
        )
        assert plain.client_cycles == [10, 10]

    def test_traffic_is_three_bytes_per_unit_per_direction(self):
        result = plane_session(
            quiet_cluster(),
            create_manager("constant"),
            demand_fn=lambda step: np.full(4, 80.0),
            cycles=5,
        )
        assert result.bytes_total == 5 * 4 * 3 * 2

    def test_caps_respond_to_demand_over_tcp(self, tmp_path):
        demand = np.array([160.0, 160.0, 25.0, 25.0])
        result = one_shard(
            tmp_path,
            quiet_cluster(),
            create_manager("slurm"),
            demand_fn=lambda step: demand,
            cycles=20,
        )
        final = result.caps_history[-1]
        assert final[:2].mean() > 130.0   # Hungry node grew.
        assert final[2:].mean() < 60.0    # Idle node chased down.

    def test_dps_over_tcp(self, tmp_path):
        demand = np.array([160.0, 160.0, 40.0, 40.0])
        result = one_shard(
            tmp_path,
            quiet_cluster(),
            create_manager("dps"),
            demand_fn=lambda step: demand,
            cycles=20,
        )
        assert result.caps_history[-1].sum() <= SPEC.budget_w * (1 + 1e-6)
        # The one shard holds the whole budget as its lease.
        assert result.leases_w.tolist() == [SPEC.budget_w]

    def test_readings_track_power(self):
        result = plane_session(
            quiet_cluster(),
            create_manager("constant"),
            demand_fn=lambda step: np.full(4, 90.0),
            cycles=15,
        )
        # After the lag settles, decoded readings sit near the demand.
        assert result.readings_history[-1].mean() == pytest.approx(
            90.0, abs=2.0
        )

    def test_rejects_zero_cycles(self, tmp_path):
        with pytest.raises(ValueError, match="cycles"):
            one_shard(
                tmp_path,
                quiet_cluster(),
                create_manager("constant"),
                demand_fn=lambda step: np.full(4, 80.0),
                cycles=0,
            )

    def test_budget_respected_across_cycles(self, tmp_path):
        rng = np.random.default_rng(1)
        demands = rng.uniform(20, 160, size=(12, 4))
        result = one_shard(
            tmp_path,
            quiet_cluster(),
            create_manager("dps"),
            demand_fn=lambda step: demands[step],
            cycles=12,
        )
        assert np.all(
            result.caps_history.sum(axis=1) <= SPEC.budget_w * (1 + 1e-6)
        )
