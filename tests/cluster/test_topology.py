"""Cluster and node topology."""

import numpy as np
import pytest

from repro.core.config import ClusterSpec, RaplConfig
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, Socket


class TestNode:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Node(0, [])

    def test_unit_ids(self):
        sockets = [
            Socket(i, 0, 165.0, 30.0, RaplConfig(), np.random.default_rng(i))
            for i in (4, 5)
        ]
        assert Node(0, sockets).unit_ids == (4, 5)


class TestCluster:
    def test_default_topology_matches_paper(self):
        cluster = Cluster()
        assert cluster.n_units == 20
        assert len(cluster.nodes) == 10
        assert cluster.budget_w == pytest.approx(2200.0)

    def test_unit_ids_sequential(self):
        cluster = Cluster(ClusterSpec(n_nodes=3, sockets_per_node=2))
        ids = [s.unit_id for s in cluster.sockets]
        assert ids == list(range(6))

    def test_halves_partition_units(self):
        spec = ClusterSpec(n_nodes=4, sockets_per_node=2)
        a = set(spec.half_unit_ids(0).tolist())
        b = set(spec.half_unit_ids(1).tolist())
        assert a | b == set(range(8))
        assert not (a & b)

    def test_halves_split_on_node_boundary(self):
        spec = ClusterSpec(n_nodes=4, sockets_per_node=2)
        assert spec.half_unit_ids(0).tolist() == [0, 1, 2, 3]

    def test_odd_node_count(self):
        spec = ClusterSpec(n_nodes=3, sockets_per_node=2)
        assert spec.half_unit_ids(0).tolist() == [0, 1]
        assert spec.half_unit_ids(1).tolist() == [2, 3, 4, 5]

    def test_half_rejects_bad_index(self):
        with pytest.raises(ValueError, match="half"):
            ClusterSpec().half_unit_ids(2)

    def test_single_node_cannot_split(self):
        spec = ClusterSpec(n_nodes=1, sockets_per_node=2)
        with pytest.raises(ValueError, match="two halves"):
            spec.half_unit_ids(0)

    @pytest.mark.parametrize("n_nodes, per", [(1, 2), (3, 2), (10, 2), (5, 3)])
    def test_halves_are_the_nodes_units(self, n_nodes, per):
        spec = ClusterSpec(n_nodes=n_nodes, sockets_per_node=per)
        nodes = Cluster(spec).nodes
        split = n_nodes // 2
        for half, members in ((0, nodes[:split]), (1, nodes[split:])):
            if not members:
                continue
            ids = spec.half_unit_ids(half)
            assert ids.dtype == np.intp
            assert ids.tolist() == [u for n in members for u in n.unit_ids]

    def test_caps_start_at_tdp(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, sockets_per_node=1))
        np.testing.assert_allclose(cluster.caps_w(), 165.0)


class TestPhysicsInterface:
    def test_step_physics_shape(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, sockets_per_node=2))
        power = cluster.step_physics(np.full(4, 100.0), 1.0)
        assert power.shape == (4,)
        assert np.all(power > 12.0)  # Moving up from idle.

    def test_step_physics_rejects_wrong_shape(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, sockets_per_node=2))
        with pytest.raises(ValueError, match="shape"):
            cluster.step_physics(np.zeros(3), 1.0)

    def test_read_powers_reflect_physics(self):
        spec = ClusterSpec(n_nodes=2, sockets_per_node=1)
        cluster = Cluster(spec, RaplConfig(noise_std_w=0.0))
        for _ in range(20):
            cluster.step_physics(np.array([100.0, 50.0]), 1.0)
            readings = cluster.read_powers_w(1.0)
        assert readings[0] == pytest.approx(100.0, abs=1.5)
        assert readings[1] == pytest.approx(50.0, abs=1.5)

    def test_noise_independent_across_sockets(self):
        spec = ClusterSpec(n_nodes=2, sockets_per_node=1)
        cluster = Cluster(spec, RaplConfig(noise_std_w=3.0),
                          np.random.default_rng(0))
        diffs = []
        for _ in range(100):
            cluster.step_physics(np.array([100.0, 100.0]), 1.0)
            r = cluster.read_powers_w(1.0)
            diffs.append(r[0] - r[1])
        assert np.std(diffs) > 2.0  # Two independent noise streams.

    def test_same_seed_reproducible(self):
        def run(seed):
            cluster = Cluster(
                ClusterSpec(n_nodes=2, sockets_per_node=1),
                RaplConfig(noise_std_w=2.0),
                np.random.default_rng(seed),
            )
            out = []
            for _ in range(10):
                cluster.step_physics(np.array([100.0, 80.0]), 1.0)
                out.append(cluster.read_powers_w(1.0))
            return np.asarray(out)

        np.testing.assert_allclose(run(7), run(7))

    def test_sysfs_view_covers_all_units(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, sockets_per_node=2))
        assert len(cluster.sysfs().list_zones()) == 4
