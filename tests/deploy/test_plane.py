"""The client plane around a deploy server: traffic, barrier, idle daemons."""

import sys
import time

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.deploy.client import DeployClient
from repro.deploy.plane import ClientPlane
from repro.deploy.server import DeployServer
from repro.resilience.health import HealthState

SPEC = ClusterSpec(n_nodes=3, sockets_per_node=2)


def cluster_and_server(spec=SPEC, manager="constant"):
    cluster = Cluster(spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(0))
    bound = create_manager(manager)
    bound.bind(
        n_units=cluster.n_units,
        budget_w=cluster.budget_w,
        max_cap_w=spec.tdp_w,
        min_cap_w=spec.min_cap_w,
        rng=np.random.default_rng(0),
    )
    return cluster, DeployServer(bound)


class TestTraffic:
    def test_three_payload_bytes_per_unit_each_way(self):
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            for _ in range(3):
                stats = plane.cycle(server.control_cycle)
                assert stats.bytes_up == stats.bytes_down == 3 * cluster.n_units


class TestRegistration:
    def test_plane_registers_past_the_listen_backlog(self):
        """200 paper-shaped nodes, more than the 128-deep backlog: every
        daemon registers and serves, 3 payload bytes per unit each way."""
        spec = ClusterSpec(n_nodes=200, sockets_per_node=2)
        cluster, server = cluster_and_server(spec)
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            for _ in range(3):
                stats = plane.cycle(server.control_cycle)
                assert stats.n_healthy == spec.n_nodes
                assert stats.bytes_up + stats.bytes_down == 6 * cluster.n_units
            assert [c.cycles_served for c in plane.originals] == [3] * 200


class TestBarrier:
    def test_killed_daemon_does_not_cost_the_deadline(self):
        """A daemon killed after its caps went out, and the cycle after,
        both release the barrier well inside its 1 s deadline."""
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            plane.cycle(server.control_cycle)

            def cycle_then_kill():
                stats = server.control_cycle()
                plane.kill(1)
                return stats

            for run in (cycle_then_kill, server.control_cycle):
                start = time.monotonic()
                plane.cycle(run)
                assert time.monotonic() - start < 0.5
            assert server.health[1] is not HealthState.HEALTHY

    def test_barrier_holds_under_thread_churn(self):
        """More daemons than cores and a tiny switch interval: every cycle
        returns inside the deadline with every daemon's count advanced —
        a lost update or a missed notify would break one or the other."""
        spec = ClusterSpec(n_nodes=8, sockets_per_node=1)
        cluster, server = cluster_and_server(spec, manager="dps")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
                for cycle in range(1, 21):
                    start = time.monotonic()
                    plane.cycle(server.control_cycle)
                    assert time.monotonic() - start < 1.0
                    served = [c.cycles_served for c in plane.originals]
                    assert served == [cycle] * spec.n_nodes
        finally:
            sys.setswitchinterval(previous)

    def test_caps_are_applied_when_the_cycle_returns(self):
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            for _ in range(3):
                plane.cycle(server.control_cycle)
                np.testing.assert_allclose(
                    cluster.caps_w(), np.asarray(server.manager.caps), atol=0.05
                )


class TestIdleDaemon:
    def test_idle_gap_longer_than_the_socket_timeout_is_not_a_fault(self):
        """Waiting for the next cycle has no deadline: a daemon whose
        socket timeout is 0.2 s outlives a 0.5 s pause between cycles."""
        cluster, server = cluster_and_server()
        clients = [
            DeployClient(node, server.address, timeout_s=0.2)
            for node in cluster.nodes
        ]
        try:
            for client in clients:
                client.start()
            server.accept_clients(len(clients))
            first = server.control_cycle()
            time.sleep(0.5)
            second = server.control_cycle()
        finally:
            server.shutdown()
            for client in clients:
                client.join()  # Raises if a daemon died.
        assert first.n_healthy == second.n_healthy == len(clients)
        assert second.quarantined == ()
