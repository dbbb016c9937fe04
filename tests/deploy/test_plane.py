"""The client plane around a deploy server: traffic, caps on return,
daemon faults, idle daemons."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm import protocol
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.deploy.health import HealthState
from repro.deploy.plane import ClientPlane
from repro.deploy.server import DeployServer
from repro.powercap.faults import FaultConfig
from repro.powercap.rapl import NOISE_BLOCK

SPEC = ClusterSpec(n_nodes=3, sockets_per_node=2)


def cluster_and_server(spec=SPEC, manager="constant", timeout_s=5.0):
    cluster = Cluster(spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(0))
    bound = create_manager(manager)
    bound.bind(
        n_units=cluster.n_units,
        budget_w=cluster.budget_w,
        max_cap_w=spec.tdp_w,
        min_cap_w=spec.min_cap_w,
        rng=np.random.default_rng(0),
    )
    return cluster, DeployServer(bound, timeout_s=timeout_s)


class TestTraffic:
    def test_three_payload_bytes_per_unit_each_way(self):
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            for _ in range(3):
                stats = server.control_cycle()
                assert stats.bytes_up == stats.bytes_down == 3 * cluster.n_units


class TestRegistration:
    def test_plane_registers_past_the_listen_backlog(self):
        """200 paper-shaped nodes, more than the 128-deep backlog: every
        daemon registers and serves, 3 payload bytes per unit each way —
        on the controller's thread, with no thread of their own."""
        spec = ClusterSpec(n_nodes=200, sockets_per_node=2)
        cluster, server = cluster_and_server(spec)
        threads = threading.active_count()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            assert threading.active_count() == threads
            for _ in range(3):
                stats = server.control_cycle()
                assert stats.n_healthy == spec.n_nodes
                assert stats.bytes_up + stats.bytes_down == 6 * cluster.n_units
            assert [c.cycles_served for c in plane.originals] == [3] * 200
            assert threading.active_count() == threads


class TestBarrier:
    def test_killed_daemon_does_not_cost_the_deadline(self):
        """A daemon killed after its caps went out, and the cycle after,
        both return well inside what the old 1 s cap barrier allowed."""
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            server.control_cycle()

            def cycle_then_kill():
                stats = server.control_cycle()
                plane.kill(1)
                return stats

            for run in (cycle_then_kill, server.control_cycle):
                start = time.monotonic()
                run()
                assert time.monotonic() - start < 0.5
            assert server.health[1] is not HealthState.HEALTHY

    def test_barrier_holds_under_thread_churn(self):
        """More daemons than cores and a tiny switch interval: every cycle
        returns inside 1 s with every daemon's count advanced — a daemon
        left unanswered would break one or the other."""
        spec = ClusterSpec(n_nodes=8, sockets_per_node=1)
        cluster, server = cluster_and_server(spec, manager="dps")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
                for cycle in range(1, 21):
                    start = time.monotonic()
                    server.control_cycle()
                    assert time.monotonic() - start < 1.0
                    served = [c.cycles_served for c in plane.originals]
                    assert served == [cycle] * spec.n_nodes
        finally:
            sys.setswitchinterval(previous)

    def test_caps_are_applied_when_the_cycle_returns(self):
        cluster, server = cluster_and_server()
        with ClientPlane(server, cluster.nodes, dt_s=1.0):
            for _ in range(3):
                server.control_cycle()
                np.testing.assert_allclose(
                    cluster.caps_w(), np.asarray(server.manager.caps), atol=0.05
                )


class TestDaemonFault:
    def test_fault_quarantines_its_node_and_surfaces_on_close(self):
        """A meter that raises inside node 1's daemon: the next cycle
        still returns, with only node 1 quarantined, and closing the
        plane re-raises the daemon's fault."""
        cluster, server = cluster_and_server()
        read = cluster.bank.read_powers_w
        node_1 = slice(2, 4)
        reads = iter([True])

        def read_once(dt_s, span=slice(None)):
            if span != node_1 or next(reads, False):
                return read(dt_s, span)
            raise RuntimeError("meter unreadable")

        cluster.bank.read_powers_w = read_once
        plane = ClientPlane(server, cluster.nodes, dt_s=1.0)
        try:
            assert server.control_cycle().quarantined == ()
            assert server.control_cycle().quarantined == (1,)
        finally:
            with pytest.raises(RuntimeError, match="client 1 failed"):
                plane.close()


class TestReadings:
    def test_a_daemon_sends_its_node_range_of_the_bank_read(self):
        """With noise and meter faults on, every daemon's READINGS batch
        is the wire image of one bank read of its node's range, the same
        values a twin cluster's bulk read returns — past a noise block."""
        faults = FaultConfig(stuck_prob=0.1, dropout_prob=0.1, spike_prob=0.1)
        twins = [
            Cluster(SPEC, RaplConfig(), np.random.default_rng(4))
            for _ in range(2)
        ]
        for twin in twins:
            twin.bank.set_faults(faults, np.random.default_rng(5).spawn(6))
        cluster, twin = twins
        bound = create_manager("dps")
        bound.bind(
            n_units=cluster.n_units,
            budget_w=cluster.budget_w,
            max_cap_w=SPEC.tdp_w,
            min_cap_w=SPEC.min_cap_w,
            rng=np.random.default_rng(0),
        )
        server = DeployServer(bound)
        demand = np.random.default_rng(6).uniform(30.0, 160.0, (NOISE_BLOCK + 6, 6))
        with ClientPlane(server, cluster.nodes, dt_s=1.0):
            for cycle_demand in demand:
                for c in twins:
                    c.step_physics(cycle_demand, 1.0)
                sent = server.control_cycle().readings_w
                want = np.concatenate(
                    [
                        twin.bank.read_powers_w(1.0, slice(2 * n, 2 * n + 2))
                        for n in range(SPEC.n_nodes)
                    ]
                )
                wire = protocol.encode_batch(
                    protocol.MSG_READING, np.minimum(want, 409.5)
                )
                assert np.array_equal(sent, protocol.decode_batch(wire)[2])
                twin.bank.set_caps_w(cluster.caps_w())
        assert cluster.bank.faults_injected.sum() > 0
        assert np.array_equal(
            cluster.bank.faults_injected, twin.bank.faults_injected
        )


class TestIdleDaemon:
    def test_idle_gap_longer_than_the_socket_timeout_is_not_a_fault(self):
        """Waiting for the next cycle has no deadline: a plane whose
        server's socket timeout is 0.2 s outlives a 0.5 s pause between
        cycles."""
        cluster, server = cluster_and_server(timeout_s=0.2)
        with ClientPlane(server, cluster.nodes, dt_s=1.0) as plane:
            first = server.control_cycle()
            time.sleep(0.5)
            second = server.control_cycle()
        # Leaving the block would have raised had a daemon died.
        assert first.n_healthy == second.n_healthy == len(plane.originals)
        assert second.quarantined == ()
