"""Fault tolerance of the TCP control plane, end to end.

These tests exercise the acceptance scenario of the resilience layer: a
client daemon killed mid-run must not cost the controller a single cycle,
the budget must hold throughout, and a reconnecting daemon must be
re-integrated through the HELLO-rejoin path.  Node chaos runs on the
one-shard fleet; what only the deploy server sees (fallback census,
reading vectors, final health) is read from a bare server session.
"""

import socket
import threading
import time

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec
from repro.core.managers import create_manager
from repro.deploy.health import HealthState, ResilienceConfig
from repro.deploy.server import DeployServer
from repro.shard import ShardChaosSchedule
from tests.deploy.sessions import one_shard, plane_session
from tests.deploy.test_concurrent_cycle import answer_poll, registered_clients
from tests.deploy.test_server_robustness import RawClient, bound_manager

SPEC = ClusterSpec(n_nodes=3, sockets_per_node=2)


def session_args(cycles=12, fallback="hold-last", backoff_cycles=6,
                 demand=None):
    cluster = Cluster(SPEC, rng=np.random.default_rng(11))
    if demand is None:
        demand = np.full(cluster.n_units, 150.0)
    return dict(
        cluster=cluster,
        manager=create_manager("dps"),
        demand_fn=lambda step: demand,
        cycles=cycles,
        rng=np.random.default_rng(0),
        resilience=ResilienceConfig(
            backoff_cycles=backoff_cycles, fallback=fallback
        ),
    )


def run_fleet(tmp_path, kill_at, reconnect_at=None, **kwargs):
    args = session_args(**kwargs)
    chaos = ShardChaosSchedule(
        node_kill_at=kill_at, node_reconnect_at=reconnect_at or {}
    )
    return args["cluster"], one_shard(tmp_path, chaos=chaos, **args)


def run_plane(kill_at, reconnect_at=None, **kwargs):
    return plane_session(
        kill_at=kill_at, reconnect_at=reconnect_at, **session_args(**kwargs)
    )


class TestKilledClient:
    """The acceptance scenario: kill one daemon, finish the session."""

    KILL = {1: 3}
    RECONNECT = {1: 6}

    def test_all_cycles_complete_with_budget_held(self, tmp_path):
        cluster, res = run_fleet(tmp_path, self.KILL, self.RECONNECT)
        assert res.cycles == 12
        # The shard itself never went down: every cycle was acknowledged.
        assert res.shard_restarts == [0]
        assert np.isfinite(res.caps_history).all()
        # The budget invariant must hold on every single cycle, including
        # the ones decided on fallback readings.
        per_cycle = res.caps_history.sum(axis=1)
        assert (per_cycle <= cluster.budget_w * (1 + 1e-6)).all()

    def test_quarantine_fallback_and_rejoin_are_logged(self):
        res = run_plane(self.KILL, self.RECONNECT)
        assert res.events.of_kind("client_quarantined")
        assert res.events.of_kind("fallback_applied")
        rejoined = res.events.of_kind("client_rejoined")
        assert [e.node_id for e in rejoined] == [1]
        assert res.fallback_cycles >= 2

    def test_client_reintegrates_after_reconnect(self):
        res = run_plane(self.KILL, self.RECONNECT)
        assert res.final_health == {
            0: HealthState.HEALTHY,
            1: HealthState.HEALTHY,
            2: HealthState.HEALTHY,
        }
        # After the rejoin the replacement daemon answers real polls:
        # node 1's units (2, 3) report live power again, not fallback.
        rejoin_cycle = int(res.events.of_kind("client_rejoined")[0].time_s)
        post = res.readings_history[rejoin_cycle:, 2:4]
        assert (post > 0.0).all()

    def test_assume_tdp_fallback_throttles_survivors(self, tmp_path):
        """Pessimistic fallback budgets the lost node at TDP, so the
        healthy units must get *less* than under hold-last."""
        kill = {1: 2}
        # Node 1 idles at 40 W while the survivors are hungry: hold-last
        # keeps reporting the idle draw (surplus shifts to survivors),
        # assume-tdp reports 165 W (the dead node hoards its share).
        demand = np.array([150.0, 150.0, 40.0, 40.0, 150.0, 150.0])
        _, hold = run_fleet(tmp_path / "hold", kill, cycles=8, demand=demand)
        _, tdp = run_fleet(
            tmp_path / "tdp",
            kill,
            cycles=8,
            fallback="assume-tdp",
            demand=demand,
        )
        survivors = [0, 1, 4, 5]
        assert (
            tdp.caps_history[-1, survivors].sum()
            < hold.caps_history[-1, survivors].sum()
        )

    def test_unreconnected_client_goes_dead(self):
        res = run_plane({2: 1}, cycles=12, backoff_cycles=2)
        assert res.final_health[2] is HealthState.DEAD
        dead = res.events.of_kind("client_dead")
        assert dead and dead[0].node_id == 2


class TestHangAndGarbage:
    def test_hung_client_is_quarantined_not_awaited_forever(self):
        """A client that stops responding trips the socket timeout and is
        quarantined; the cycle still completes."""
        mgr = bound_manager(n_units=2)
        with DeployServer(mgr, timeout_s=0.5) as server:
            client = RawClient(server.address)
            t = threading.Thread(target=lambda: server.accept_clients(1))
            t.start()
            client.hello(n_units=2)
            t.join(2.0)

            start = time.monotonic()
            stats = server.control_cycle()  # client never answers the POLL
            elapsed = time.monotonic() - start
            assert elapsed < 3.0
            assert stats.quarantined == (0,)
            assert stats.fallback_units == 2
            client.close()

    def test_garbage_frame_is_quarantined(self):
        mgr = bound_manager(n_units=2)
        with DeployServer(mgr, timeout_s=1.0) as server:
            client = RawClient(server.address)
            t = threading.Thread(target=lambda: server.accept_clients(1))
            t.start()
            client.hello(n_units=2)
            t.join(2.0)

            results = []
            t = threading.Thread(
                target=lambda: results.append(server.control_cycle())
            )
            t.start()
            client.recv()  # POLL arrives...
            client.sock.sendall(b"\xff\xff\xff\xff\xff\xff")  # ...garbage.
            t.join(3.0)
            client.close()
            assert results and results[0].quarantined == (0,)
            quarantines = server.events.of_kind("client_quarantined")
            assert quarantines and quarantines[0].node_id == 0

    def test_unknown_node_cannot_rejoin(self):
        """Only a quarantined, previously registered node id may rejoin."""
        mgr = bound_manager(n_units=2)
        with DeployServer(mgr, timeout_s=1.0) as server:
            client = RawClient(server.address)
            t = threading.Thread(target=lambda: server.accept_clients(1))
            t.start()
            client.hello(node_id=0, n_units=2)
            t.join(2.0)

            intruder = RawClient(server.address)
            intruder.hello(node_id=7, n_units=2)

            results = []
            t = threading.Thread(
                target=lambda: results.append(server.control_cycle())
            )
            t.start()
            from repro.comm.protocol import MSG_READING, POLL, encode

            assert client.recv() == POLL
            client.send_words(
                [encode(MSG_READING, 0, 100.0),
                 encode(MSG_READING, 1, 90.0)],
            )
            client.recv_words()
            t.join(3.0)
            assert results and results[0].rejoined == ()
            assert results[0].n_healthy == 1
            intruder.close()
            client.close()


def _cycle_with(server, *peers):
    """One control cycle while each ``(client, serve)`` peer plays its part."""
    threads = [
        threading.Thread(target=serve, args=(client,)) for client, serve in peers
    ]
    for t in threads:
        t.start()
    stats = server.control_cycle()
    for t in threads:
        t.join(2.0)
    return stats


class TestJoiningConnections:
    """Reconnects are read without blocking, across cycles."""

    def test_silent_connector_does_not_hold_the_cycle(self):
        with DeployServer(bound_manager(n_units=2), timeout_s=0.3) as server:
            clients = registered_clients(server, 2)
            silent = socket.create_connection(server.address, timeout=2.0)
            try:
                for _ in range(2):
                    stats = _cycle_with(
                        server, *((c, answer_poll) for c in clients)
                    )
                    assert stats.timings.rejoin_s < 0.1
                    assert stats.n_healthy == 2 and stats.quarantined == ()
                time.sleep(0.35)  # Past timeout_s without a HELLO...
                _cycle_with(server, *((c, answer_poll) for c in clients))
                assert silent.recv(1) == b""  # ...so the server hung up.
            finally:
                silent.close()
                for client in clients:
                    client.close()

    def test_hello_arriving_a_cycle_late_still_rejoins(self):
        with DeployServer(bound_manager(n_units=2), timeout_s=1.0) as server:
            clients = registered_clients(server, 2)

            def vanish(client):
                client.recv()  # POLL arrives and the daemon dies.
                client.close()

            stats = _cycle_with(
                server, (clients[0], answer_poll), (clients[1], vanish)
            )
            assert stats.quarantined == (1,)

            late = RawClient(server.address)  # Connected, HELLO not sent.
            stats = _cycle_with(server, (clients[0], answer_poll))
            assert stats.rejoined == ()
            assert stats.timings.rejoin_s < 0.1

            late.hello(node_id=1, n_units=1)
            time.sleep(0.05)
            stats = _cycle_with(
                server, (clients[0], answer_poll), (late, answer_poll)
            )
            assert stats.rejoined == (1,)
            assert stats.n_healthy == 2
            late.close()
            clients[0].close()
