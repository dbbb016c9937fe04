"""The concurrent fan-out/fan-in control cycle.

Covers the tentpole guarantees: a straggling client delays nobody's
poll, a mid-collection disconnect quarantines only the offender, and the
cycle's phase timings are surfaced — plus the reading/cap integrity
regressions (duplicate unit ids, negative/NaN caps) and the determinism
bar: a concurrent session's trace equals the sequential baseline's,
cycle for cycle.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm.protocol import MSG_CAP, MSG_READING, POLL, decode, encode
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import PowerManager
from repro.deploy.server import DeployServer
from tests.deploy.oracles import sequential_polling
from tests.deploy.sessions import plane_session
from tests.deploy.test_server_robustness import RawClient, bound_manager


def registered_clients(server, n_clients, units_each=1):
    """Connect and HELLO ``n_clients`` raw clients, one node id apiece."""
    clients = []
    t = threading.Thread(target=lambda: server.accept_clients(n_clients))
    t.start()
    for node_id in range(n_clients):
        client = RawClient(server.address)
        client.hello(node_id=node_id, n_units=units_each)
        clients.append(client)
    t.join(2.0)
    return clients


def answer_poll(client, n_units=1, delay_s=0.0, value_w=100.0):
    """One raw client's side of a cycle: POLL -> READINGS -> CAPS."""
    assert client.recv() == POLL
    if delay_s:
        time.sleep(delay_s)
    client.send_words(
        [encode(MSG_READING, u, value_w) for u in range(n_units)],
    )
    return client.recv_words()


class TestFanOut:
    def test_straggler_does_not_delay_other_polls(self):
        """POLL reaches every client before any answer is awaited, and the
        cycle's wall time is the straggler's delay, not a sum."""
        with DeployServer(bound_manager(n_units=3), timeout_s=2.0) as server:
            clients = registered_clients(server, 3)
            poll_at = {}
            t0 = time.monotonic()

            def serve(node_id, delay_s):
                client = clients[node_id]
                assert client.recv() == POLL
                poll_at[node_id] = time.monotonic() - t0
                if delay_s:
                    time.sleep(delay_s)
                client.send_words(
                    [encode(MSG_READING, 0, 100.0)],
                )
                client.recv_words()

            threads = [
                threading.Thread(target=serve, args=(nid, delay))
                for nid, delay in ((0, 0.0), (1, 0.4), (2, 0.0))
            ]
            for t in threads:
                t.start()
            start = time.monotonic()
            stats = server.control_cycle()
            elapsed = time.monotonic() - start
            for t in threads:
                t.join(2.0)
            for client in clients:
                client.close()

            assert stats.n_healthy == 3
            assert stats.quarantined == ()
            # Fan-out: everyone was polled promptly, straggler included.
            assert all(at < 0.2 for at in poll_at.values()), poll_at
            # Fan-in: wall time tracks the one straggler, not a chain.
            assert 0.35 <= elapsed < 1.0
            # The wait shows up in the collect phase of the timer.
            assert stats.timings.collect_s > 0.3
            assert stats.timings.poll_s < 0.1

    def test_straggler_past_deadline_is_quarantined_alone(self):
        """A client slower than the cycle deadline misses it and takes the
        quarantine path; its peers' cycle is unaffected."""
        with DeployServer(bound_manager(n_units=2), timeout_s=0.3) as server:
            clients = registered_clients(server, 2)
            done = []

            def fast(client):
                done.append(answer_poll(client))

            def slow(client):
                assert client.recv() == POLL
                time.sleep(0.8)  # Well past the deadline.

            threads = [
                threading.Thread(target=fast, args=(clients[0],)),
                threading.Thread(target=slow, args=(clients[1],)),
            ]
            for t in threads:
                t.start()
            stats = server.control_cycle()
            for t in threads:
                t.join(2.0)
            for client in clients:
                client.close()

            assert stats.quarantined == (1,)
            assert stats.n_healthy == 1
            assert stats.fallback_units == 1
            assert done, "the fast client must have been served"
            quarantines = server.events.of_kind("client_quarantined")
            assert quarantines and "deadline" in quarantines[0].detail

    def test_mid_collection_disconnect_quarantines_offender_only(self):
        with DeployServer(bound_manager(n_units=2), timeout_s=1.0) as server:
            clients = registered_clients(server, 2)

            def vanish(client):
                client.recv()  # POLL arrives...
                client.close()  # ...and the daemon dies mid-collection.

            threads = [
                threading.Thread(target=vanish, args=(clients[0],)),
                threading.Thread(target=answer_poll, args=(clients[1],)),
            ]
            for t in threads:
                t.start()
            stats = server.control_cycle()
            for t in threads:
                t.join(2.0)
            clients[1].close()

            assert stats.quarantined == (0,)
            assert stats.n_healthy == 1
            assert np.all(np.isfinite(stats.readings_w))


class TestReadingsIntegrity:
    def test_duplicate_unit_ids_are_a_protocol_violation(self):
        """A batch with the right *count* but a duplicated unit id must
        quarantine the client and leave no garbage in the vector."""
        with DeployServer(bound_manager(n_units=2), timeout_s=1.0) as server:
            clients = registered_clients(server, 1, units_each=2)
            client = clients[0]

            def duplicate():
                assert client.recv() == POLL
                client.send_words(
                    [
                        encode(MSG_READING, 0, 100.0),
                        encode(MSG_READING, 0, 90.0),  # Unit 1 missing.
                    ],
                )

            t = threading.Thread(target=duplicate)
            t.start()
            stats = server.control_cycle()
            t.join(2.0)
            client.close()

            assert stats.quarantined == (0,)
            assert stats.fallback_units == 2
            quarantines = server.events.of_kind("client_quarantined")
            assert quarantines and "duplicate" in quarantines[0].detail
            # The vector holds the hold-last seed (the equal-share prior
            # on a first cycle), not uninitialized memory: neither of the
            # batch's values may have landed.
            assert stats.readings_w == pytest.approx([110.0, 110.0])

    def test_valid_batch_in_any_unit_order_is_accepted(self):
        """Unit order within a batch is the client's choice; coverage is
        what the server checks."""
        with DeployServer(bound_manager(n_units=2), timeout_s=1.0) as server:
            clients = registered_clients(server, 1, units_each=2)
            client = clients[0]

            def reversed_units():
                assert client.recv() == POLL
                client.send_words(
                    [
                        encode(MSG_READING, 1, 90.0),
                        encode(MSG_READING, 0, 100.0),
                    ],
                )
                client.recv_words()

            t = threading.Thread(target=reversed_units)
            t.start()
            stats = server.control_cycle()
            t.join(2.0)
            client.close()

            assert stats.quarantined == ()
            assert stats.readings_w == pytest.approx([100.0, 90.0])


class _RiggedManager(PowerManager):
    """A manager whose step returns a fixed vector, bypassing the base
    class's clipping — the shape of a server-side decision bug."""

    name = "rigged"

    def __init__(self, caps):
        super().__init__()
        self._rigged = np.asarray(caps, dtype=np.float64)

    def _decide(self, power_w, demand_w):
        return self._rigged.copy()

    def step(self, power_w, demand_w=None):
        self._caps = self._rigged.copy()
        return self._rigged.copy()


def rigged_server(caps, timeout_s=1.0):
    mgr = _RiggedManager(caps)
    n = len(caps)
    mgr.bind(n, 500.0 * n, 165.0, 0.0, rng=np.random.default_rng(0))
    return DeployServer(mgr, timeout_s=timeout_s)


class TestCapDispatch:
    def test_negative_cap_is_clamped_not_quarantined(self):
        """A manager bug emitting a negative cap must not take down the
        healthy client that would have received it."""
        with rigged_server([-5.0, 100.0]) as server:
            clients = registered_clients(server, 1, units_each=2)
            received = []

            def serve():
                received.extend(answer_poll(clients[0], n_units=2))

            t = threading.Thread(target=serve)
            t.start()
            stats = server.control_cycle()
            t.join(2.0)
            clients[0].close()

            assert stats.quarantined == ()
            assert stats.n_healthy == 1
            assert stats.caps_clamped == 1
            clamps = server.events.of_kind("cap_clamped")
            assert len(clamps) == 1
            assert clamps[0].unit == 0 and "->0.0" in clamps[0].detail
            caps = sorted(decode(p) for p in received)
            assert caps[0] == (MSG_CAP, 0, 0.0)
            assert caps[1] == (MSG_CAP, 1, 100.0)

    def test_over_ceiling_cap_is_clamped_with_event(self):
        with rigged_server([450.0, 100.0]) as server:
            clients = registered_clients(server, 1, units_each=2)
            t = threading.Thread(
                target=lambda: answer_poll(clients[0], n_units=2)
            )
            t.start()
            stats = server.control_cycle()
            t.join(2.0)
            clients[0].close()

            assert stats.caps_clamped == 1
            clamps = server.events.of_kind("cap_clamped")
            assert clamps and "->409.5" in clamps[0].detail
            assert server.total_caps_clamped == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cap_fails_loudly(self, bad):
        """NaN/inf caps are server-side bugs: the cycle raises instead of
        quarantining whichever client the send loop reached first."""
        with rigged_server([bad, 100.0]) as server:
            clients = registered_clients(server, 1, units_each=2)

            def serve():
                assert clients[0].recv() == POLL
                clients[0].send_words(
                    [encode(MSG_READING, u, 90.0) for u in range(2)],
                )

            t = threading.Thread(target=serve)
            t.start()
            with pytest.raises(RuntimeError, match="non-finite"):
                server.control_cycle()
            t.join(2.0)
            clients[0].close()
            # The client did nothing wrong: no quarantine was recorded.
            assert not server.events.of_kind("client_quarantined")


class TestDeterminism:
    SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)

    def _session(self):
        cluster = Cluster(
            self.SPEC, RaplConfig(), np.random.default_rng(3)
        )
        demands = np.random.default_rng(5).uniform(
            30.0, 160.0, size=(8, cluster.n_units)
        )
        from repro.core.managers import create_manager

        return plane_session(
            cluster,
            create_manager("dps"),
            demand_fn=lambda step: demands[step],
            cycles=8,
            rng=np.random.default_rng(0),
        )

    def test_concurrent_session_is_reproducible(self):
        a = self._session()
        b = self._session()
        assert np.array_equal(a.caps_history, b.caps_history)
        assert np.array_equal(a.readings_history, b.readings_history)
        assert np.array_equal(a.power_history, b.power_history)

    def test_concurrent_trace_equals_sequential_baseline(self):
        """Collection order is an I/O detail: the fan-out/fan-in cycle
        must produce the sequential baseline's session trace exactly."""
        con = self._session()
        with sequential_polling():
            seq = self._session()
        assert np.array_equal(con.caps_history, seq.caps_history)
        assert np.array_equal(con.readings_history, seq.readings_history)
        assert np.array_equal(con.power_history, seq.power_history)
        assert con.bytes_total == seq.bytes_total


class TestPhaseTimings:
    def test_loopback_surfaces_cycle_timings(self):
        cluster = Cluster(
            ClusterSpec(n_nodes=2, sockets_per_node=2),
            RaplConfig(noise_std_w=0.0),
            np.random.default_rng(0),
        )
        from repro.core.managers import create_manager

        result = plane_session(
            cluster,
            create_manager("slurm"),
            demand_fn=lambda step: np.full(4, 100.0),
            cycles=5,
        )
        assert len(result.timings) == 5
        cols = result.timings.as_columns()
        assert list(cols["cycle"]) == [1, 2, 3, 4, 5]
        for phase in ("rejoin_s", "poll_s", "collect_s", "decide_s",
                      "dispatch_s"):
            assert np.all(cols[phase] >= 0.0)
        assert np.all(cols["total_s"] > 0.0)
