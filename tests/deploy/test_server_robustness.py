"""DeployServer behaviour under misbehaving clients."""

import socket
import threading

import numpy as np
import pytest

from repro.comm import protocol
from repro.comm.protocol import MSG_CAP, MSG_READING, POLL, encode
from repro.comm.wire import FrameAssembler, encode_frame, encode_words, recv_frame
from repro.core.managers import create_manager
from repro.deploy.server import DeployServer


def bound_manager(n_units=2):
    mgr = create_manager("constant")
    mgr.bind(n_units, 110.0 * n_units, 165.0, 30.0,
             rng=np.random.default_rng(0))
    return mgr


class RawClient:
    """A hand-driven client for protocol-violation tests.

    Batches are built from per-message ``protocol.encode`` words, so
    duplicate-unit and wrong-kind batches stay expressible.
    """

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=2.0)
        self.frames = FrameAssembler()

    def hello(self, node_id=0, n_units=2):
        self.sock.sendall(encode_frame(protocol.hello(node_id, n_units)))

    def recv(self):
        """The server's next frame, as a document."""
        return recv_frame(self.sock, self.frames)

    def send_words(self, messages):
        """One batch frame carrying the given 3-byte messages."""
        self.sock.sendall(encode_words(b"".join(messages)))

    def recv_words(self):
        """The next batch frame, split back into its 3-byte messages."""
        words = self.recv()["words"]
        return [words[i : i + 3] for i in range(0, len(words), 3)]

    def close(self):
        self.sock.close()


class TestRegistration:
    def test_over_registration_rejected(self):
        with DeployServer(bound_manager(n_units=2)) as server:
            client = RawClient(server.address)
            errors = []

            def accept():
                try:
                    server.accept_clients(1)
                except ValueError as exc:
                    errors.append(exc)

            t = threading.Thread(target=accept)
            t.start()
            client.hello(n_units=3)  # One more than the manager is bound to.
            t.join(2.0)
            client.close()
            assert errors and "bound to" in str(errors[0])

    def test_cycle_requires_full_registration(self):
        with DeployServer(bound_manager(n_units=4)) as server:
            client = RawClient(server.address)
            t = threading.Thread(target=lambda: server.accept_clients(1))
            t.start()
            client.hello(n_units=2)  # Covers only half the units.
            t.join(2.0)
            with pytest.raises(RuntimeError, match="registered units"):
                server.control_cycle()
            client.close()

    def test_cycle_without_clients(self):
        with DeployServer(bound_manager()) as server:
            with pytest.raises(RuntimeError, match="no clients"):
                server.control_cycle()


class TestCycleViolations:
    def _registered(self, server):
        client = RawClient(server.address)
        t = threading.Thread(target=lambda: server.accept_clients(1))
        t.start()
        client.hello(n_units=2)
        t.join(2.0)
        return client

    def test_short_readings_batch_quarantines(self):
        with DeployServer(bound_manager(n_units=2)) as server:
            client = self._registered(server)
            results = []

            def cycle():
                results.append(server.control_cycle())

            t = threading.Thread(target=cycle)
            t.start()
            assert client.recv() == POLL
            client.send_words(
                [encode(MSG_READING, 0, 100.0)],  # Only 1 of 2 units.
            )
            t.join(3.0)
            client.close()
            assert results, "cycle must complete despite the short batch"
            stats = results[0]
            assert stats.quarantined == (0,)
            assert stats.fallback_units == 2
            quarantines = server.events.of_kind("client_quarantined")
            assert quarantines and "readings" in quarantines[0].detail

    def test_client_disconnect_mid_cycle_quarantines(self):
        with DeployServer(bound_manager(n_units=2)) as server:
            client = self._registered(server)
            results = []

            def cycle():
                results.append(server.control_cycle())

            t = threading.Thread(target=cycle)
            t.start()
            client.recv()  # POLL arrives...
            client.close()  # ...and the client dies.
            t.join(3.0)
            assert results, "cycle must survive a mid-cycle disconnect"
            stats = results[0]
            assert stats.quarantined == (0,)
            assert stats.n_healthy == 0
            assert server.events.of_kind("client_quarantined")

    @pytest.mark.parametrize(
        ("answer", "reason"),
        [
            (
                encode_words(encode(MSG_CAP, 0, 1.0) + encode(MSG_CAP, 1, 1.0)),
                "expected reading",
            ),
            (
                encode_words(
                    encode(MSG_READING, 0, 1.0) + encode(MSG_READING, 5, 1.0)
                ),
                "out of range",
            ),
            (encode_frame(POLL), "expected a READINGS batch"),
            (
                encode_words(
                    encode(MSG_READING, 0, 1.0) + encode(MSG_READING, 1, 1.0)
                )
                * 2,
                "beyond the end of the frame",
            ),
        ],
        ids=["caps-for-readings", "unit-out-of-range", "not-a-batch", "two-frames"],
    )
    def test_malformed_answer_quarantines(self, answer, reason):
        with DeployServer(bound_manager(n_units=2)) as server:
            client = self._registered(server)
            results = []
            t = threading.Thread(
                target=lambda: results.append(server.control_cycle())
            )
            t.start()
            assert client.recv() == POLL
            client.sock.sendall(answer)
            t.join(3.0)
            client.close()
            assert results and results[0].quarantined == (0,)
            # Nothing of a rejected batch lands: the equal-share prior holds.
            assert results[0].readings_w == pytest.approx([110.0, 110.0])
            quarantines = server.events.of_kind("client_quarantined")
            assert quarantines and reason in quarantines[0].detail
