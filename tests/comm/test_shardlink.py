"""TcpShardLink against a scripted peer: dial, drop, reconnect, partition.

The peer here is a bare listener the tests drive by hand — accepting,
sending half-frames, and slamming connections shut — so every failure
mode the link claims to absorb is exercised at the socket level rather
than mocked.
"""

import socket
import time

import pytest

from repro.comm.shardlink import TcpShardLink
from repro.comm.wire import FrameAssembler, encode_frame
from repro.telemetry.log import ResilienceEventLog


class Peer:
    """A hand-driven shard-server stand-in: one listener, one session."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5.0)
        self.address = self.listener.getsockname()
        self.conn = None
        self.assembler = FrameAssembler()

    def accept(self):
        self.conn, _ = self.listener.accept()
        self.conn.settimeout(5.0)
        self.assembler = FrameAssembler()
        return self.conn

    def recv_docs(self, n=1, timeout_s=5.0):
        """Block until ``n`` frames arrived on the current session."""
        docs = []
        deadline = time.monotonic() + timeout_s
        while len(docs) < n:
            if time.monotonic() > deadline:
                raise TimeoutError(f"got {len(docs)}/{n} docs")
            data = self.conn.recv(65536)
            if not data:
                raise ConnectionError("peer saw EOF")
            docs.extend(self.assembler.feed(data))
        return docs

    def send_doc(self, doc):
        self.conn.sendall(encode_frame(doc))

    def send_raw(self, data):
        self.conn.sendall(data)

    def drop(self):
        """Kill the current session (the link sees EOF or RST)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def close(self):
        self.drop()
        self.listener.close()


@pytest.fixture
def peer():
    p = Peer()
    yield p
    p.close()


def make_link(peer, **kwargs):
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_max_s", 0.05)
    return TcpShardLink(peer.address, shard_id=0, **kwargs)


def drain_until(link, n=1, timeout_s=5.0):
    """Poll the link until ``n`` documents came through."""
    docs = []
    deadline = time.monotonic() + timeout_s
    while len(docs) < n and time.monotonic() < deadline:
        docs.extend(link.take_summaries())
        if len(docs) < n:
            time.sleep(0.01)
    return docs


class TestConnectAndRoundTrip:
    def test_hello_precedes_first_grant(self, peer):
        link = make_link(peer)
        assert link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        docs = peer.recv_docs(2)
        assert docs[0] == {"type": "hello", "role": "arbiter"}
        assert docs[1] == {"type": "grant", "seq": 1}

    def test_summary_round_trip(self, peer):
        link = make_link(peer)
        assert link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        peer.send_doc({"type": "summary", "shard": 0, "seq": 1})
        docs = drain_until(link)
        assert docs == [{"type": "summary", "shard": 0, "seq": 1}]
        assert link.bytes_total > 0

    def test_wait_readable_sees_pending_summary(self, peer):
        link = make_link(peer)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        assert not link.wait_readable(0.05)  # nothing sent yet
        peer.send_doc({"type": "summary", "shard": 0, "seq": 1})
        assert link.wait_readable(5.0)
        assert drain_until(link)


class TestReconnect:
    def test_redials_after_peer_drop(self, peer):
        events = ResilienceEventLog(lambda: 0)
        link = make_link(peer, events=events)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        peer.drop()
        # The drop is only observable once the link touches the socket.
        deadline = time.monotonic() + 5.0
        while link.reconnects == 0 and time.monotonic() < deadline:
            link.take_summaries()
            link.send_grant({"type": "grant", "seq": 2})
            time.sleep(0.01)
        assert link.reconnects == 1
        peer.accept()
        assert peer.recv_docs(1)[0] == {"type": "hello", "role": "arbiter"}
        assert [e.kind for e in events] == ["link_reconnect"]
        assert [e.node_id for e in events] == [0]

    def test_torn_frame_does_not_corrupt_next_session(self, peer):
        link = make_link(peer)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        # Half a summary, then the connection dies under it.
        torn = encode_frame({"type": "summary", "shard": 0, "seq": 1})
        peer.send_raw(torn[: len(torn) - 3])
        time.sleep(0.05)
        assert link.take_summaries() == []  # buffered, incomplete
        peer.drop()
        deadline = time.monotonic() + 5.0
        while link.reconnects == 0 and time.monotonic() < deadline:
            link.take_summaries()
            time.sleep(0.01)
        peer.accept()
        peer.recv_docs(1)  # the fresh hello
        # The new session's first frame must decode whole — no torn
        # prefix from the previous session may survive the reconnect.
        peer.send_doc({"type": "summary", "shard": 0, "seq": 2})
        docs = drain_until(link)
        assert docs == [{"type": "summary", "shard": 0, "seq": 2}]

    def test_eof_still_delivers_preceding_bytes(self, peer):
        """A drained shard's final summary survives its process exit."""
        link = make_link(peer)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        peer.send_doc({"type": "summary", "shard": 0, "final": True})
        peer.drop()
        docs = drain_until(link)
        assert {"type": "summary", "shard": 0, "final": True} in docs

    def test_dial_failure_backs_off(self, peer):
        # Point the link at a port nothing listens on.
        dead = socket.create_server(("127.0.0.1", 0))
        address = dead.getsockname()
        dead.close()
        link = TcpShardLink(
            address, shard_id=0, backoff_base_s=10.0, backoff_max_s=60.0
        )
        assert not link.send_grant({"type": "grant", "seq": 1})
        assert not link.connected
        # The next attempt is scheduled well in the future: an immediate
        # retry returns without re-dialing (no thundering herd).
        start = time.monotonic()
        assert not link.send_grant({"type": "grant", "seq": 1})
        assert time.monotonic() - start < 1.0


class TestPartition:
    def test_partition_suppresses_dialing_until_heal(self, peer):
        link = make_link(peer)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        link.partition()
        assert link.partitioned
        assert not link.connected
        assert not link.send_grant({"type": "grant", "seq": 2})
        assert link.take_summaries() == []
        assert not link.wait_readable(0.01)
        link.heal()
        assert not link.partitioned
        assert link.send_grant({"type": "grant", "seq": 2})
        peer.accept()
        docs = peer.recv_docs(2)
        assert docs[0] == {"type": "hello", "role": "arbiter"}
        assert docs[1] == {"type": "grant", "seq": 2}

    def test_close_allows_immediate_redial(self, peer):
        link = make_link(peer)
        link.send_grant({"type": "grant", "seq": 1})
        peer.accept()
        peer.recv_docs(2)
        link.close()
        assert not link.connected
        assert not link.partitioned
        assert link.send_grant({"type": "grant", "seq": 2})
        peer.accept()
        assert len(peer.recv_docs(2)) == 2
