"""InlineShard: the process handle's surface on the caller's thread."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.shard.server import HostedShard
from repro.shard.supervisor import InlineShard
from tests.shard.test_server import make_shard


@pytest.fixture
def handle(tmp_path):
    cluster = Cluster(
        ClusterSpec(n_nodes=1, sockets_per_node=2),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(0),
    )
    shard, link = make_shard(tmp_path)
    inline = InlineShard(HostedShard(shard, cluster.nodes, dt_s=1.0), link)
    yield inline
    inline.shutdown()
    assert not inline.alive


def test_cycle_ack_carries_the_slice_and_the_lease(handle):
    handle.spawn()
    assert handle.alive
    assert handle.command_cycle(0, np.full(2, 120.0))
    ack = handle.await_ack(0, timeout_s=5.0)
    assert ack["type"] == "cycle_ack" and ack["step"] == 0
    assert ack["lease_w"] == 220.0
    assert ack["power"].shape == ack["caps"].shape == (2,)
    assert np.all(ack["caps"] == 110.0)
    assert handle.bytes_clock == 0


def test_out_of_order_ack_is_an_error(handle):
    handle.spawn()
    handle.command_cycle(3, np.full(2, 120.0))
    with pytest.raises(RuntimeError, match="acked cycle 3 during cycle 4"):
        handle.await_ack(4, timeout_s=5.0)


def test_hang_is_silent_until_killed(handle):
    handle.spawn()
    handle.send_hang()
    assert handle.await_ack(0, timeout_s=0.2) is None
    assert handle.alive
    handle.kill()
    assert not handle.alive
    assert not handle.command_cycle(1, np.full(2, 120.0))


def test_worker_death_reads_as_a_closed_connection(handle):
    """A shard whose cycle raises answers None at once, not after the
    deadline, and the respawn warm-restores from the checkpoint."""
    handle.spawn()
    handle.command_cycle(0, np.full(3, 120.0))  # Wrong width: it raises.
    assert handle.await_ack(0, timeout_s=30.0) is None
    handle.kill()  # What the supervisor does with a silent shard: reap it.
    assert not handle.alive
    handle.spawn(resume=1)
    handle.command_cycle(1, np.full(2, 120.0))
    assert handle.await_ack(1, timeout_s=5.0)["step"] == 1
