"""The node daemon programs a CAPS batch whole or not at all."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm.protocol import MSG_CAP, MSG_READING, encode
from repro.core.config import ClusterSpec
from repro.deploy.client import DeployClient

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


@pytest.mark.parametrize(
    "words, reason",
    [
        (
            encode(MSG_CAP, 0, 50.0) + encode(MSG_READING, 1, 100.0),
            "cap messages only",
        ),
        (
            encode(MSG_CAP, 0, 50.0) + encode(MSG_CAP, 9, 100.0),
            "unknown local unit 9",
        ),
        (b"", "empty"),
    ],
    ids=["reading-kind", "out-of-range-unit", "empty"],
)
def test_bad_batch_rejected_before_any_cap_is_programmed(words, reason):
    cluster = Cluster(SPEC, rng=np.random.default_rng(0))
    before = cluster.caps_w()
    client = DeployClient(cluster.nodes[0], ("127.0.0.1", 0))
    with pytest.raises(ValueError, match=reason):
        client.apply_caps(words)
    assert np.array_equal(cluster.caps_w(), before)

