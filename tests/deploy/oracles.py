"""Reference implementation the concurrent control cycle is held exact against.

``poll_sequential`` is the artifact's original collection strategy: a
strict blocking request/response chain, one client at a time.  The
product (:meth:`repro.deploy.server.DeployServer._broadcast_poll` +
``_collect_readings``) fans POLL out to every client and collects under
one deadline; this stays as the obviously-ordered definition the
determinism test compares a whole session trace against.  It is a test
fixture, not product: nothing in ``src/`` can select it.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.comm.protocol import POLL
from repro.comm.wire import encode_frame, recv_frame
from repro.deploy.server import DeployServer


def poll_sequential(
    server: DeployServer, polled
) -> tuple[dict[int, dict], dict[int, str]]:
    """POLL one client, block for its READINGS frame, then the next.

    POLL goes through the server's write path, so an attached daemon
    answers it there and then.
    """
    raw: dict[int, dict] = {}
    errors: dict[int, str] = {}
    for record in polled:
        assert record.conn is not None
        try:
            server._send(record, encode_frame(POLL))
            raw[record.node_id] = recv_frame(record.conn, record.frames)
        except (OSError, ValueError) as exc:
            errors[record.node_id] = f"poll: {exc}"
    return raw, errors


@contextlib.contextmanager
def sequential_polling():
    """Every ``DeployServer`` cycle inside the block uses the chain."""
    with pytest.MonkeyPatch.context() as patch:
        # The whole chain runs in the fan-out slot; the fan-in slot then
        # has nothing left to collect.
        patch.setattr(
            DeployServer,
            "_broadcast_poll",
            poll_sequential,
        )
        patch.setattr(
            DeployServer, "_collect_readings", lambda self, raw: (raw, {})
        )
        yield
