"""Deployable TCP control plane (the artifact's BSD-socket architecture).

:func:`repro.shard.run_sharded` drives it end to end; a one-shard run is
the single-server deployment.
"""

from repro.deploy.client import DeployClient
from repro.deploy.server import (
    PROTOCOL_MAX_W,
    DeployCycleStats,
    DeployServer,
)

__all__ = [
    "DeployClient",
    "DeployCycleStats",
    "DeployServer",
    "PROTOCOL_MAX_W",
]
