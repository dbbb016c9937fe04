"""Sharded control plane: N shard servers under one budget arbiter.

One :class:`~repro.deploy.server.DeployServer` scales to a few hundred
clients per cycle; beyond that the control plane itself must shard.  This
package splits the cluster into N *shards* — each a crash-recoverable
deploy server plus :class:`~repro.recovery.controller.
RecoverableController` owning a contiguous slice of the clients — and
puts them under one :class:`~repro.shard.arbiter.BudgetArbiter` that
periodically collects shard summaries and redistributes the global
budget with the same restore / hand-out / equalize shape DPS applies to
units (:mod:`repro.core.readjust`), one level up.

Shard budgets are **leases with deadlines**, not grants: a shard missing
its renewal freezes itself at its last confirmed committed power, the
arbiter only reclaims headroom it can prove unused (acknowledged through
the lease sequence numbers in shard summaries), and the global
worst-case committed power tracked by the arbiter's
:class:`~repro.safety.envelope.BudgetEnvelope` never exceeds the budget
even with a dark shard.
"""

from repro.shard.arbiter import ArbiterShard, BudgetArbiter
from repro.shard.fleet import (
    Fleet,
    FleetCycle,
    ShardChaosSchedule,
    ShardedResult,
    run_sharded,
)
from repro.shard.lease import (
    ArbiterConfig,
    BudgetLease,
    ShardLink,
    ShardSummary,
)
from repro.shard.policy import Redistribution, redistribute
from repro.shard.server import HostedShard, ShardServer
from repro.shard.supervisor import (
    InlineShard,
    RecoveryOptions,
    ShardProcess,
    ShardSpec,
)

__all__ = [
    "ArbiterConfig",
    "ArbiterShard",
    "BudgetArbiter",
    "BudgetLease",
    "Fleet",
    "FleetCycle",
    "HostedShard",
    "InlineShard",
    "RecoveryOptions",
    "Redistribution",
    "ShardChaosSchedule",
    "ShardLink",
    "ShardProcess",
    "ShardServer",
    "ShardSpec",
    "ShardSummary",
    "ShardedResult",
    "redistribute",
    "run_sharded",
]
