"""Golden digests of every experiment that builds its own simulation.

Tables, figure 2, the chaos pair, the checkpointed pair (and its resume)
and the harness's pair evaluation each turn a placement of workloads on
the cluster's halves into a ``Simulation``.  Each digest below is a
SHA-256 over everything one of them returns or leaves on disk, at
``time_scale`` 0.05 and one repeat on the paper's 10-node testbed.  The
constants were computed while each caller still built its simulation by
hand, before they shared ``jobs.build``, and committed unchanged: a
failure here means a seed, a placement or a budget moved, not that the
constant is stale.  One moved on purpose: ``chaos`` hashes each event's
``repr``, which changed when the simulator's own event record folded into
:class:`~repro.telemetry.log.ResilienceEvent`; the ``(time_s, kind,
workload, detail)`` sequence it hashes stayed the same, event for event.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import SimulationConfig
from repro.experiments.chaos import parse_chaos, run_chaos_pair
from repro.experiments.figures import figure2
from repro.experiments.harness import ExperimentConfig, ExperimentHarness
from repro.experiments.tables import table2

#: What ``dps-repro --time-scale 0.05 --repeats 1`` runs with.
CONFIG = ExperimentConfig(
    sim=SimulationConfig(time_scale=0.05, max_steps=2_000_000), repeats=1
)

#: docs/resilience.md's first chaos spec.
CHAOS = "stuck=0.05,dropout=0.05,spike=0.02,kill=1@30-60"

GOLDEN = {
    "chaos": (
        "fac6fc5d4b3e11a080952ab521451ea8"
        "7f274ac0ddd34459bce9343adeda6b81"
    ),
    "checkpointed": (
        "37ca10ffbdcfab7080d360de9ac442b8"
        "048cf9ac2280a1f9cd08b25e34136c7c"
    ),
    "evaluate_pair": (
        "a58e5bcfa9207967c9a9b173467623a9"
        "4f890c39f9c9246de590cfccb645dd1d"
    ),
    "evaluate_self_pair": (
        "57e739110f36e00e7407b411424ac386"
        "0ae031fec941f70e916ba4545afc2a1d"
    ),
    "figure2": (
        "9afce7dba884f3587c67b5cae54bdb82"
        "fb787db7525653e167c86b580cab41c4"
    ),
    "table2": (
        "16ac860a8d9255977f2066cd28bc884d"
        "bc2cf272c02d0ae464a59157791086b2"
    ),
}


def _table2(tmp_path: Path) -> list[bytes]:
    return [repr(row).encode() for row in table2(CONFIG)]


def _figure2(tmp_path: Path) -> list[bytes]:
    out = []
    for name, (time_s, power_w) in figure2(config=CONFIG).items():
        out.append(name.encode())
        out.append(np.ascontiguousarray(time_s, dtype=np.float64).tobytes())
        out.append(np.ascontiguousarray(power_w, dtype=np.float64).tobytes())
    return out


def _chaos(tmp_path: Path) -> list[bytes]:
    out = []
    for manager in ("dps", "constant"):
        outcome = run_chaos_pair(
            CONFIG, "kmeans", "gmm", manager, parse_chaos(CHAOS)
        )
        res = outcome.result
        out.append(
            repr(
                (outcome.manager, outcome.budget_respected,
                 outcome.node_failures, outcome.node_recoveries,
                 res.steps, res.sim_time_s, res.truncated, res.budget_w,
                 res.max_caps_sum_w)
            ).encode()
        )
        out.extend(
            repr((e.spec.name, e.records)).encode() for e in res.executions
        )
        out.extend(repr(event).encode() for event in res.events)
    return out


def _files(root: Path) -> list[bytes]:
    out = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out.append(path.relative_to(root).as_posix().encode())
        out.append(path.read_bytes())
    return out


def _checkpointed(tmp_path: Path) -> list[bytes]:
    root = tmp_path / "session"
    head = ["--time-scale", "0.05", "--repeats", "1"]
    assert main(
        [*head, "pair", "kmeans", "gmm", "--manager", "dps",
         "--checkpoint-dir", str(root)]
    ) == 0
    out = _files(root)
    assert main([*head, "resume", str(root)]) == 0
    return out + _files(root)


def _evaluate_pair(tmp_path: Path) -> list[bytes]:
    ev = ExperimentHarness(CONFIG).evaluate_pair("kmeans", "gmm", "dps")
    return [repr(ev).encode()]


def _evaluate_self_pair(tmp_path: Path) -> list[bytes]:
    ev = ExperimentHarness(CONFIG).evaluate_pair("lr", "lr", "dps")
    return [repr(ev).encode()]


CASES = {
    "table2": _table2,
    "figure2": _figure2,
    "chaos": _chaos,
    "checkpointed": _checkpointed,
    "evaluate_pair": _evaluate_pair,
    "evaluate_self_pair": _evaluate_self_pair,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_bit_identical(case, tmp_path):
    sha = hashlib.sha256()
    for chunk in CASES[case](tmp_path):
        sha.update(len(chunk).to_bytes(8, "little"))
        sha.update(chunk)
    assert sha.hexdigest() == GOLDEN[case]
