"""Sharded control plane — cycle-time scaling with unit count.

The point of sharding the control plane is that the global cycle cost
grows with the number of units per shard, not with the whole cluster:
adding a shard adds its own controller, deploy server, and TCP clients,
while the arbiter's per-cycle work is O(n_shards) tiny summaries.  So
per-cycle wall time should scale *near-linearly* in total units when
every shard carries the same load — doubling the cluster by doubling the
shards roughly doubles the aggregate control work, with no superlinear
coordination blow-up at the arbiter.

This benchmark runs the real harness (real ``DeployServer`` per shard,
real TCP clients, real arbiter over wire-framed links) at each
shard count in ``REPRO_BENCH_SHARD_COUNTS`` (default "1,2,4,8") with
``REPRO_BENCH_SHARD_UNITS`` units per shard (default 6400 — so the top
configuration is 51,200 units across 8 shards).  Units are packed as
many sockets per node so the TCP fan-out stays modest while the cap
vectors carry full width.

Two further rows compare the transports of the one pipelined loop: a
CI-small thread vs process comparison (``process_mode``) and the
full-scale fleet row (``process_full_scale``), which reruns the top
topology in thread mode and in process mode under both clock codecs —
JSON float lists and the binary array frames of :mod:`repro.comm.wire`
— recording per-codec wall time and wire bytes/cycle.  The
binary-vs-JSON byte ratio is asserted; the process-over-thread
wall-clock ratio is reported, not gated — both modes run the same
loop, so the ratio is what process isolation costs or (given spare
cores) buys on the host at hand, not a property of the code.

Results are printed (run with ``-s``) and written to a
``BENCH_shards.json`` artifact (override via
``REPRO_BENCH_SHARDS_ARTIFACT``) so CI accumulates the perf history.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.shard import ArbiterConfig, RecoveryOptions, run_sharded

SHARD_COUNTS = tuple(
    int(x)
    for x in os.environ.get("REPRO_BENCH_SHARD_COUNTS", "1,2,4,8").split(",")
)
#: Units each shard carries (held fixed while the shard count scales).
UNITS_PER_SHARD = int(os.environ.get("REPRO_BENCH_SHARD_UNITS", "6400"))
#: Nodes (TCP clients) per shard; sockets-per-node makes up the width
#: (a client frame addresses at most 255 units, so the default packs
#: 6400/32 = 200 sockets per node).
NODES_PER_SHARD = int(os.environ.get("REPRO_BENCH_SHARD_NODES", "32"))
CYCLES = int(os.environ.get("REPRO_BENCH_SHARD_CYCLES", "6"))
ARTIFACT = os.environ.get("REPRO_BENCH_SHARDS_ARTIFACT", "BENCH_shards.json")

#: Scale of the thread-vs-process comparison row.  Process mode pays an
#: interpreter spawn and a private sub-cluster per shard, so it is
#: measured at a CI-friendly width (overhead is per-cycle protocol cost,
#: not width-dependent compute).
PROCESS_SHARDS = int(os.environ.get("REPRO_BENCH_SHARD_PROCESS_SHARDS", "8"))
PROCESS_UNITS = int(os.environ.get("REPRO_BENCH_SHARD_PROCESS_UNITS", "128"))
PROCESS_NODES = int(os.environ.get("REPRO_BENCH_SHARD_PROCESS_NODES", "4"))

#: The full-scale process row runs 8 real shard-server subprocesses at
#: the same 6400 units/shard the thread scaling rows use, so the
#: thread-vs-process comparison is apples-to-apples at fleet scale.
#: The per-cycle ack deadline is widened for every full-width row, in
#: either mode: on a saturated runner a fleet-wide cycle can take
#: seconds, and a spurious watchdog kill would turn a perf row into a
#: chaos drill.
FULL_HANG_TIMEOUT_S = float(
    os.environ.get("REPRO_BENCH_SHARD_FULL_TIMEOUT", "120")
)


def _measure(
    n_shards: int,
    units_per_shard: int = UNITS_PER_SHARD,
    nodes_per_shard: int = NODES_PER_SHARD,
    mode: str = "thread",
    codec: str = "json",
    hang_timeout_s: float | None = None,
) -> dict:
    """One sharded session; median steady-state cycle wall time."""
    if units_per_shard % nodes_per_shard:
        raise ValueError(
            f"units_per_shard={units_per_shard} must divide by "
            f"nodes_per_shard={nodes_per_shard}"
        )
    spec = ClusterSpec(
        n_nodes=n_shards * nodes_per_shard,
        sockets_per_node=units_per_shard // nodes_per_shard,
    )
    cluster = Cluster(
        spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(7)
    )
    demand = np.full(cluster.n_units, 0.6)
    with tempfile.TemporaryDirectory(prefix="bench-shards-") as ckpt:
        recovery = {"checkpoint_dir": ckpt, "checkpoint_every": max(2, CYCLES // 2)}
        if hang_timeout_s is not None:
            recovery["hang_timeout_s"] = hang_timeout_s
        result = run_sharded(
            cluster,
            n_shards=n_shards,
            manager_factory=lambda i: create_manager("constant"),
            demand_fn=lambda step: demand,
            cycles=CYCLES,
            checkpoint_dir=ckpt,
            config=ArbiterConfig(period_cycles=2),
            recovery=RecoveryOptions(**recovery),
            rng=np.random.default_rng(7),
            mode=mode,
            manager_name="constant" if mode == "process" else None,
            codec=codec if mode == "process" else "json",
        )
    assert result.invariant_violations == 0
    assert result.worst_case_w is not None
    assert result.worst_case_w <= result.budget_w * (1 + 1e-6)
    # Cycle 0 pays connection warm-up and first-dispatch costs; the
    # steady-state cycles are the scaling signal.
    steady = result.cycle_wall_s[1:]
    bytes_total = result.bytes_links + result.bytes_clock
    return {
        "mode": mode,
        "codec": result.codec,
        "n_shards": n_shards,
        "n_units": cluster.n_units,
        "cycle_s": float(np.median(steady)),
        "cycle_s_all": [float(w) for w in result.cycle_wall_s],
        "arbiter_cycles": result.arbiter_cycles,
        "invariant_sweeps": result.invariant_sweeps,
        "bytes_links": result.bytes_links,
        "bytes_clock": result.bytes_clock,
        "bytes_links_per_cycle": result.bytes_links / CYCLES,
        "bytes_clock_per_cycle": result.bytes_clock / CYCLES,
        "bytes_per_cycle": bytes_total / CYCLES,
        "worst_case_w": result.worst_case_w,
        "budget_w": result.budget_w,
    }


def test_shard_cycle_scaling(benchmark):
    results = benchmark.pedantic(
        lambda: [
            _measure(n, hang_timeout_s=FULL_HANG_TIMEOUT_S)
            for n in SHARD_COUNTS
        ],
        rounds=1,
        iterations=1,
    )

    print(
        f"\nsharded cycle time ({UNITS_PER_SHARD} units/shard, median of "
        f"{CYCLES - 1} steady cycles):"
    )
    per_unit = {}
    for r in results:
        per_unit[r["n_shards"]] = r["cycle_s"] / r["n_units"]
        print(
            f"  shards={r['n_shards']:2d} units={r['n_units']:6d}: "
            f"{r['cycle_s'] * 1e3:8.1f} ms/cycle "
            f"({r['cycle_s'] / r['n_units'] * 1e6:6.2f} us/unit)"
        )

    doc = {
        "format": "repro-bench-shards-v1",
        "units_per_shard": UNITS_PER_SHARD,
        "nodes_per_shard": NODES_PER_SHARD,
        "cycles": CYCLES,
        "results": results,
        "per_unit_cycle_s": {str(n): t for n, t in per_unit.items()},
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    n_max = max(SHARD_COUNTS)
    biggest = next(r for r in results if r["n_shards"] == n_max)
    if n_max >= 8 and UNITS_PER_SHARD >= 6400:
        # The acceptance bar: 8 shards carrying 50k+ units end to end.
        assert biggest["n_units"] >= 50_000, biggest["n_units"]
    # Near-linear scaling: normalized per-unit cycle time must not blow
    # up as shards are added — the arbiter and running every shard in
    # turn on one thread may cost something, but nothing superlinear.
    if len(per_unit) >= 2:
        ratio = max(per_unit.values()) / min(per_unit.values())
        print(f"per-unit cycle-time spread: {ratio:.2f}x")
        assert ratio < 2.5, (
            f"per-unit cycle time varies {ratio:.2f}x across "
            f"{sorted(per_unit)} shards — scaling is not near-linear"
        )


def _merge_artifact(key: str, section: dict) -> None:
    try:
        with open(ARTIFACT) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {"format": "repro-bench-shards-v1"}
    doc[key] = section
    with open(ARTIFACT, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {ARTIFACT}")


def test_process_mode_overhead(benchmark):
    """Thread vs process mode at the same topology: the isolation tax.

    Process mode swaps in-memory links for real TCP and in-process
    shards for shard-server subprocesses under the same pipelined loop; the
    steady-state per-cycle cost it adds is wire framing plus a select
    round trip per shard, what it buys is a core per shard.  Both clock
    codecs are measured so the history tracks the JSON and the binary
    bulk plane side by side.  This row stays CI-small; the fleet-scale
    comparison lives in :func:`test_process_fleet_full_scale`.
    """
    rows = benchmark.pedantic(
        lambda: [
            _measure(PROCESS_SHARDS, PROCESS_UNITS, PROCESS_NODES, mode, codec)
            for mode, codec in (
                ("thread", "json"),
                ("process", "json"),
                ("process", "binary"),
            )
        ],
        rounds=1,
        iterations=1,
    )

    by_key = {(r["mode"], r["codec"]): r for r in rows}
    print(
        f"\nthread vs process ({PROCESS_SHARDS} shards x "
        f"{PROCESS_UNITS} units):"
    )
    for (mode, codec), r in by_key.items():
        print(
            f"  {mode:8s}/{codec:6s}: {r['cycle_s'] * 1e3:8.1f} ms/cycle "
            f"({r['bytes_clock_per_cycle'] + r['bytes_links_per_cycle']:9.0f}"
            f" wire bytes/cycle)"
        )
    thread_s = by_key[("thread", "json")]["cycle_s"]
    overhead = by_key[("process", "json")]["cycle_s"] / thread_s
    overhead_bin = by_key[("process", "binary")]["cycle_s"] / thread_s
    print(
        f"process-mode overhead: {overhead:.2f}x (json), "
        f"{overhead_bin:.2f}x (binary)"
    )

    _merge_artifact(
        "process_mode",
        {
            "n_shards": PROCESS_SHARDS,
            "units_per_shard": PROCESS_UNITS,
            "nodes_per_shard": PROCESS_NODES,
            "cycles": CYCLES,
            "results": rows,
            "overhead_x": overhead,
            "overhead_x_binary": overhead_bin,
        },
    )


def test_process_fleet_full_scale(benchmark):
    """The process fleet at the thread rows' scale: 8 x 6400 units.

    Three sessions over the same topology — thread, process over the
    JSON clock plane, process over the binary plane — so the artifact
    answers two questions at fleet scale: what does real process
    isolation cost per cycle, and what does the binary bulk codec buy.
    Thread mode runs the same loop with every shard's cycle in turn on
    the harness's thread, so on a multicore runner the process fleet
    usually wins wall-clock (``overhead_x < 1.0``); that ratio is
    recorded, the several-fold cut in wire bytes per cycle is asserted.
    """
    n_shards = max(SHARD_COUNTS)
    rows = benchmark.pedantic(
        lambda: [
            _measure(
                n_shards,
                UNITS_PER_SHARD,
                NODES_PER_SHARD,
                mode,
                codec,
                hang_timeout_s=FULL_HANG_TIMEOUT_S,
            )
            for mode, codec in (
                ("thread", "json"),
                ("process", "json"),
                ("process", "binary"),
            )
        ],
        rounds=1,
        iterations=1,
    )

    by_key = {(r["mode"], r["codec"]): r for r in rows}
    thread = by_key[("thread", "json")]
    pjson = by_key[("process", "json")]
    pbin = by_key[("process", "binary")]
    print(
        f"\nfull-scale fleet ({n_shards} shards x {UNITS_PER_SHARD} units"
        f" = {thread['n_units']} units):"
    )
    for (mode, codec), r in by_key.items():
        print(
            f"  {mode:8s}/{codec:6s}: {r['cycle_s'] * 1e3:8.1f} ms/cycle "
            f"({r['bytes_clock_per_cycle'] + r['bytes_links_per_cycle']:9.0f}"
            f" wire bytes/cycle)"
        )
    overhead = pjson["cycle_s"] / thread["cycle_s"]
    overhead_bin = pbin["cycle_s"] / thread["cycle_s"]
    bytes_ratio = pjson["bytes_clock_per_cycle"] / pbin["bytes_clock_per_cycle"]
    print(
        f"process-vs-thread at full scale: {overhead:.2f}x (json), "
        f"{overhead_bin:.2f}x (binary); binary moves {bytes_ratio:.1f}x "
        f"fewer clock bytes/cycle"
    )

    _merge_artifact(
        "process_full_scale",
        {
            "n_shards": n_shards,
            "units_per_shard": UNITS_PER_SHARD,
            "nodes_per_shard": NODES_PER_SHARD,
            "cycles": CYCLES,
            "results": rows,
            "overhead_x": overhead,
            "overhead_x_binary": overhead_bin,
            "clock_bytes_ratio_json_over_binary": bytes_ratio,
        },
    )

    # The codec win is topology-determined, not load-determined: assert
    # it.  The wall-clock ratio depends on spare cores: reported above.
    assert bytes_ratio >= 5.0, (
        f"binary codec moves only {bytes_ratio:.1f}x fewer clock "
        f"bytes/cycle than JSON (expected >= 5x)"
    )
