"""Informational probes of the wire, framing, arbiter and process fleet.

Probes are single measurements attached to ``guarded1k-sim``'s traced
output; none is gated.  They reach modules outside the long-lived
public API, so each runs behind :func:`soft`: a probe that cannot run
reads ``None`` and names its error instead of failing the benchmark.

The process fleet is a probe and not a workload because it does not
repeat: ``run_sharded(mode="process")`` at 2 x 3,200 units gave floor
medians 17 % apart over four runs of ten passes on this host (GIL
ping-pong among the client threads of each shard, three processes on
two vCPUs).  Promote it when its A/A spread falls under a tenth.
"""

from __future__ import annotations

import os
import shutil
import socket
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from benchmarks.perf.scenarios import mixed_power

PROBE_UNITS = 6_400
FLEET_SHARDS = 2
FLEET_UNITS_PER_SHARD = 3_200
FLEET_NODES_PER_SHARD = 16
FLEET_CYCLES = 40
FLEET_WARMUP = 5
FLEET_PASSES = 3


def soft(
    probe: Callable[..., dict], names: tuple[str, ...], errors: list[str], *args
) -> dict:
    """Run a probe; on any failure every metric it owns reads None."""
    try:
        return probe(*args)
    except Exception as exc:  # Probe targets may move; never fatal.
        errors.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
        return dict.fromkeys(names)


def _floor_us(fn: Callable[[], object], repeats: int = 30) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` identical calls (µs)."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best * 1e6


WIRE_METRICS = (
    "comm.encode_us",
    "comm.decode_us",
    "comm.bytes_per_unit_cycle",
    "comm.json_over_binary_bytes",
)


def wire_probe(seed: int) -> dict:
    """One 6,400-unit cycle command and its ack through the frame codec."""
    from repro.comm.wire import FrameAssembler, encode_frame

    rng = np.random.default_rng(seed)
    demand = rng.uniform(40.0, 160.0, PROBE_UNITS)
    power = rng.uniform(40.0, 160.0, PROBE_UNITS)
    # Caps on the protocol's 0.1 W lattice, as a manager's caps are once
    # they crossed the wire; only such arrays pack as u16.
    caps = np.floor(rng.uniform(30.0, 165.0, PROBE_UNITS) * 10.0 + 0.5) / 10.0
    command = {"type": "cycle", "step": 7, "demand": demand}
    ack = {
        "type": "cycle_ack",
        "step": 7,
        "status": "ok",
        "events": [],
        "power": power,
        "caps": caps,
    }

    def encode() -> bytes:
        return encode_frame(command) + encode_frame(ack, quantized=("caps",))

    frames = encode()

    def decode() -> list[dict]:
        return FrameAssembler().feed(frames)

    docs = decode()
    if not (
        len(docs) == 2
        and np.array_equal(docs[0]["demand"], demand)
        and np.array_equal(docs[1]["power"], power)
        and np.array_equal(docs[1]["caps"], caps)
    ):
        raise ValueError("command/ack did not round-trip bit-exactly")
    as_json = sum(
        len(
            encode_frame(
                {
                    k: v.tolist() if isinstance(v, np.ndarray) else v
                    for k, v in doc.items()
                }
            )
        )
        for doc in (command, ack)
    )
    return {
        "comm.encode_us": _floor_us(encode),
        "comm.decode_us": _floor_us(decode),
        "comm.bytes_per_unit_cycle": len(frames) / PROBE_UNITS,
        "comm.json_over_binary_bytes": as_json / len(frames),
    }


FRAMING_METRICS = (
    "deploy.batch_encode_us",
    "deploy.batch_decode_us",
    "deploy.bytes_per_unit",
)


def framing_probe(seed: int) -> dict:
    """6,400 three-byte cap messages as CAPS batches over a socketpair."""
    from repro.comm import protocol
    from repro.deploy import framing

    rng = np.random.default_rng(seed)
    caps = rng.uniform(30.0, 165.0, PROBE_UNITS)
    batches = [
        range(lo, min(lo + 255, PROBE_UNITS)) for lo in range(0, PROBE_UNITS, 255)
    ]
    left, right = socket.socketpair()
    try:

        def encode() -> int:
            return sum(
                framing.send_batch(
                    left,
                    framing.FRAME_CAPS,
                    [
                        protocol.encode(protocol.MSG_CAP, u - units[0], caps[u])
                        for u in units
                    ],
                )
                for units in batches
            )

        def decode() -> list:
            out = []
            for units in batches:
                assembler = framing.BatchAssembler(framing.FRAME_CAPS)
                assembler.feed(framing.recv_exact(right, 2 + 3 * len(units)))
                out.extend(protocol.decode(m) for m in assembler.batch)
            return out

        best_encode = best_decode = float("inf")
        for _ in range(10):
            started = perf_counter()
            payload_bytes = encode()
            mid = perf_counter()
            messages = decode()
            best_decode = min(best_decode, perf_counter() - mid)
            best_encode = min(best_encode, mid - started)
    finally:
        left.close()
        right.close()
    worst = max(abs(m.value_w - caps[i]) for i, m in enumerate(messages))
    if len(messages) != PROBE_UNITS or worst > 0.05 + 1e-9:
        raise ValueError(f"cap batch did not round-trip (off by {worst} W)")
    return {
        "deploy.batch_encode_us": best_encode * 1e6,
        "deploy.batch_decode_us": best_decode * 1e6,
        "deploy.bytes_per_unit": payload_bytes / PROBE_UNITS,
    }


ARBITER_METRICS = ("shard.redistribute_us",)


def arbiter_probe(seed: int) -> dict:
    """The arbiter's redistribution policy over eight shards."""
    from repro.shard.policy import redistribute

    rng = np.random.default_rng(seed)
    shards = 8
    units = np.full(shards, PROBE_UNITS)
    lease = units * 110.0
    args = dict(
        lease_w=lease,
        committed_w=lease * rng.uniform(0.5, 1.0, shards),
        floor_w=units * 30.0,
        ceiling_w=units * 165.0,
        n_units=units,
        priority=rng.random(shards) < 0.5,
        frozen=np.zeros(shards, dtype=bool),
        budget_w=float(lease.sum()),
    )
    result = redistribute(**args)
    if float(np.sum(result.leases_w)) > args["budget_w"] * (1 + 1e-9):
        raise ValueError("redistribution over-committed the budget")
    return {"shard.redistribute_us": _floor_us(lambda: redistribute(**args), 200)}


FLEET_METRICS = (
    "shard.fleet_cycle_ms",
    "shard.fleet_cpu_ms_per_cycle",
    "shard.fleet_wire_bytes_per_unit_cycle",
)


def fleet_probe(seed: int, workdir: Path) -> dict:
    """The 2 x 3,200-unit process fleet, three passes of forty cycles."""
    from repro import Cluster, ClusterSpec
    from repro.deploy.loopback import RecoveryOptions
    from repro.shard import run_sharded

    spec = ClusterSpec(
        n_nodes=FLEET_SHARDS * FLEET_NODES_PER_SHARD,
        sockets_per_node=FLEET_UNITS_PER_SHARD // FLEET_NODES_PER_SHARD,
    )
    walls, cpus, wire = [], [], 0.0
    for _ in range(FLEET_PASSES):
        root = workdir / "fleet"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        power = mixed_power(np.random.default_rng(seed), spec.n_units)
        before = os.times()
        result = run_sharded(
            Cluster(spec, rng=np.random.default_rng(seed)),
            n_shards=FLEET_SHARDS,
            manager_factory=lambda shard: None,
            demand_fn=power,
            cycles=FLEET_CYCLES,
            checkpoint_dir=root,
            # Wide enough that a stolen vCPU is not taken for a hang.
            recovery=RecoveryOptions(checkpoint_dir=root, hang_timeout_s=60.0),
            rng=np.random.default_rng(seed),
            mode="process",
            manager_name="dps",
            codec="binary",
        )
        after = os.times()
        shutil.rmtree(root, ignore_errors=True)
        if result.invariant_violations or result.failed_shards:
            raise ValueError(
                f"fleet run degraded: {result.invariant_violations} "
                f"violations, failed shards {result.failed_shards}"
            )
        walls.append(np.asarray(result.cycle_wall_s)[FLEET_WARMUP:])
        cpus.append(
            sum(
                getattr(after, f) - getattr(before, f)
                for f in ("user", "system", "children_user", "children_system")
            )
        )
        wire = (result.bytes_links + result.bytes_clock) / (
            spec.n_units * FLEET_CYCLES
        )
    return {
        "shard.fleet_cycle_ms": float(np.min(walls, axis=0).mean()) * 1e3,
        "shard.fleet_cpu_ms_per_cycle": min(cpus) / FLEET_CYCLES * 1e3,
        "shard.fleet_wire_bytes_per_unit_cycle": wire,
    }
