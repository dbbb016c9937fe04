#!/usr/bin/env python3
"""Record a workload's power trace, export it, and replay it as a workload.

Demonstrates the trace pipeline a real deployment would use: run an
application once uncapped while sampling RAPL (here: the simulator's
telemetry), serialize the trace to CSV, then replay it as a demand program
in any experiment — the replayed workload behaves like the original,
including stretching under caps.

Run time: ~10 s.  Usage::

    python examples/trace_replay.py
"""

import numpy as np

from repro import ClusterSpec, SimulationConfig
from repro.cluster.simulator import Assignment, Simulation
from repro.core.managers import create_manager
from repro.workloads.registry import get_workload
from repro.workloads.traces import PowerTrace, record_trace, traced_workload


def run_solo(spec, cluster_spec, manager_name="constant",
             budget_fraction=1.0, seed=5, time_scale=0.2):
    cs = ClusterSpec(
        n_nodes=cluster_spec.n_nodes,
        sockets_per_node=cluster_spec.sockets_per_node,
        budget_fraction=budget_fraction,
    )
    sim = Simulation(
        cluster_spec=cs,
        manager=create_manager(manager_name),
        assignments=[Assignment(spec=spec, unit_ids=cs.half_unit_ids(0))],
        target_runs=1,
        sim_config=SimulationConfig(time_scale=time_scale, max_steps=200_000),
        seed=seed,
        record_telemetry=True,
    )
    return sim.run()


def main() -> None:
    cluster_spec = ClusterSpec(n_nodes=4, sockets_per_node=2)

    # 1. Record bayes uncapped (caps at TDP).
    original = get_workload("bayes")
    result = run_solo(original, cluster_spec, budget_fraction=1.0)
    assert result.telemetry is not None
    trace = record_trace(result.telemetry, unit_id=0, name="bayes-replay")
    print(
        f"recorded {len(trace.time_s)} samples, "
        f"{trace.power_w.min():.0f}-{trace.power_w.max():.0f} W, "
        f"duration {trace.duration_s:.0f}s"
    )

    # 2. Round-trip through CSV (what a real RAPL sampler would produce).
    csv_text = trace.to_csv()
    restored = PowerTrace.from_csv(csv_text, name="bayes-replay")
    print(f"CSV round trip: {len(csv_text.splitlines()) - 1} rows")

    # 3. Replay under a binding budget and compare to the original program.
    # The trace was recorded at time_scale 0.2, so the replay runs at
    # scale 1.0 — it is already in compressed time.
    replayed_spec = traced_workload(restored)
    capped_original = run_solo(original, cluster_spec, budget_fraction=2 / 3)
    capped_replay = run_solo(
        replayed_spec, cluster_spec, budget_fraction=2 / 3, time_scale=1.0
    )
    d_orig = capped_original.durations["bayes"]
    d_replay = capped_replay.durations["bayes-replay"]
    print(
        f"constant-cap duration: original program {d_orig:.0f}s, "
        f"replayed trace {d_replay:.0f}s "
        f"({100 * abs(d_orig - d_replay) / d_orig:.1f}% apart)"
    )
    assert np.isclose(d_orig, d_replay, rtol=0.25)


if __name__ == "__main__":
    main()
