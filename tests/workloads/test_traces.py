"""Power-trace recording, serialization, and replay."""

import numpy as np
import pytest

from repro.telemetry.log import TelemetryLog
from repro.workloads.traces import (
    PowerTrace,
    TracedProgram,
    record_trace,
    traced_workload,
)


def simple_trace():
    return PowerTrace(
        time_s=np.array([0.0, 1.0, 2.0, 3.0]),
        power_w=np.array([50.0, 100.0, 150.0, 100.0]),
        name="t",
    )


class TestPowerTrace:
    def test_duration(self):
        assert simple_trace().duration_s == pytest.approx(3.0)

    def test_rejects_non_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PowerTrace(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="power_w"):
            PowerTrace(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="2 samples"):
            PowerTrace(np.array([0.0]), np.array([1.0]))

    def test_csv_round_trip(self):
        trace = simple_trace()
        restored = PowerTrace.from_csv(trace.to_csv(), name="t")
        np.testing.assert_allclose(restored.time_s, trace.time_s)
        np.testing.assert_allclose(restored.power_w, trace.power_w)

    def test_from_csv_requires_header(self):
        with pytest.raises(ValueError, match="header"):
            PowerTrace.from_csv("0,50\n1,60\n")

    def test_from_csv_rejects_bad_row(self):
        with pytest.raises(ValueError, match="line 3"):
            PowerTrace.from_csv("time_s,power_w\n0,50\n1\n")


class TestTracedProgram:
    def test_interpolates(self):
        prog = TracedProgram(simple_trace())
        assert prog.demand_at(0.5) == pytest.approx(75.0)
        assert prog.demand_at(1.0) == pytest.approx(100.0)

    def test_clamps_at_ends(self):
        prog = TracedProgram(simple_trace())
        assert prog.demand_at(-1.0) == pytest.approx(50.0)
        assert prog.demand_at(99.0) == pytest.approx(100.0)

    def test_sample_and_fraction(self):
        prog = TracedProgram(simple_trace())
        trace = prog.sample(1.0)
        assert trace.shape == (3,)
        assert 0.0 <= prog.fraction_above(110.0) <= 1.0

    def test_scaled(self):
        prog = TracedProgram(simple_trace()).scaled(2.0)
        assert prog.duration_s == pytest.approx(6.0)
        assert prog.demand_at(1.0) == pytest.approx(75.0)

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            TracedProgram(simple_trace()).scaled(0.0)

    def test_nonzero_start_time(self):
        trace = PowerTrace(
            np.array([10.0, 11.0, 12.0]), np.array([50.0, 100.0, 50.0])
        )
        prog = TracedProgram(trace)
        assert prog.duration_s == pytest.approx(2.0)
        assert prog.demand_at(1.0) == pytest.approx(100.0)


class TestRecordTrace:
    def make_log(self):
        log = TelemetryLog(2)
        for t in range(5):
            log.record(
                float(t + 1),
                np.array([50.0 + t, 80.0]),
                np.array([50.0 + t, 80.0]),
                np.array([110.0, 110.0]),
            )
        return log

    def test_records_unit_series(self):
        trace = record_trace(self.make_log(), 0, name="x")
        assert trace.name == "x"
        np.testing.assert_allclose(trace.power_w, [50, 51, 52, 53, 54])

    def test_rejects_bad_unit(self):
        with pytest.raises(ValueError, match="unit_id"):
            record_trace(self.make_log(), 5)

    def test_rejects_short_log(self):
        log = TelemetryLog(1)
        log.record(1.0, np.array([1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="fewer than 2"):
            record_trace(log, 0)


class TestTracedWorkload:
    def test_runs_through_simulator(self):
        """A traced workload is a drop-in replacement in the engine."""
        from repro.cluster.simulator import Assignment, Simulation
        from repro.core.config import ClusterSpec, SimulationConfig
        from repro.core.managers import create_manager

        t = np.arange(30, dtype=float)
        trace = PowerTrace(t, 80.0 + 60.0 * (t % 10 < 4), name="replayed")
        spec = traced_workload(trace)
        cluster_spec = ClusterSpec(n_nodes=2, sockets_per_node=2)
        sim = Simulation(
            cluster_spec=cluster_spec,
            manager=create_manager("dps"),
            assignments=[
                Assignment(spec=spec, unit_ids=cluster_spec.half_unit_ids(0))
            ],
            target_runs=1,
            sim_config=SimulationConfig(max_steps=2000, inter_run_gap_s=0.0),
            seed=4,
        )
        result = sim.run()
        assert not result.truncated
        assert result.durations["replayed"] > 0
