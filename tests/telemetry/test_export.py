"""Telemetry CSV/JSON serialization."""

import numpy as np
import pytest

from repro.telemetry.export import from_csv, from_json, to_csv, to_json
from repro.telemetry.log import TelemetryLog


def make_log(steps=4, n_units=2):
    log = TelemetryLog(n_units)
    rng = np.random.default_rng(0)
    for t in range(steps):
        log.record(
            float(t + 1),
            rng.uniform(40, 160, n_units),
            rng.uniform(40, 160, n_units),
            np.full(n_units, 110.0),
            priority=rng.random(n_units) < 0.5,
        )
    return log


class TestCsv:
    def test_header_and_row_count(self):
        log = make_log(steps=3, n_units=2)
        lines = to_csv(log).strip().splitlines()
        assert lines[0] == "time_s,unit,power_w,reading_w,cap_w,priority"
        assert len(lines) == 1 + 3 * 2

    def test_values_formatted(self):
        log = TelemetryLog(1)
        log.record(
            1.0, np.array([100.5]), np.array([101.0]), np.array([110.0]),
            priority=np.array([True]),
        )
        row = to_csv(log).strip().splitlines()[1]
        assert row == "1.000,0,100.500,101.000,110.000,1"

    def test_csv_round_trip(self):
        log = make_log(steps=3, n_units=2)
        restored = from_csv(to_csv(log))
        assert restored.n_units == 2
        np.testing.assert_allclose(
            restored.power_w, log.power_w, atol=5e-4
        )
        np.testing.assert_array_equal(restored.priority, log.priority)

    def test_from_csv_requires_header(self):
        with pytest.raises(ValueError, match="header"):
            from_csv("1,0,1,1,1,0\n")

    def test_from_csv_rejects_ragged_steps(self):
        text = (
            "time_s,unit,power_w,reading_w,cap_w,priority\n"
            "1.0,0,1,1,1,0\n"
            "1.0,1,1,1,1,0\n"
            "2.0,0,1,1,1,0\n"
        )
        with pytest.raises(ValueError, match="tile"):
            from_csv(text)

    def test_from_csv_rejects_duplicate_unit_in_step(self):
        text = (
            "time_s,unit,power_w,reading_w,cap_w,priority\n"
            "1.0,0,1,1,1,0\n"
            "1.0,0,1,1,1,0\n"
            "2.0,1,1,1,1,0\n"
            "2.0,1,1,1,1,0\n"
        )
        with pytest.raises(ValueError, match="every unit"):
            from_csv(text)

    def test_from_csv_rejects_empty_body(self):
        with pytest.raises(ValueError, match="no rows"):
            from_csv("time_s,unit,power_w,reading_w,cap_w,priority\n")


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        log = make_log()
        restored = from_json(to_json(log))
        assert restored.n_units == log.n_units
        np.testing.assert_allclose(restored.time_s, log.time_s)
        np.testing.assert_allclose(restored.power_w, log.power_w)
        np.testing.assert_allclose(restored.readings_w, log.readings_w)
        np.testing.assert_allclose(restored.caps_w, log.caps_w)
        np.testing.assert_array_equal(restored.priority, log.priority)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="unsupported"):
            from_json('{"format": "other"}')

    def test_rejects_inconsistent_shapes(self):
        import json

        doc = json.loads(to_json(make_log()))
        doc["caps_w"] = doc["caps_w"][:-1]
        with pytest.raises(ValueError, match="caps_w"):
            from_json(json.dumps(doc))

    def test_empty_log_round_trips(self):
        log = TelemetryLog(3)
        restored = from_json(to_json(log))
        assert len(restored) == 0
        assert restored.n_units == 3

    def test_simulation_log_round_trips_with_analysis(self):
        """A real simulation's telemetry survives export/import with its
        derived metrics intact."""
        import numpy as np

        from repro.cluster.simulator import Assignment, Simulation
        from repro.core.config import ClusterSpec, SimulationConfig
        from repro.core.managers import create_manager
        from repro.metrics.energy import energy_j
        from repro.telemetry.analysis import avg_power
        from repro.workloads.registry import get_workload

        spec = ClusterSpec(n_nodes=2, sockets_per_node=2)
        sim = Simulation(
            cluster_spec=spec,
            manager=create_manager("dps"),
            assignments=[
                Assignment(
                    spec=get_workload("sort"),
                    unit_ids=spec.half_unit_ids(0),
                )
            ],
            target_runs=1,
            sim_config=SimulationConfig(
                time_scale=0.5, max_steps=2000, inter_run_gap_s=0.0
            ),
            seed=6,
            record_telemetry=True,
        )
        result = sim.run()
        log = result.telemetry
        assert log is not None
        restored = from_json(to_json(log))
        units = np.array([0, 1])
        end = float(log.time_s[-1])
        assert avg_power(restored, units, 0.0, end) == pytest.approx(
            avg_power(log, units, 0.0, end)
        )
        assert energy_j(restored, units, 0.0, end) == pytest.approx(
            energy_j(log, units, 0.0, end)
        )


def make_timeline(cycles=3, shards=2):
    from repro.telemetry.log import LeaseTimeline, ShardLeaseSample

    timeline = LeaseTimeline()
    for cycle in range(1, cycles + 1):
        for shard in range(shards):
            committed = float("nan") if cycle == 1 and shard == 1 else 80.0
            timeline.record(
                ShardLeaseSample(
                    cycle=cycle,
                    shard_id=shard,
                    lease_w=110.0 + shard,
                    committed_w=committed,
                    headroom_w=110.0 + shard - committed,
                    seq=cycle,
                    dark=(cycle == 2 and shard == 0),
                    frozen=(cycle == 3 and shard == 1),
                )
            )
    return timeline


class TestLeaseTimeline:
    def test_csv_header_and_rows(self):
        from repro.telemetry.export import leases_to_csv
        from repro.telemetry.log import LEASE_TIMELINE_FIELDS

        timeline = make_timeline(cycles=3, shards=2)
        lines = leases_to_csv(timeline).strip().splitlines()
        assert lines[0] == ",".join(LEASE_TIMELINE_FIELDS)
        assert len(lines) == 1 + 3 * 2

    def test_json_round_trip(self):
        from repro.telemetry.export import leases_from_json, leases_to_json

        timeline = make_timeline()
        restored = leases_from_json(leases_to_json(timeline))
        assert len(restored) == len(timeline)
        for a, b in zip(restored, timeline):
            assert a.cycle == b.cycle
            assert a.shard_id == b.shard_id
            assert a.lease_w == b.lease_w
            assert a.seq == b.seq
            assert a.dark == b.dark
            assert a.frozen == b.frozen
            assert (a.committed_w == b.committed_w) or (
                np.isnan(a.committed_w) and np.isnan(b.committed_w)
            )

    def test_csv_json_parity(self):
        """Both exports carry the same samples in the same order."""
        from repro.telemetry.export import (
            leases_from_json,
            leases_to_csv,
            leases_to_json,
        )
        from repro.telemetry.log import LEASE_TIMELINE_FIELDS

        timeline = make_timeline()
        restored = leases_from_json(leases_to_json(timeline))
        rows = leases_to_csv(timeline).strip().splitlines()[1:]
        assert len(rows) == len(restored)
        for row, sample in zip(rows, restored):
            parts = dict(zip(LEASE_TIMELINE_FIELDS, row.split(",")))
            assert int(parts["cycle"]) == sample.cycle
            assert int(parts["shard_id"]) == sample.shard_id
            assert float(parts["lease_w"]) == pytest.approx(
                sample.lease_w, abs=5e-7
            )
            assert int(parts["seq"]) == sample.seq
            assert bool(int(parts["dark"])) == sample.dark
            assert bool(int(parts["frozen"])) == sample.frozen

    def test_from_json_rejects_wrong_format(self):
        from repro.telemetry.export import leases_from_json

        with pytest.raises(ValueError, match="format"):
            leases_from_json('{"format": "something-else"}')

    def test_from_json_rejects_ragged_columns(self):
        import json as json_mod

        from repro.telemetry.export import leases_from_json, leases_to_json

        doc = json_mod.loads(leases_to_json(make_timeline()))
        doc["seq"] = doc["seq"][:-1]
        with pytest.raises(ValueError, match="seq"):
            leases_from_json(json_mod.dumps(doc))
