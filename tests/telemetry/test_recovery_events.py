"""Recovery-event kinds flow through the telemetry log and both exports."""

import csv
import io

import numpy as np
import pytest

from repro.telemetry.export import events_to_csv, from_json, to_json
from repro.telemetry.log import (
    RECOVERY_EVENT_KINDS,
    RecoveryEvent,
    ResilienceEvent,
    ResilienceEventLog,
    TelemetryLog,
)


def recovery_log():
    """A telemetry log whose event channel holds one of each recovery kind."""
    log = TelemetryLog(n_units=2)
    caps = np.array([110.0, 110.0])
    log.record(0.0, np.array([100.0, 90.0]), np.array([99.0, 91.0]), caps)
    for i, kind in enumerate(RECOVERY_EVENT_KINDS):
        log.events.append(
            ResilienceEvent(float(i), kind, unit=i % 2, detail=f"d{i}")
        )
    return log


class TestKinds:
    @pytest.mark.parametrize("kind", RECOVERY_EVENT_KINDS)
    def test_all_recovery_kinds_constructible(self, kind):
        assert ResilienceEvent(1.0, kind).kind == kind

    def test_recovery_event_is_the_same_record_type(self):
        # One structured stream: recovery events ride the resilience channel.
        assert RecoveryEvent is ResilienceEvent

    def test_emit_accepts_recovery_kinds(self):
        log = ResilienceEventLog(lambda: 0)
        log.emit("checkpoint_written", detail="ckpt-00000005.json")
        assert log.of_kind("checkpoint_written")[0].detail.startswith("ckpt")


class TestExportParity:
    def test_json_round_trip(self):
        restored = from_json(to_json(recovery_log()))
        got = [(e.time_s, e.kind, e.unit, e.detail) for e in restored.events]
        want = [
            (float(i), kind, i % 2, f"d{i}")
            for i, kind in enumerate(RECOVERY_EVENT_KINDS)
        ]
        assert got == want

    def test_csv_matches_json(self):
        log = recovery_log()
        restored = from_json(to_json(log))
        rows = list(csv.DictReader(io.StringIO(events_to_csv(log.events))))
        assert len(rows) == len(list(restored.events))
        for row, event in zip(rows, restored.events):
            assert row["kind"] == event.kind
            assert float(row["time_s"]) == event.time_s
            assert int(row["unit"]) == event.unit
            assert row["detail"] == event.detail
