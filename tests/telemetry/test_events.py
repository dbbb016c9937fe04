"""Structured resilience events: log semantics and export round-trips."""

import numpy as np
import pytest

from repro.telemetry.export import events_to_csv, from_json, to_json
from repro.telemetry.log import (
    RESILIENCE_EVENT_KINDS,
    ResilienceEvent,
    ResilienceEventLog,
    TelemetryLog,
)


def small_log():
    log = TelemetryLog(n_units=2)
    caps = np.array([110.0, 110.0])
    log.record(0.0, np.array([100.0, 90.0]), np.array([99.0, 91.0]), caps)
    log.record(1.0, np.array([101.0, 91.0]), np.array([100.0, 92.0]), caps)
    return log


class TestResilienceEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ResilienceEvent(0.0, "meltdown")

    @pytest.mark.parametrize("kind", RESILIENCE_EVENT_KINDS)
    def test_all_kinds_constructible(self, kind):
        assert ResilienceEvent(1.0, kind).kind == kind


class TestResilienceEventLog:
    def test_emit_of_kind_for_node(self):
        now = [1]
        log = ResilienceEventLog(lambda: now[0])
        log.emit("client_quarantined", node_id=2, detail="timeout")
        now[0] = 2
        log.emit("client_rejoined", node_id=2)
        log.emit("cap_clamped", unit=5, node_id=1)
        assert len(log) == 3
        assert [e.kind for e in log.of_kind("client_rejoined")] == [
            "client_rejoined"
        ]
        assert len(log.for_node(2)) == 2
        # Stamped by the clock, as floats.
        assert [e.time_s for e in log] == [1.0, 2.0, 2.0]

    def test_append_keeps_the_stamp(self):
        log = ResilienceEventLog(lambda: 9)
        log.append(ResilienceEvent(0.0, "safe_mode_entered"))
        assert [(e.time_s, e.kind) for e in log] == [(0.0, "safe_mode_entered")]

    def test_settle_sorts_the_tail_chronologically(self):
        """A pipelined owner logs step N+1 before step N: settling from
        the last mark puts the tail in time order and returns it."""
        log = ResilienceEventLog(lambda: 0)
        log.append(ResilienceEvent(0.0, "safe_mode_entered"))
        log.append(ResilienceEvent(2.0, "client_quarantined", node_id=0))
        log.append(ResilienceEvent(1.0, "safe_mode_exited"))
        tail = log.settle(1)
        assert [e.time_s for e in tail] == [1.0, 2.0]
        assert [e.time_s for e in log] == [0.0, 1.0, 2.0]

    def test_settle_is_stable_at_equal_times(self):
        """Ties keep the order they were logged in."""
        log = ResilienceEventLog(lambda: 1)
        log.append(ResilienceEvent(2.0, "client_rejoined", node_id=0))
        log.emit("client_quarantined", node_id=0)
        log.emit("safe_mode_entered")
        log.emit("safe_mode_exited")
        log.settle(0)
        assert [e.kind for e in log] == [
            "client_quarantined",
            "safe_mode_entered",
            "safe_mode_exited",
            "client_rejoined",
        ]


class TestEventExport:
    def test_json_round_trip_preserves_events(self):
        log = small_log()
        log.events.emit("node_failed", node_id=1)
        log.events.emit("fallback_applied", node_id=1, detail="hold-last")
        log.events.emit("run_completed", workload="kmeans", detail="run 1")
        restored = from_json(to_json(log))
        assert list(restored.events) == list(log.events)
        evts = list(restored.events)
        # A trace's own log is stamped with its last recorded step.
        assert evts[0].kind == "node_failed" and evts[0].time_s == 1.0
        assert evts[1].detail == "hold-last"
        assert evts[2].workload == "kmeans"

    def test_json_without_the_workload_column_still_loads(self):
        """Documents written before the workload column keep loading."""
        import json

        doc = json.loads(to_json(small_log()))
        doc["events"] = [[3.0, "node_failed", None, 1, ""]]
        (event,) = from_json(json.dumps(doc)).events
        assert event == ResilienceEvent(3.0, "node_failed", node_id=1)

    def test_json_without_events_still_loads(self):
        """Documents written before the events channel keep loading."""
        import json

        doc = json.loads(to_json(small_log()))
        del doc["events"]
        restored = from_json(json.dumps(doc))
        assert len(restored.events) == 0

    def test_events_to_csv(self):
        log = ResilienceEventLog(lambda: 2)
        log.emit("client_quarantined", node_id=0, detail="poll, timeout")
        text = events_to_csv(log)
        lines = text.strip().splitlines()
        assert lines[0] == "time_s,kind,unit,node_id,detail,workload"
        # A comma inside the detail must not add a column.
        assert lines[1].count(",") == 5
