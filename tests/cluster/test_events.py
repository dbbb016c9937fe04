"""A simulation's events: one record, one log, stamped by the plant."""

import pytest

from repro.telemetry.log import ResilienceEvent, ResilienceEventLog


class TestEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ResilienceEvent(0.0, "exploded")

    def test_fields(self):
        e = ResilienceEvent(
            3.0, "run_completed", workload="kmeans", detail="run 2"
        )
        assert e.time_s == 3.0 and e.workload == "kmeans"


class TestEventLog:
    def test_emit_and_iterate(self):
        now = [1.0]
        log = ResilienceEventLog(lambda: now[0])
        log.emit("run_started", workload="a")
        now[0] = 2.0
        log.emit("run_completed", workload="a")
        assert len(log) == 2
        assert [(e.time_s, e.kind) for e in log] == [
            (1.0, "run_started"),
            (2.0, "run_completed"),
        ]

    def test_of_kind(self):
        log = ResilienceEventLog(lambda: 0)
        log.emit("run_started", workload="a")
        log.emit("budget_violation", detail="sum=2201.0")
        assert len(log.of_kind("budget_violation")) == 1

    def test_of_kind_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ResilienceEventLog(lambda: 0).of_kind("bogus")

    def test_for_workload(self):
        log = ResilienceEventLog(lambda: 1)
        log.emit("run_started", workload="a")
        log.emit("run_started", workload="b")
        assert [(e.time_s, e.workload) for e in log] == [(1.0, "a"), (1.0, "b")]
