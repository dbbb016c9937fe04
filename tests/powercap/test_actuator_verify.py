"""Verified actuation: read-back checks, bounded retry, reset, snapshot."""

import numpy as np
import pytest

from repro.core.config import RaplConfig
from repro.powercap.actuator import CapActuator
from repro.powercap.rapl import RaplBank, RaplDomain
from repro.telemetry.log import ResilienceEventLog


class FlakyBank(RaplBank):
    """A bank whose cap writes sometimes do not take.

    Each unit's write is dropped with probability ``drop_prob`` (its
    limit silently keeps its previous value, as a failed sysfs write
    leaves it), optionally only for the first ``max_drops`` writes of
    that unit, so tests can model transient contention that a bounded
    retry rides out.
    """

    def __init__(self, n_units, drop_prob, max_drops=None, seed=0):
        super().__init__(n_units, 165.0, 30.0, RaplConfig(noise_std_w=0.0))
        self.drop_prob = drop_prob
        self.max_drops = max_drops
        self._rngs = [np.random.default_rng(seed + i) for i in range(n_units)]
        #: Writes silently dropped so far, per unit.
        self.writes_dropped = [0] * n_units

    def set_caps_w(self, caps_w, span=slice(None)):
        before = self.cap_w[span].copy()
        super().set_caps_w(caps_w, span)
        for offset, unit in enumerate(range(self.n_units)[span]):
            budget_left = (
                self.max_drops is None
                or self.writes_dropped[unit] < self.max_drops
            )
            if budget_left and self._rngs[unit].random() < self.drop_prob:
                self.writes_dropped[unit] += 1
                self.cap_w[unit] = before[offset]


def views(bank):
    return [RaplDomain.of_bank(bank, i, f"d{i}") for i in range(bank.n_units)]


def healthy_domains(n=2):
    return views(RaplBank(n, 165.0, 30.0, RaplConfig(noise_std_w=0.0)))


def flaky_domains(n=2, drop_prob=1.0, max_drops=None, seed=0):
    return views(FlakyBank(n, drop_prob, max_drops, seed))


class TestVerify:
    def test_healthy_writes_need_no_retry(self):
        act = CapActuator(healthy_domains(), verify=True)
        act.issue(np.array([100.0, 120.0]))
        assert act.retries == 0
        assert act.verify_failures == 0
        assert len(act.events) == 0

    def test_transient_failure_retried_and_reported(self):
        doms = flaky_domains(drop_prob=1.0, max_drops=1)
        act = CapActuator(doms, verify=True, max_retries=3)
        act.issue(np.array([100.0, 120.0]))
        # Each domain dropped its first write, then the retry landed.
        assert doms[0].cap_w == pytest.approx(100.0)
        assert doms[1].cap_w == pytest.approx(120.0)
        assert act.retries == 2
        assert act.verify_failures == 0
        kinds = [e.kind for e in act.events]
        assert kinds == ["actuation_retried", "actuation_retried"]
        # The actuator's own log is stamped with the commands applied.
        assert [e.time_s for e in act.events] == [1.0, 1.0]

    def test_exhaustion_reported_never_raised(self):
        doms = flaky_domains(n=1, drop_prob=1.0)  # Every write fails.
        act = CapActuator(doms, verify=True, max_retries=2)
        act.issue(np.array([100.0]))  # Must not raise.
        assert act.verify_failures == 1
        assert act.retries == 2
        (event,) = act.events
        assert event.kind == "actuation_retry_exhausted"
        assert event.unit == 0
        assert "100.000" in event.detail

    def test_expected_value_is_the_sysfs_clamp(self):
        # A request outside the accepted range reads back clamped; that
        # is a *correct* write and must not trigger retries.
        act = CapActuator(healthy_domains(n=1), verify=True)
        act.issue(np.array([500.0]))
        assert act.retries == 0 and act.verify_failures == 0

    def test_unverified_mode_never_retries(self):
        doms = flaky_domains(n=1, drop_prob=1.0)
        act = CapActuator(doms, verify=False)
        act.issue(np.array([100.0]))
        assert act.retries == 0 and len(act.events) == 0

    def test_backoff_doubles_but_stays_bounded(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.powercap.actuator.time.sleep", sleeps.append
        )
        doms = flaky_domains(n=1, drop_prob=1.0)
        act = CapActuator(doms, verify=True, max_retries=3, backoff_s=0.01)
        act.issue(np.array([100.0]))
        assert sleeps == [0.01, 0.02, 0.04]


class TestPipelineReset:
    def test_pending_exposes_queued_commands(self):
        act = CapActuator(healthy_domains(), delay_steps=2)
        act.issue(np.array([100.0, 120.0]))
        act.issue(np.array([90.0, 110.0]))
        pending = act.pending
        assert [p.tolist() for p in pending] == [
            [100.0, 120.0],
            [90.0, 110.0],
        ]
        pending[0][0] = -1.0  # Copies: mutating must not reach the queue.
        assert act.pending[0][0] == 100.0

    def test_reset_drops_stale_inflight_commands(self):
        # Regression: without reset, commands queued by a previous run
        # would actuate into the next run's first intervals.
        doms = healthy_domains()
        act = CapActuator(doms, delay_steps=1)
        act.issue(np.array([50.0, 50.0]))  # Still queued ("run 1" ends).
        act.reset()
        assert act.pending == []
        act.issue(np.array([100.0, 120.0]))  # "Run 2" starts clean.
        act.issue(np.array([100.0, 120.0]))
        assert doms[0].cap_w == pytest.approx(100.0)  # Never saw 50 W.

    def test_reset_clears_counters_keeps_the_log(self):
        log = ResilienceEventLog(lambda: 0)
        act = CapActuator(
            flaky_domains(n=1, drop_prob=1.0), verify=True, events=log
        )
        act.issue(np.array([100.0]))
        assert act.verify_failures == 1 and len(log) == 1
        act.reset()
        assert act.retries == 0
        assert act.verify_failures == 0
        assert act.commands_applied == 0
        # What happened stays in the run's log.
        assert act.events is log and len(log) == 1

    def test_snapshot_restore_round_trips_pipeline(self):
        act = CapActuator(healthy_domains(), delay_steps=2)
        act.issue(np.array([100.0, 120.0]))
        act.issue(np.array([90.0, 110.0]))
        state = act.snapshot()

        fresh = CapActuator(healthy_domains(), delay_steps=2)
        fresh.restore(state)
        assert [p.tolist() for p in fresh.pending] == [
            [100.0, 120.0],
            [90.0, 110.0],
        ]
        assert fresh.commands_applied == act.commands_applied

    def test_restore_rejects_wrong_width(self):
        act = CapActuator(healthy_domains(n=2), delay_steps=1)
        act.issue(np.array([100.0, 120.0]))
        narrow = CapActuator(healthy_domains(n=1), delay_steps=1)
        with pytest.raises(ValueError, match="shape"):
            narrow.restore(act.snapshot())
