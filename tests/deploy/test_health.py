"""Client health state machine: quarantine, backoff, rejoin."""

import pytest

from repro.deploy.health import (
    FALLBACK_POLICIES,
    ClientHealth,
    HealthState,
    ResilienceConfig,
)


class TestResilienceConfig:
    def test_defaults_valid(self):
        cfg = ResilienceConfig()
        assert cfg.fallback in FALLBACK_POLICIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": 0},
            {"backoff_cycles": 0},
            {"backoff_factor": 0.5},
            {"fallback": "guess"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_rejoin_window_grows_exponentially(self):
        cfg = ResilienceConfig(backoff_cycles=4, backoff_factor=2.0)
        assert cfg.rejoin_window(1) == 4
        assert cfg.rejoin_window(2) == 8
        assert cfg.rejoin_window(3) == 16

    def test_rejoin_window_needs_a_failure(self):
        with pytest.raises(ValueError):
            ResilienceConfig().rejoin_window(0)


class TestClientHealth:
    def test_starts_healthy(self):
        h = ClientHealth(ResilienceConfig())
        assert h.state is HealthState.HEALTHY
        assert not h.quarantined

    def test_failure_degrades_with_window(self):
        h = ClientHealth(ResilienceConfig(backoff_cycles=3))
        assert h.record_failure() is HealthState.DEGRADED
        assert h.quarantined
        assert h.window_cycles == 3

    def test_window_expiry_declares_dead(self):
        h = ClientHealth(ResilienceConfig(backoff_cycles=2))
        h.record_failure()
        assert h.tick() is HealthState.DEGRADED
        assert h.tick() is HealthState.DEAD

    def test_max_retries_is_immediately_dead(self):
        h = ClientHealth(ResilienceConfig(max_retries=2))
        h.record_failure()
        assert h.record_failure() is HealthState.DEAD

    def test_rejoin_from_degraded_and_dead(self):
        for failures in (1, 5):
            h = ClientHealth(ResilienceConfig(max_retries=3))
            for _ in range(failures):
                h.record_failure()
            h.rejoin()
            assert h.state is HealthState.HEALTHY
            assert h.rejoins == 1

    def test_rejoin_from_healthy_rejected(self):
        h = ClientHealth(ResilienceConfig())
        with pytest.raises(RuntimeError):
            h.rejoin()

    def test_success_resets_retry_budget(self):
        h = ClientHealth(ResilienceConfig(max_retries=3))
        h.record_failure()
        h.rejoin()
        h.record_success()
        assert h.consecutive_failures == 0
        # A fresh failure degrades again instead of accumulating to DEAD.
        assert h.record_failure() is HealthState.DEGRADED

    def test_flapping_client_converges_to_dead(self):
        """Rejoin alone does not reset retries; only a clean poll does."""
        h = ClientHealth(ResilienceConfig(max_retries=3))
        h.record_failure()
        h.rejoin()
        h.record_failure()
        h.rejoin()
        assert h.record_failure() is HealthState.DEAD
        assert h.total_failures == 3
