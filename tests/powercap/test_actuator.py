"""Cap actuator: pipeline delay, quantization, change accounting."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.powercap.actuator import CapActuator
from repro.powercap.rapl import RaplBank, RaplDomain


def domains(n=2):
    """The views of a bare noise-free bank of ``n`` units."""
    bank = RaplBank(n, 165.0, 30.0, RaplConfig(noise_std_w=0.0))
    return [RaplDomain.of_bank(bank, i, f"d{i}") for i in range(n)]


class TestImmediate:
    def test_caps_applied_at_once(self):
        doms = domains()
        act = CapActuator(doms, delay_steps=0)
        changed = act.issue(np.array([100.0, 120.0]))
        assert changed == 2
        assert doms[0].cap_w == pytest.approx(100.0)
        assert doms[1].cap_w == pytest.approx(120.0)

    def test_unchanged_caps_not_counted(self):
        doms = domains()
        act = CapActuator(doms)
        act.issue(np.array([100.0, 120.0]))
        changed = act.issue(np.array([100.0, 120.0]))
        assert changed == 0

    def test_commands_counted(self):
        act = CapActuator(domains())
        act.issue(np.array([100.0, 120.0]))
        act.issue(np.array([90.0, 120.0]))
        assert act.commands_applied == 4


class TestDelay:
    def test_one_step_delay(self):
        doms = domains()
        act = CapActuator(doms, delay_steps=1)
        changed = act.issue(np.array([100.0, 100.0]))
        assert changed == 0
        assert doms[0].cap_w == pytest.approx(165.0)  # Not yet applied.
        act.issue(np.array([90.0, 90.0]))
        assert doms[0].cap_w == pytest.approx(100.0)  # First command lands.

    def test_flush_applies_queue(self):
        doms = domains()
        act = CapActuator(doms, delay_steps=2)
        act.issue(np.array([100.0, 100.0]))
        act.issue(np.array([90.0, 90.0]))
        act.flush()
        assert doms[0].cap_w == pytest.approx(90.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay_steps"):
            CapActuator(domains(), delay_steps=-1)


class TestValidation:
    def test_rejects_empty_domains(self):
        with pytest.raises(ValueError, match="at least one"):
            CapActuator([])

    def test_rejects_domains_outside_one_range(self):
        doms = domains(3)
        for scattered in ([doms[0], doms[2]], doms[::-1], [*domains(1), doms[1]]):
            with pytest.raises(ValueError, match="consecutive units of one bank"):
                CapActuator(scattered)

    def test_rejects_wrong_shape(self):
        act = CapActuator(domains(2))
        with pytest.raises(ValueError, match="shape"):
            act.issue(np.zeros(3))

    def test_quantizes_to_microwatts(self):
        doms = domains(1)
        act = CapActuator(doms)
        act.issue(np.array([100.123456789]))
        assert doms[0].cap_w == pytest.approx(100.123457, abs=1e-6)


class TestNonFiniteVector:
    """A vector applied up to its first bad entry is partly raised and
    partly un-lowered — the over-commit the actuator exists to prevent.
    A non-finite entry must be refused whole, before it is queued."""

    @staticmethod
    def standalone():
        doms = domains(3)
        return doms, lambda: [d.cap_w for d in doms]

    @staticmethod
    def cluster_bank():
        cluster = Cluster(ClusterSpec(n_nodes=3, sockets_per_node=1))
        return cluster.domains, lambda: cluster.caps_w().tolist()

    @pytest.mark.parametrize("hardware", [standalone, cluster_bank])
    @pytest.mark.parametrize("delay_steps", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.8e302])
    def test_refused_whole_nothing_queued_nothing_programmed(
        self, hardware, delay_steps, bad
    ):
        doms, read_caps = hardware()
        act = CapActuator(doms, delay_steps=delay_steps, verify=True)
        act.issue(np.array([120.0, 120.0, 120.0]))
        act.flush()
        applied = act.commands_applied
        with pytest.raises(ValueError, match=r"units \[1\]"):
            act.issue(np.array([150.0, bad, 40.0]))
        assert read_caps() == [120.0, 120.0, 120.0]
        assert act.pending == []
        assert act.commands_applied == applied
        # The actuator is still usable, and on schedule.
        act.issue(np.array([150.0, 100.0, 40.0]))
        act.flush()
        assert read_caps() == [150.0, 100.0, 40.0]

    def test_every_bad_unit_is_named(self):
        act = CapActuator(domains(4))
        with pytest.raises(ValueError, match=r"units \[0, 3\]"):
            act.issue(np.array([np.nan, 100.0, 100.0, np.inf]))
