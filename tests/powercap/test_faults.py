"""Fault injection and manager robustness under corrupted telemetry.

Faults are state of the RAPL bank; ``OracleFaultyMeter`` (the one-object-
per-meter wrapper the bank replaced) is the reference its bulk reads are
pinned to, bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.powercap.faults import FaultConfig
from repro.powercap.rapl import NOISE_BLOCK, RaplBank
from tests.powercap.oracles import OracleCluster, OracleFaultyMeter


def make_bank(config, seed=1):
    """A noise-free one-unit bank at 100 W whose meter has ``config``'s
    faults, rolled from a generator seeded ``seed``."""
    bank = RaplBank(
        1, 165.0, 30.0, RaplConfig(noise_std_w=0.0), initial_power_w=100.0
    )
    bank.attach_meter(0, np.random.default_rng(0))
    bank.set_faults(config, [np.random.default_rng(seed)])
    return bank


def step(bank, demand_w):
    bank.step(np.array([demand_w]), 1.0)


def read(bank):
    return bank.read_powers_w(1.0).item()


class TestFaultConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="stuck_prob"):
            FaultConfig(stuck_prob=1.5)

    def test_rejects_sum_above_one(self):
        with pytest.raises(ValueError, match="sum"):
            FaultConfig(stuck_prob=0.6, dropout_prob=0.6)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError, match="spike_gain"):
            FaultConfig(spike_gain=0.0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_rejects_non_finite_gain(self, gain):
        # A non-finite gain would pass here and poison the first spiked
        # reading the manager sees.
        with pytest.raises(ValueError, match="spike_gain must be finite"):
            FaultConfig(spike_prob=0.05, spike_gain=gain)


class TestFaultyMeter:
    def test_no_faults_passthrough(self):
        bank = make_bank(FaultConfig())
        step(bank, 100.0)
        assert read(bank) == pytest.approx(100.0, abs=0.5)
        assert bank.faults_injected.item() == 0

    def test_dropout_returns_zero(self):
        bank = make_bank(FaultConfig(dropout_prob=1.0))
        step(bank, 100.0)
        assert read(bank) == 0.0
        assert bank.faults_injected.item() == 1

    def test_stuck_repeats_previous(self):
        # Every roll is a stall: the first has nothing to repeat and
        # passes the healthy reading through, the next repeats it.
        bank = make_bank(FaultConfig(stuck_prob=1.0))
        step(bank, 100.0)
        first = read(bank)
        step(bank, 150.0)
        assert read(bank) == first

    def test_spike_scales_reading(self):
        bank = make_bank(FaultConfig(spike_prob=1.0, spike_gain=2.0))
        step(bank, 100.0)
        assert read(bank) == pytest.approx(200.0, abs=1.0)

    def test_fault_rate_statistical(self):
        bank = make_bank(FaultConfig(dropout_prob=0.2), seed=2)
        for _ in range(500):
            step(bank, 100.0)
            read(bank)
        assert 60 < bank.faults_injected.item() < 140  # ~100 expected.

    def test_one_generator_per_unit(self):
        bank = RaplBank(3, 165.0)
        with pytest.raises(ValueError, match="2 fault generators for 3"):
            bank.set_faults(FaultConfig(), [np.random.default_rng(0)] * 2)


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


#: Probabilities on the edges: faults that never or always fire.
EDGE_CONFIGS = (
    FaultConfig(),
    FaultConfig(stuck_prob=1.0),
    FaultConfig(dropout_prob=1.0),
    FaultConfig(spike_prob=1.0, spike_gain=0.5),
    FaultConfig(stuck_prob=0.5, dropout_prob=0.5),
)
PROBABILITY = st.one_of(st.just(0.0), st.floats(0.0, 1.0 / 3.0))
FAULT_CONFIGS = st.one_of(
    st.sampled_from(EDGE_CONFIGS),
    st.builds(
        FaultConfig,
        stuck_prob=PROBABILITY,
        dropout_prob=PROBABILITY,
        spike_prob=PROBABILITY,
        spike_gain=st.floats(0.1, 5.0),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    n_units=st.integers(1, 12),
    noise_std_w=st.sampled_from([0.0, 1.5]),
    configs=st.lists(FAULT_CONFIGS, min_size=1, max_size=4),
    reads=st.integers(2 * NOISE_BLOCK + 2, 3 * NOISE_BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
def test_bank_faults_and_the_wrapper_model_in_lockstep(
    n_units, noise_std_w, configs, reads, seed
):
    """Faults set on, and cleared from, random unit ranges at random
    reads — the first read, mid-block, across roll blocks — read back
    bit for bit what one wrapper per faulted meter reads."""
    spec = ClusterSpec(n_nodes=n_units, sockets_per_node=1)
    rapl = RaplConfig(noise_std_w=noise_std_w)
    oracle = OracleCluster(spec, rapl, np.random.default_rng(seed))
    cluster = Cluster(spec, rapl, np.random.default_rng(seed))
    readers = list(oracle.meters)
    wrappers = [[] for _ in range(n_units)]
    draw = np.random.default_rng(seed + 1)
    # Every unit faulted before the first read, a range set afresh
    # mid-block and one cleared in the second block; at random besides.
    forced = {0: 0, NOISE_BLOCK // 2: len(configs) - 1, NOISE_BLOCK + 36: -1}
    for cycle in range(reads):
        lo = int(draw.integers(n_units))
        hi = int(draw.integers(lo + 1, n_units + 1))
        which = int(draw.integers(-1, len(configs)))
        if cycle == 0:
            lo, hi = 0, n_units
        if cycle in forced:
            which = forced[cycle]
        elif draw.random() >= 0.08:
            which = None
        if which == -1:
            cluster.bank.set_faults(None, span=slice(lo, hi))
            for unit in range(lo, hi):
                readers[unit] = oracle.meters[unit]
        elif which is not None:
            stream = int(draw.integers(2**32))
            cluster.bank.set_faults(
                configs[which],
                [np.random.default_rng([stream, u]) for u in range(lo, hi)],
                slice(lo, hi),
            )
            for unit in range(lo, hi):
                readers[unit] = OracleFaultyMeter(
                    oracle.meters[unit],
                    configs[which],
                    np.random.default_rng([stream, unit]),
                )
                wrappers[unit].append(readers[unit])
        demand = draw.uniform(0.0, 200.0, n_units)
        for dom, d in zip(oracle.domains, demand):
            dom.step(float(d), 1.0)
        cluster.step_physics(demand, 1.0)
        want = [reader.read_power_w(1.0) for reader in readers]
        split = int(draw.integers(n_units + 1))
        got = [
            *cluster.bank.read_powers_w(1.0, slice(0, split)),
            *cluster.bank.read_powers_w(1.0, slice(split, n_units)),
        ] if split else list(cluster.read_powers_w(1.0))
        assert bits(got) == bits(want), cycle
    assert cluster.bank.faults_injected.tolist() == [
        sum(w.faults_injected for w in unit) for unit in wrappers
    ]


class TestManagerRobustness:
    """Managers fed corrupted telemetry must keep their invariants."""

    @pytest.mark.parametrize("manager_name", ["slurm", "dps", "dps+"])
    def test_budget_held_under_faults(self, manager_name):
        mgr = create_manager(manager_name)
        mgr.bind(4, 440.0, 165.0, 30.0, rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        fault_rng = np.random.default_rng(4)
        caps = np.asarray(mgr.caps)
        for _ in range(60):
            demand = rng.uniform(20, 160, 4)
            power = np.minimum(demand, caps)
            # Corrupt ~20 % of readings with dropouts and spikes.
            roll = fault_rng.random(4)
            power = np.where(roll < 0.1, 0.0, power)
            power = np.where(
                (roll >= 0.1) & (roll < 0.2),
                np.minimum(power * 3.0, 400.0),
                power,
            )
            caps = mgr.step(power)
            assert np.all(np.isfinite(caps))
            assert caps.sum() <= 440.0 + 1e-6

    def test_dps_recovers_after_fault_burst(self):
        """A stuck-at-zero burst on one unit must not permanently strand
        its cap: once readings return, the unit regains budget."""
        mgr = create_manager("dps")
        mgr.bind(2, 240.0, 165.0, 0.0, rng=np.random.default_rng(0))
        caps = np.asarray(mgr.caps)
        demand = np.array([150.0, 150.0])
        # Healthy warm-up.
        for _ in range(10):
            caps = mgr.step(np.minimum(demand, caps))
        # Unit 0's meter reads zero for 10 steps (dropout burst).
        for _ in range(10):
            power = np.minimum(demand, caps)
            power[0] = 0.0
            caps = mgr.step(power)
        assert caps[0] < 60.0  # Budget was reclaimed, as it should be.
        # Readings return; unit 0's rising power re-earns its share.
        for _ in range(25):
            caps = mgr.step(np.minimum(demand, caps))
        assert caps[0] > 100.0
