"""The testbed's rewritten per-cycle bodies equal the ones they replaced.

``tests/cluster/oracles.py`` holds the old bodies verbatim; everything
here compares bytes, not values within a tolerance: the rewrite changed
which NumPy entry point is called, never the arithmetic.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import progress_rate
from repro.core.config import ClusterSpec, PerfModelConfig, RaplConfig
from repro.powercap.faults import FaultConfig
from repro.workloads import get_workload, workload_names
from repro.workloads.phases import Hold, Oscillate, PhaseProgram, Ramp
from repro.workloads.runtime import WorkloadExecution
from repro.workloads.spec import WorkloadSpec
from tests.cluster import oracles


def bits(value) -> bytes:
    """The bytes of a float or of an array (dtype and shape included)."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    return struct.pack("<d", value)


def probe_points(program: PhaseProgram) -> list[float]:
    """Every place the clamp and the phase lookup could disagree."""
    duration = program.duration_s
    points = [-5.0, -0.0, 0.0, 5e-324, duration - 1e-9, duration, 2 * duration]
    # The phase ends, accumulated as the program accumulates them.
    for end in np.cumsum([p.duration_s for p in program.phases]).tolist():
        points += [np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)]
    points += np.linspace(0.0, duration, 37).tolist()
    return [float(p) for p in points]


def assert_program_equal(program: PhaseProgram) -> None:
    for t in probe_points(program):
        new = program.demand_at(t)
        old = oracles.program_demand_at(program, t)
        assert bits(new) == bits(old), (t, new, old)


phases = st.one_of(
    st.builds(
        Hold,
        st.floats(0.01, 300.0),
        st.floats(0.0, 165.0),
    ),
    st.builds(
        Ramp,
        st.floats(0.01, 300.0),
        st.floats(0.0, 165.0),
        st.floats(0.0, 165.0),
    ),
    st.builds(
        lambda d, low, swing, period, duty: Oscillate(
            d, low, low + swing, period, duty
        ),
        st.floats(0.01, 300.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, 65.0),
        st.floats(0.5, 40.0),
        st.floats(0.05, 0.95),
    ),
)


class TestDemandAt:
    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("time_scale", [1.0, 0.5, 0.05])
    def test_registry_programs(self, name, time_scale):
        assert_program_equal(get_workload(name).program.scaled(time_scale))

    def test_one_phase_shorter_than_the_clamp_margin(self):
        # duration - 1e-9 < 0: the upper bound wins over the lower one.
        assert_program_equal(PhaseProgram([Hold(1e-10, 90.0)]))
        assert_program_equal(PhaseProgram([Ramp(1e-10, 50.0, 90.0)]))

    def test_nan_progress_lands_in_the_last_phase(self):
        program = PhaseProgram([Hold(1.0, 50.0), Hold(1.0, 80.0)])
        assert program.demand_at(float("nan")) == 80.0
        assert oracles.program_demand_at(program, float("nan")) == 80.0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(phases, min_size=1, max_size=8))
    def test_random_programs(self, phase_list):
        assert_program_equal(PhaseProgram(phase_list))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 300.0),
        st.floats(0.0, 165.0),
        st.floats(0.0, 165.0),
        st.floats(-10.0, 400.0),
    )
    def test_ramp(self, duration, start, end, t):
        ramp = Ramp(duration, start, end)
        assert bits(ramp.demand_at(t)) == bits(oracles.ramp_demand_at(ramp, t))

    def test_duration_is_a_float_and_the_last_end(self):
        program = PhaseProgram([Hold(0.1, 1.0)] * 10)
        assert type(program.duration_s) is float
        assert program.duration_s == float(np.cumsum([0.1] * 10)[-1])


class TestProgressRate:
    CONFIGS = [
        None,
        PerfModelConfig(theta=1.0),
        PerfModelConfig(theta=2.0, min_rate=0.2),
        PerfModelConfig(theta=1.0, idle_power_w=30.0),
    ]

    def same(self, cap, demand, config):
        new = progress_rate(cap, demand, config)
        old = oracles.progress_rate(cap, demand, config)
        assert type(new) is type(old)
        assert bits(np.asarray(new)) == bits(np.asarray(old)), (cap, demand)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_random_vectors_with_ties(self, config):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            n = int(rng.integers(1, 21))
            # A 5 W grid so cap == demand, demand <= idle and cap < idle
            # all occur in most vectors.
            cap = rng.integers(0, 34, n) * 5.0
            demand = rng.integers(0, 34, n) * 5.0
            if rng.random() < 0.5:
                demand = demand + rng.normal(0.0, 1.0, n).clip(0.0, None)
            self.same(cap, demand, config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_scalars_lists_and_broadcast(self, config):
        for cap, demand in [
            (100.0, 120.0),
            (120.0, 120.0),
            (5.0, 100.0),  # Cap under idle power.
            (100.0, 8.0),  # Demand under idle power.
            (0.0, 0.0),
            (np.float64(90.0), np.float64(140.0)),
            (np.array(90.0), np.array(140.0)),
            ([90.0, 165.0], [140.0, 10.0]),
            (110.0, np.array([60.0, 110.0, 160.0])),
            (np.array([[90.0], [120.0]]), np.array([100.0, 130.0, 160.0])),
            (np.array([]), np.array([])),
            (np.array([]), 100.0),
            (np.array([np.nan, 100.0]), np.array([120.0, np.nan])),
            (np.array([np.inf, 100.0]), np.array([120.0, np.inf])),
        ]:
            self.same(cap, demand, config)

    @pytest.mark.parametrize(
        "cap, demand",
        [
            (-1.0, 100.0),
            (100.0, -1.0),
            (np.array([100.0, -0.5]), np.array([100.0, 100.0])),
            (np.array([100.0, 100.0]), np.array([np.nan, -0.5])),
            (np.array([-np.inf]), np.array([100.0])),
        ],
    )
    def test_negative_input_raises_the_same_error(self, cap, demand):
        for fn in (progress_rate, oracles.progress_rate):
            with pytest.raises(ValueError) as caught:
                fn(cap, demand)
            assert str(caught.value) == "caps and demands must be >= 0"


def workload(sync="mean", active_units=None):
    return WorkloadSpec(
        name="w",
        suite="npb" if sync == "min" else "spark",
        power_class="mid",
        program=PhaseProgram(
            [
                Hold(3.0, 60.0),
                Ramp(4.0, 60.0, 150.0),
                Oscillate(6.0, 40.0, 160.0, 4.0, 0.5),
                Hold(2.5, 8.0),  # Under the idle floor: clamps from below.
            ]
        ),
        active_units=active_units,
        paper_duration_s=15.5,
        paper_above_110_pct=30.0,
        data_size="test",
        sync=sync,
    )


EXECUTION_STATE = (
    "progress_s",
    "_gap_remaining_s",
    "_run_start_s",
    "_run_energy_j",
    "_run_time_s",
    "_run_speed",
)


class TestExecution:
    """``demand``/``advance`` against the old bodies, both driven by one
    seeded stream of rates, and both drawing from equal generators."""

    @pytest.mark.parametrize(
        "sync, active, gap, jitter, noise",
        [
            ("mean", None, 2.0, 0.0, 1.0),
            ("mean", 3, 2.0, 0.05, 1.0),  # Part of the slice stays idle.
            ("min", None, 3.0, 0.05, 1.0),  # Barrier-synchronised ranks.
            ("min", 1, 0.0, 0.0, 30.0),  # No gap; noise hits both clamps.
            ("mean", None, 0.5, 0.1, 0.0),  # Noise-free draw still drawn.
        ],
    )
    def test_200_cycles(self, sync, active, gap, jitter, noise):
        def build():
            return WorkloadExecution(
                spec=workload(sync, active),
                unit_ids=np.arange(4, 10),
                rng=np.random.default_rng(77),
                time_scale=1.0,
                inter_run_gap_s=gap,
                demand_noise_std_w=noise,
                duration_jitter_std=jitter,
            )

        new, old = build(), build()
        drive = np.random.default_rng(5)
        now = 0.0
        gap_cycles = 0
        for _ in range(200):
            gap_cycles += new.in_gap
            d_new, d_old = new.demand(), oracles.execution_demand(old)
            assert bits(d_new) == bits(d_old)
            rates = drive.uniform(0.3, 1.0, 6)
            power = drive.uniform(10.0, 165.0, 6)
            now += 1.0
            new.advance(rates, power, 1.0, now)
            oracles.execution_advance(old, rates, power, 1.0, now)
            for field in EXECUTION_STATE:
                assert bits(getattr(new, field)) == bits(getattr(old, field))
            assert bits(new._factors) == bits(old._factors)
            assert new.records == old.records
        # The cycles crossed several run boundaries (and gaps where one is
        # configured), and both generators stand at the same draw.
        assert new.runs_completed >= 3
        assert (gap_cycles > 0) == (gap > 0.0)
        assert new._rng.bit_generator.state == old._rng.bit_generator.state

    def test_returned_demand_is_fresh(self):
        e = WorkloadExecution(
            spec=workload(), unit_ids=np.arange(4), rng=np.random.default_rng(0)
        )
        first = e.demand()
        kept = first.copy()
        e.demand()
        assert bits(first) == bits(kept)
        assert first.flags.writeable and first.flags.owndata

    def test_advance_rejects_a_non_positive_step(self):
        e = WorkloadExecution(
            spec=workload(), unit_ids=np.arange(4), rng=np.random.default_rng(0)
        )
        for fn in (e.advance, lambda *a: oracles.execution_advance(e, *a)):
            with pytest.raises(ValueError) as caught:
                fn(np.ones(4), np.ones(4), 0.0, 1.0)
            assert str(caught.value) == "dt_s must be > 0, got 0.0"


class TestMeterFaults:
    """``Cluster.read_powers_w`` is the bank's bulk read, with or without
    faults set on some of its units, and a fault set or cleared between
    two reads takes effect at the next one."""

    def cluster(self):
        spec = ClusterSpec(n_nodes=3, sockets_per_node=2)
        return Cluster(spec, RaplConfig(), np.random.default_rng(3))

    def step(self, cluster):
        cluster.step_physics(np.full(cluster.n_units, 90.0), 1.0)
        return cluster.read_powers_w(1.0)

    def test_no_faults(self):
        cluster = self.cluster()
        twin = self.cluster()
        twin.step_physics(np.full(6, 90.0), 1.0)
        assert bits(self.step(cluster)) == bits(twin.bank.read_powers_w(1.0))

    def test_faults_that_never_fire_on_the_last_socket(self):
        cluster, twin = self.cluster(), self.cluster()
        # Faults that never fire: each read of the last unit rolls, but
        # no reading may change.
        cluster.bank.set_faults(
            FaultConfig(), [np.random.default_rng(0)], slice(5, 6)
        )
        for _ in range(70):  # Past one 64-sample noise block.
            assert bits(self.step(cluster)) == bits(self.step(twin))
        assert cluster.bank._rolls.at[5] == 70 - 64

    def test_faults_cleared_mid_run(self):
        cluster, twin = self.cluster(), self.cluster()
        for cycle in range(12):
            if cycle == 3:
                cluster.bank.set_faults(
                    FaultConfig(dropout_prob=1.0),
                    [np.random.default_rng(1)],
                    slice(2, 3),
                )
            if cycle == 8:
                cluster.bank.set_faults(None, span=slice(2, 3))
            faulty = 3 <= cycle < 8
            got, want = self.step(cluster), self.step(twin)
            if faulty:
                assert got[2] == 0.0
                want[2] = 0.0
            assert bits(got) == bits(want)
        assert cluster.bank.faults_injected.tolist() == [0, 0, 5, 0, 0, 0]
