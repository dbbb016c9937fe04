"""The RAPL bank: bulk calls, scalar views and the per-object model the
bank replaced agree bit for bit, under any interleaving."""

import contextlib
import copy
import json
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core import _native
from repro.core.config import ClusterSpec, RaplConfig
from repro.powercap.actuator import CapActuator
from repro.powercap.faults import FaultConfig
from repro.powercap.rapl import NOISE_BLOCK, RaplBank, RaplDomain, bank_span
from tests.core import oracles
from tests.powercap.oracles import OracleActuator, OracleCluster

#: Caps whose microwatt quantisation or clamp is an edge: round-half-even
#: ties, signed zeros, values that round to -0, the range ends, far out.
EDGE_CAPS = (
    100.0000005, 100.0000015, 99.9999995, -0.0, 0.0, -1e-9, 4e-7, 5e-7,
    30.0, 165.0, 29.9999996, 165.0000004, 1e9, -1e9, 1e300,
)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class Rig:
    """One cluster three ways, driven in lockstep.

    ``oracle`` is the per-object model under the unit-by-unit actuator;
    ``scalar`` a real cluster touched one unit at a time — physics and
    caps through ``Socket.domain`` (the caps by that same unit-by-unit
    actuator), readings through one-unit bank ranges; ``bulk`` a real
    cluster touched through the array calls and ``CapActuator``.
    """

    def __init__(self, n_units, rapl, seed, min_cap_w, delay_steps, verify):
        self.spec = ClusterSpec(
            n_nodes=n_units, sockets_per_node=1, min_cap_w=min_cap_w
        )
        self.rapl = rapl
        self.oracle = OracleCluster(
            self.spec, rapl, np.random.default_rng(seed)
        )
        self.scalar = Cluster(self.spec, rapl, np.random.default_rng(seed))
        self.bulk = Cluster(self.spec, rapl, np.random.default_rng(seed))
        self.knobs = dict(delay_steps=delay_steps, verify=verify)
        self.oracle_act = OracleActuator(self.oracle.domains, **self.knobs)
        self.scalar_act = OracleActuator(self.scalar.domains, **self.knobs)
        self.bulk_act = CapActuator(self.bulk.domains, **self.knobs)

    def physics(self, demand, dt):
        want = [
            dom.step(float(d), dt)
            for dom, d in zip(self.oracle.domains, demand)
        ]
        got_scalar = [
            sock.domain.step(float(d), dt)
            for sock, d in zip(self.scalar.sockets, demand)
        ]
        got_bulk = self.bulk.step_physics(demand, dt)
        assert (bits(got_scalar) == bits(want)).all()
        assert (bits(got_bulk) == bits(want)).all()

    def read(self, dt, split):
        """One reading per unit per cluster; on the bulk cluster units
        below ``split`` are read by one range call, the rest by a
        second one."""
        want = [m.read_power_w(dt) for m in self.oracle.meters]
        n = self.spec.n_units
        got_scalar = [
            self.scalar.bank.read_powers_w(dt, slice(i, i + 1)).item()
            for i in range(n)
        ]
        if split == n:
            got_bulk = self.bulk.read_powers_w(dt)
        else:
            got_bulk = self.bulk.bank.read_powers_w(dt, slice(split, n))
            if split:
                ranged = self.bulk.bank.read_powers_w(dt, slice(0, split))
                got_bulk = [*ranged, *got_bulk]
        assert (bits(got_scalar) == bits(want)).all()
        assert (bits(got_bulk) == bits(want)).all()

    def actuate(self, caps):
        want = self.oracle_act.issue(caps)
        assert self.scalar_act.issue(caps) == want
        assert self.bulk_act.issue(caps) == want

    def power_off(self, unit):
        self.oracle.domains[unit].power_off()
        self.scalar.sockets[unit].domain.power_off()
        self.bulk.sockets[unit].domain.power_off()

    def rebaseline(self):
        for meter in self.oracle.meters:
            meter.rebaseline()
        for i in range(self.spec.n_units):
            self.scalar.bank.rebaseline(slice(i, i + 1))
        self.bulk.bank.rebaseline()

    def swap_bulk(self, doc):
        """Continue the bulk side on a fresh cluster restored from a
        document that went through JSON, as a persisted one does."""
        pipeline = self.bulk_act.snapshot()
        self.bulk = Cluster(self.spec, self.rapl, np.random.default_rng(999))
        self.bulk.restore(json.loads(json.dumps(doc)))
        self.bulk_act = CapActuator(self.bulk.domains, **self.knobs)
        self.bulk_act.restore(pipeline)

    def check_state(self):
        for cluster in (self.scalar, self.bulk):
            bank = cluster.bank
            for column, attr in (
                (bank.cap_w, "cap_w"),
                (bank.power_w, "power_w"),
                (bank.energy_uj, "energy_uj"),
            ):
                want = [getattr(d, attr) for d in self.oracle.domains]
                assert (bits(column) == bits(want)).all(), attr
            assert bank.meter_uj.tolist() == [
                m.last_uj for m in self.oracle.meters
            ]
            assert [d.read_energy_uj() for d in cluster.domains] == [
                d.read_energy_uj() for d in self.oracle.domains
            ]
            assert (
                bits(cluster.caps_w())
                == bits([d.cap_w for d in cluster.domains])
            ).all()
            assert (
                bits(cluster.true_power_w())
                == bits([d.power_w for d in cluster.domains])
            ).all()


@settings(max_examples=60, deadline=None)
@given(
    n_units=st.integers(1, 64),
    noise_std_w=st.sampled_from([0.0, 1.5]),
    # 150 J: a unit near 100 W wraps every other cycle.
    counter_wrap_uj=st.sampled_from([150_000_000, 77_777_777, 262_143_328_850]),
    dt=st.sampled_from([1.0, 0.5, 0.3, 2.0]),
    min_cap_w=st.sampled_from([0.0, 30.0]),
    delay_steps=st.sampled_from([0, 1]),
    verify=st.booleans(),
    cycles=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
)
def test_bulk_scalar_and_per_object_model_in_lockstep(
    n_units, noise_std_w, counter_wrap_uj, dt, min_cap_w, delay_steps,
    verify, cycles, seed,
):
    rapl = RaplConfig(
        noise_std_w=noise_std_w, lag_tau_s=0.8, counter_wrap_uj=counter_wrap_uj
    )
    rig = Rig(n_units, rapl, seed, min_cap_w, delay_steps, verify)
    draw = np.random.default_rng(seed + 1)
    caps = np.full(n_units, 110.0)
    for _ in range(cycles):
        if draw.random() < 0.1:
            rig.power_off(int(draw.integers(n_units)))
        demand = draw.uniform(0.0, 200.0, n_units)
        demand[draw.random(n_units) < 0.1] = 0.0
        rig.physics(demand, dt)
        # All bulk, all scalar, or any split in between.
        rig.read(dt, int(draw.choice([n_units, 0, draw.integers(n_units + 1)])))
        fresh = draw.uniform(-50.0, 300.0, n_units)
        edge = draw.choice(EDGE_CAPS, n_units)
        roll = draw.random(n_units)
        # A third of the units keep their cap, so the changed count moves.
        caps = np.where(roll < 0.5, fresh, np.where(roll < 0.65, edge, caps))
        rig.actuate(caps)
        if draw.random() < 0.05:
            rig.rebaseline()
        rig.check_state()
        swap = draw.random()
        if swap < 0.05:
            rig.swap_bulk(rig.bulk.snapshot())
        elif swap < 0.10:
            # What the per-object implementation persisted: generator
            # states at their reading, no block position.
            rig.swap_bulk(rig.oracle.snapshot())
    assert rig.bulk_act.commands_applied == rig.oracle_act.commands_applied


def test_snapshot_mid_block_resumes_the_reading_stream():
    spec = ClusterSpec(n_nodes=3, sockets_per_node=2)
    rapl = RaplConfig(noise_std_w=2.0)
    live = Cluster(spec, rapl, np.random.default_rng(5))
    demand = np.full(spec.n_units, 120.0)
    for _ in range(NOISE_BLOCK + 7):  # Seven readings into the 2nd block.
        live.step_physics(demand, 1.0)
        live.read_powers_w(1.0)
    doc = live.snapshot()
    assert {m["noise_at"] for m in doc["meters"]} == {7}
    resumed = Cluster(spec, rapl, np.random.default_rng(6))
    resumed.restore(json.loads(json.dumps(doc)))
    assert resumed.snapshot() == doc
    for _ in range(2 * NOISE_BLOCK):
        for cluster in (live, resumed):
            cluster.step_physics(demand, 1.0)
        assert (
            bits(live.read_powers_w(1.0)) == bits(resumed.read_powers_w(1.0))
        ).all()


@pytest.mark.parametrize("compiled", [True, False], ids=["kernels", "numpy"])
def test_copied_and_pickled_cluster_read_as_the_original(compiled):
    """A deep copy and an unpickled copy of a 1,000-unit cluster taken mid
    noise block, faults set, read the original's powers byte for byte
    for 200 reads: each copy re-takes its views and pinned addresses on
    its own arrays, and its streams resume where the original's stand."""
    spec = ClusterSpec(n_nodes=500, sockets_per_node=2)
    live = Cluster(spec, RaplConfig(noise_std_w=1.5), np.random.default_rng(7))
    live.bank.set_faults(
        FaultConfig(stuck_prob=0.05, dropout_prob=0.05, spike_prob=0.05),
        np.random.default_rng(8).spawn(spec.n_units),
    )
    demand = np.random.default_rng(9).uniform(40.0, 160.0, spec.n_units)
    with oracles.no_native() if not compiled else contextlib.nullcontext():
        for _ in range(NOISE_BLOCK + 11):  # Eleven into the 2nd block.
            live.step_physics(demand, 1.0)
            live.read_powers_w(1.0)
        copies = [copy.deepcopy(live), pickle.loads(pickle.dumps(live))]
        for twin in copies:
            assert twin.bank._pinned.at[0] == twin.bank.cap_w.ctypes.data
        for _ in range(200):
            readings = []
            for cluster in (live, *copies):
                cluster.step_physics(demand, 1.0)
                readings.append(cluster.read_powers_w(1.0).tobytes())
            assert readings[1] == readings[0] and readings[2] == readings[0]
        assert live.bank.faults_injected.sum() > 0


def test_views_and_cluster_documents_are_the_same_documents():
    cluster = Cluster(
        ClusterSpec(n_nodes=2), RaplConfig(), np.random.default_rng(3)
    )
    for _ in range(5):
        cluster.step_physics(np.full(4, 90.0), 1.0)
        cluster.read_powers_w(1.0)
    doc = cluster.snapshot()
    assert doc["domains"] == [d.snapshot() for d in cluster.domains]
    other = Cluster(ClusterSpec(n_nodes=2), RaplConfig(), np.random.default_rng(4))
    for sock, dom_doc in zip(other.sockets, doc["domains"]):
        sock.domain.restore(dom_doc)
    assert other.snapshot()["domains"] == doc["domains"]
    assert other.snapshot()["meters"] != doc["meters"]
    other.restore(doc)
    assert other.snapshot() == doc
    with pytest.raises(ValueError, match="snapshot holds 4/4 units"):
        Cluster(ClusterSpec(n_nodes=3)).restore(doc)


class TestBankSpan:
    def test_a_clusters_domains_are_one_range_of_its_bank(self):
        cluster = Cluster(ClusterSpec(n_nodes=3))
        assert bank_span(cluster.domains) == (cluster.bank, slice(0, 6))
        assert bank_span(cluster.domains[2:5]) == (cluster.bank, slice(2, 5))

    def test_anything_else_is_not(self):
        cluster = Cluster(ClusterSpec(n_nodes=3))
        doms = cluster.domains
        stranger = RaplDomain("x", 165.0)
        assert bank_span([doms[0], stranger, doms[2]]) is None
        assert bank_span([doms[0], doms[2]]) is None
        assert bank_span(doms[::-1]) is None
        assert bank_span([RaplDomain("a", 165.0), RaplDomain("b", 165.0)]) is None

    def test_a_standalone_domain_owns_a_one_unit_bank(self):
        dom = RaplDomain("x", 165.0, 30.0, initial_power_w=12.0)
        assert bank_span([dom]) == (dom.bank, slice(0, 1))
        assert dom.bank.n_units == 1 and dom.bank.power_w.tolist() == [12.0]


class TestBulkValidation:
    def bank(self):
        return RaplBank(3, 165.0, 30.0, RaplConfig(noise_std_w=0.0), 12.0)

    def test_a_rejected_demand_touches_no_unit(self):
        bank = self.bank()
        with pytest.raises(ValueError, match="demand_w must be >= 0, got -1.0"):
            bank.step(np.array([100.0, -1.0, 100.0]), 1.0)
        with pytest.raises(ValueError, match="dt_s"):
            bank.step(np.full(3, 100.0), 0.0)
        with pytest.raises(ValueError, match=r"demand shape \(1,\) != \(3,\)"):
            bank.step(np.array([100.0]), 1.0)
        assert bank.power_w.tolist() == [12.0] * 3
        assert bank.energy_uj.tolist() == [0.0] * 3

    def test_a_rejected_cap_touches_no_unit(self):
        bank = self.bank()
        with pytest.raises(ValueError, match="finite"):
            bank.set_caps_w(np.array([100.0, np.nan, 100.0]))
        with pytest.raises(ValueError, match="caps shape"):
            bank.set_caps_w(np.array([100.0]))
        assert bank.cap_w.tolist() == [165.0] * 3

    def test_range_calls_leave_the_rest_alone(self):
        bank = self.bank()
        bank.step(np.array([100.0]), 1.0, slice(1, 2))
        bank.set_caps_w(np.array([50.0]), slice(2, 3))
        assert bank.read_powers_w(1.0, slice(1, 2))[0] > 12.0
        assert bank.power_w[[0, 2]].tolist() == [12.0, 12.0]
        assert bank.cap_w.tolist() == [165.0, 165.0, 50.0]
        assert bank.meter_uj[[0, 2]].tolist() == [0, 0]

    def test_the_cursor_must_fit_its_array(self):
        with pytest.raises(ValueError, match="counter_wrap_uj"):
            RaplBank(1, 165.0, config=RaplConfig(counter_wrap_uj=2**63))


def test_threads_on_disjoint_ranges_of_one_bank_lose_no_update():
    """Callers on threads of their own may step, meter and cap disjoint
    ranges of one shared bank, in range calls or unit by unit; every
    write must stay inside its range."""
    workers, per, cycles = 6, 37, 150
    rapl = RaplConfig(noise_std_w=1.5, counter_wrap_uj=150_000_000)
    spec = ClusterSpec(n_nodes=workers * per, sockets_per_node=1)
    shared = Cluster(spec, rapl, np.random.default_rng(11))
    serial = Cluster(spec, rapl, np.random.default_rng(11))

    def drive(cluster, worker, readings):
        span = slice(worker * per, (worker + 1) * per)
        draw = np.random.default_rng(worker)
        for cycle in range(cycles):
            cluster.bank.step(draw.uniform(0.0, 200.0, per), 0.5, span)
            if cycle % 3:
                readings.append(cluster.bank.read_powers_w(0.5, span))
            else:
                readings.append(
                    [
                        cluster.bank.read_powers_w(0.5, slice(i, i + 1)).item()
                        for i in range(span.start, span.stop)
                    ]
                )
            caps = draw.uniform(20.0, 180.0, per)
            if cycle % 2:
                cluster.bank.set_caps_w(caps, span)
            else:
                for dom, cap in zip(cluster.domains[span], caps):
                    dom.set_cap_w(cap)

    want = [[] for _ in range(workers)]
    for worker in range(workers):
        drive(serial, worker, want[worker])
    got = [[] for _ in range(workers)]
    threads = [
        threading.Thread(target=drive, args=(shared, w, got[w]), daemon=True)
        for w in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for worker in range(workers):
        assert (bits(got[worker]) == bits(want[worker])).all()
    for column in ("cap_w", "power_w", "energy_uj"):
        assert (
            bits(getattr(shared.bank, column))
            == bits(getattr(serial.bank, column))
        ).all()
    assert shared.bank.meter_uj.tolist() == serial.bank.meter_uj.tolist()


# -- compiled passes = NumPy fallback -----------------------------------

WRAPS = (150_000_000, 262_143_328_850)


def twin_banks(n_units, rapl, min_cap_w, seed):
    """Two banks in the same state: one for each path."""
    banks = []
    for _ in range(2):
        bank = RaplBank(n_units, 165.0, min_cap_w, rapl, 12.0)
        rngs = np.random.default_rng(seed).spawn(n_units)
        for index, rng in enumerate(rngs):
            bank.attach_meter(index, rng)
        banks.append(bank)
    return banks


def bank_bytes(bank):
    """Every array the passes or the faults write, as bytes."""
    arrays = [
        bank.cap_w, bank.power_w, bank.energy_uj, bank.meter_uj,
        bank.faults_injected, bank._last_w, bank._has_last,
    ]
    noise = bank._noise
    if noise is not None:
        # Rows never drawn are uninitialised memory.
        drawn = [i for i, src in enumerate(noise.source) if src is not None]
        arrays += [noise.block[drawn], noise.at]
    return [arr.tobytes() for arr in arrays]


def on_both(compiled, fallback, call):
    """``call(bank)`` on the compiled path and on the fallback: the same
    bytes out, or the same ValueError, and the same state after."""
    got = oracles.outcome(lambda: call(compiled))
    with oracles.no_native():
        assert oracles.outcome(lambda: call(fallback)) == got
    assert bank_bytes(compiled) == bank_bytes(fallback)
    return got


def draw_span(draw, n_units):
    """The whole bank (either spelling) or a non-empty range of it."""
    kind = draw.random()
    if kind < 0.3:
        return slice(None)
    if kind < 0.4:
        return slice(0, n_units)
    start = int(draw.integers(n_units))
    return slice(start, int(draw.integers(start + 1, n_units + 1)))


def draw_demand(draw, bank, span):
    """Demands with zeros of both signs, ties with the cap, the cap
    bounds and the idle floor among uniform draws."""
    cap = bank.cap_w[span]
    n = cap.size
    edge = np.array(
        [0.0, -0.0, bank.min_power_w, bank.max_power_w, 12.0, 1e-300]
    )
    pick = draw.random(n)
    return np.where(
        pick < 0.25, cap,
        np.where(pick < 0.45, draw.choice(edge, n),
                 draw.uniform(0.0, 200.0, n)),
    )


class TestCompiledStepLockstep:
    """``RaplBank.step``: the compiled pass writes the bytes the NumPy
    passes write, on any range, and rejects what they reject."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_units=st.integers(1, 40),
        min_cap_w=st.sampled_from([0.0, 30.0]),
        dt=st.sampled_from([1.0, 0.5, 2.0, 1e-3]),
        cycles=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_range_any_demand(self, n_units, min_cap_w, dt, cycles, seed):
        rapl = RaplConfig(noise_std_w=0.0, lag_tau_s=0.8)
        compiled, fallback = twin_banks(n_units, rapl, min_cap_w, seed)
        draw = np.random.default_rng(seed)
        edge_caps = np.array([-0.0, 0.0, min_cap_w, 165.0, -5.0, 500.0])
        for _ in range(cycles):
            caps = np.where(
                draw.random(n_units) < 0.3,
                draw.choice(edge_caps, n_units),
                draw.uniform(0.0, 200.0, n_units),
            )
            signed_zero = draw.random() < 0.1
            for bank in (compiled, fallback):
                bank.set_caps_w(caps)
                if signed_zero:
                    bank.power_w[:] = -0.0  # A restore may write any zero.
            span = draw_span(draw, n_units)
            demand = draw_demand(draw, compiled, span)
            on_both(compiled, fallback, lambda b: b.step(demand, dt, span))

    def test_the_compiled_pass_runs_once_per_call(self):
        compiled, fallback = twin_banks(5, RaplConfig(), 30.0, 1)
        with oracles.counting("rapl_step") as calls:
            on_both(compiled, fallback, lambda b: b.step(np.full(2, 90.0),
                                                         1.0, slice(1, 3)))
        assert len(calls) == (0 if _native.kernels() is None else 1)

    @pytest.mark.parametrize(
        "demand, message",
        [
            ([100.0, -1.0, -2.0], "demand_w must be >= 0, got -1.0"),
            ([-0.5, 100.0, 100.0], "demand_w must be >= 0, got -0.5"),
            ([-np.inf, 0.0, 1.0], "demand_w must be >= 0, got -inf"),
        ],
    )
    def test_a_negative_demand_is_rejected_alike(self, demand, message):
        compiled, fallback = twin_banks(4, RaplConfig(), 30.0, 2)
        for span in (slice(None, 3), slice(1, 4)):
            got = on_both(
                compiled, fallback,
                lambda b: b.step(np.array(demand), 1.0, span),
            )
            assert got == ("raised", message)

    def test_a_nan_demand_passes_the_check_alike(self):
        # demand.min() is NaN then, and NaN < 0 is false: nothing raises,
        # and the NaN unit's power and energy go NaN on both paths.
        compiled, fallback = twin_banks(3, RaplConfig(), 30.0, 3)
        demand = np.array([-1.0, np.nan, 50.0])
        got = on_both(compiled, fallback, lambda b: b.step(demand, 1.0))
        assert got[0] == "returned"
        assert np.isnan(compiled.power_w[1])

    @pytest.mark.parametrize("dt", [0.0, -1.0, -1e300])
    def test_a_bad_interval_is_rejected_alike(self, dt):
        compiled, fallback = twin_banks(2, RaplConfig(), 30.0, 4)
        got = on_both(compiled, fallback, lambda b: b.step(np.ones(2), dt))
        assert got == ("raised", f"dt_s must be > 0, got {dt}")
        got = on_both(
            compiled, fallback, lambda b: b.step(np.array([1.0, -1.0]), dt)
        )
        assert got == ("raised", "demand_w must be >= 0, got -1.0")


class TestCompiledMeterLockstep:
    """``RaplBank.read_powers_w``: the compiled read returns and leaves
    the bytes the NumPy passes do, across noise-block refills, counter
    wraps and faults on part of the bank."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_units=st.integers(1, 40),
        noise_std_w=st.sampled_from([0.0, 1.5, 40.0]),
        counter_wrap_uj=st.sampled_from(WRAPS),
        dt=st.sampled_from([1.0, 0.3, 2.0]),
        cycles=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_range_any_block_position(
        self, n_units, noise_std_w, counter_wrap_uj, dt, cycles, seed
    ):
        rapl = RaplConfig(
            noise_std_w=noise_std_w, counter_wrap_uj=counter_wrap_uj
        )
        compiled, fallback = twin_banks(n_units, rapl, 30.0, seed)
        draw = np.random.default_rng(seed)
        for _ in range(cycles):
            demand = draw.uniform(0.0, 200.0, n_units)
            for bank in (compiled, fallback):
                bank.step(demand, dt)
            roll = draw.random()
            if roll < 0.1 and noise_std_w > 0:
                # Put every unit at 63, 64 or anywhere in its block.
                at = draw.choice([0, 1, 62, 63, 64], n_units)
                for bank in (compiled, fallback):
                    bank._noise.refill(range(n_units))
                    bank._noise.at[:] = at
            elif roll < 0.2:
                span = draw_span(draw, n_units)
                n = compiled.cap_w[span].size
                config = FaultConfig(
                    stuck_prob=0.2, dropout_prob=0.2, spike_prob=0.2
                )
                rng_seed = int(draw.integers(2**32))
                for bank in (compiled, fallback):
                    rngs = np.random.default_rng(rng_seed).spawn(n)
                    bank.set_faults(config, rngs, span)
            elif roll < 0.25:
                for bank in (compiled, fallback):
                    bank.set_faults(None)
            span = draw_span(draw, n_units)
            on_both(compiled, fallback, lambda b: b.read_powers_w(dt, span))

    @pytest.mark.parametrize(
        "at, passes",
        [
            ([63, 63, 63, 63], 1),  # The last sample of every block.
            ([64, 64, 64, 64], 2),  # Every block spent.
            ([0, 64, 63, 64], 2),  # Mixed: two refills, two reads on.
            ([63, 0, 1, 62], 1),
        ],
    )
    def test_the_refill_boundary(self, at, passes):
        compiled, fallback = twin_banks(6, RaplConfig(noise_std_w=2.0), 30.0, 5)
        for bank in (compiled, fallback):
            bank.step(np.full(6, 120.0), 1.0)
            bank._noise.refill(range(6))
            bank._noise.at[1:5] = at
        with oracles.counting("meter_read") as calls:
            on_both(compiled, fallback, lambda b: b.read_powers_w(1.0, slice(1, 5)))
        assert len(calls) == (0 if _native.kernels() is None else passes)
        # Refilled units restart their block; the others moved on by one.
        want = [0 if a == NOISE_BLOCK else a for a in at]
        assert compiled._noise.at[1:5].tolist() == [a + 1 for a in want]

    def test_a_counter_wrap_between_reads(self):
        rapl = RaplConfig(noise_std_w=0.0, counter_wrap_uj=150_000_000)
        compiled, fallback = twin_banks(3, rapl, 30.0, 6)
        for bank in (compiled, fallback):
            bank.energy_uj[:] = [149_000_000.0, 10.0, 149_999_999.5]
            bank.rebaseline()
            bank.step(np.array([120.0, 50.0, 165.0]), 1.0)
        got = on_both(compiled, fallback, lambda b: b.read_powers_w(1.0))
        assert got[0] == "returned"
        assert (compiled.meter_uj < 150_000_000).all()
        assert (compiled.energy_uj > 150_000_000).tolist() == [True, False, True]

    def test_a_negative_counter_reads_as_the_float_remainder(self):
        # No step makes one, but a restored document can hold it: the
        # counter is NumPy's energy % wrap, which takes the wrap's sign.
        rapl = RaplConfig(noise_std_w=0.0, counter_wrap_uj=150_000_000)
        compiled, fallback = twin_banks(4, rapl, 30.0, 10)
        for bank in (compiled, fallback):
            bank.energy_uj[:] = [-1.0, -150_000_001.5, -0.0, -7e20]
        got = on_both(compiled, fallback, lambda b: b.read_powers_w(1.0))
        assert got[0] == "returned"
        assert compiled.meter_uj.min() >= 0

    def test_faults_on_part_of_the_bank_follow_the_healthy_read(self):
        compiled, fallback = twin_banks(8, RaplConfig(), 30.0, 7)
        config = FaultConfig(stuck_prob=0.3, dropout_prob=0.3, spike_prob=0.3)
        for bank in (compiled, fallback):
            bank.set_faults(config, np.random.default_rng(8).spawn(3), slice(2, 5))
        for cycle in range(2 * NOISE_BLOCK + 3):
            for bank in (compiled, fallback):
                bank.step(np.full(8, 100.0 + cycle % 7), 1.0)
            span = (slice(None), slice(1, 6), slice(3, 4))[cycle % 3]
            on_both(compiled, fallback, lambda b: b.read_powers_w(1.0, span))
        assert compiled.faults_injected[2:5].sum() > 0
        assert compiled.faults_injected[[0, 1, 5, 6, 7]].sum() == 0

