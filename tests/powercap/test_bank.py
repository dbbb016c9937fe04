"""The RAPL bank: bulk calls, scalar views and the per-object model the
bank replaced agree bit for bit, under any interleaving."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.powercap.actuator import CapActuator
from repro.powercap.rapl import NOISE_BLOCK, RaplBank, RaplDomain, bank_span
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
