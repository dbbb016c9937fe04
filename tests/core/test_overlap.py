"""Algorithm 1's random order drawn beside Algorithm 2's classification.

At ``OVERLAP_MIN_UNITS`` units and up, with a second CPU, ``mimd_step``
draws the increase order on a helper thread while the caller's
``alongside`` (DPS's priority update) runs; otherwise it draws first and
calls ``alongside`` after.  Nothing but speed may tell the two apart:
these tests force either order at test sizes (``oracles.overlap``
lowers or raises the module constant and fakes a second CPU) and hold
every bit of every step, the generator's state included, against the
serial order -- on a host with the kernels and on one without.
"""

from __future__ import annotations

import contextlib
import copy
import multiprocessing
import os
import pickle
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import stateless
from repro.core.config import DPSConfig, StatelessConfig
from repro.core.dps import DPSManager
from repro.core.helper import HelperThread
from repro.core.stateless import mimd_step
from tests.core.oracles import no_native, overlap

_hosts = pytest.mark.parametrize(
    "host", [contextlib.nullcontext, no_native], ids=["kernel", "walk"]
)

N = 600


def _mixed(seed, n, steps):
    """The overprovisioned mix -- idle, steady and bursty units -- with a
    saturated stretch every 20 steps, where no unit lowers its cap and
    Algorithm 1 has no budget to draw an order for."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 4, n)
    base = np.choose(kind, [45.0, 110.0, 110.0, 80.0])
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    out = []
    for t in range(steps):
        p = base + 3.0 * rng.standard_normal(n)
        p += np.where(kind == 3, 70.0 * np.sin(0.3 * t + phase), 0.0)
        if t % 20 >= 16:
            p = np.full(n, 165.0)
        out.append(np.clip(p, 5.0, 165.0))
    return out


def _stress(seed, n, steps):
    """Every unit i.i.d. 40-160 W, saturated every 20 steps likewise."""
    rng = np.random.default_rng(seed)
    return [
        np.full(n, 165.0) if t % 20 >= 16 else rng.uniform(40.0, 160.0, n)
        for t in range(steps)
    ]


def _bound(n, seed):
    manager = DPSManager(DPSConfig())
    manager.bind(
        n_units=n,
        budget_w=110.0 * n,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(seed),
    )
    return manager


def _bits(array):
    return (array.dtype.str, array.shape, array.tobytes())


def _record(manager, power):
    """Everything one step decides, as bytes: caps, every array and flag
    of ``DPSStepInfo``, and the generator's state after the step."""
    caps = manager.step(power)
    info = manager.last_info
    return (
        _bits(caps),
        tuple(
            _bits(value) if isinstance(value, np.ndarray) else value
            for value in info
        ),
        repr(manager._rng.bit_generator.state),
    )


def _run(powers, seed, on):
    manager = _bound(powers[0].shape[0], seed)
    with overlap(on) as handed:
        records = [_record(manager, power) for power in powers]
    return records, handed


class TestOverlapEqualsSerial:
    @_hosts
    @pytest.mark.parametrize("profile", [_mixed, _stress])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_step_bit_identical(self, host, profile, seed):
        powers = profile(seed, N, 64)
        with host():
            serial, none = _run(powers, seed + 10, on=False)
            beside, handed = _run(powers, seed + 10, on=True)
        assert not none
        for step, (got, want) in enumerate(zip(beside, serial)):
            assert got == want, f"step {step} differs"
        # Steps with budget to hand out drew beside the classification;
        # the saturated ones drew nothing, on either path.
        first = repr(np.random.default_rng(seed + 10).bit_generator.state)
        states = [first] + [state for _, _, state in serial]
        drew = [a != b for a, b in zip(states, states[1:])]
        assert len(handed) == sum(drew)
        assert 0 < sum(drew) < len(drew)

    @_hosts
    def test_bare_mimd_step_without_a_draw(self, host):
        """No budget left after the decrease pass: no draw on either
        path, and ``alongside`` still runs exactly once."""
        power = np.full(N, 160.0)
        caps = np.full(N, 110.0)
        for on in (False, True):
            calls = []
            rng = np.random.default_rng(3)
            before = repr(rng.bit_generator.state)
            with host(), overlap(on) as handed:
                result = mimd_step(
                    power, caps, 110.0 * N, 165.0, 30.0, StatelessConfig(),
                    rng, alongside=lambda: calls.append(1),
                )
            assert calls == [1] and not handed
            assert repr(rng.bit_generator.state) == before
            np.testing.assert_array_equal(result.caps, caps)


def _failing():
    raise RuntimeError("alongside failed")


class TestFailureAndProcessSemantics:
    def _step(self, rng, alongside=None):
        rng_power = np.random.default_rng(4)
        power = rng_power.uniform(40.0, 160.0, N)
        caps = np.full(N, 100.0)
        return mimd_step(
            power, caps, 110.0 * N, 165.0, 30.0, StatelessConfig(), rng,
            alongside=alongside,
        )

    def test_raising_alongside_leaves_the_serial_stream(self):
        serial = np.random.default_rng(5)
        with overlap(False), pytest.raises(RuntimeError):
            self._step(serial, _failing)
        beside = np.random.default_rng(5)
        with overlap(True) as handed, pytest.raises(RuntimeError):
            self._step(beside, _failing)
        assert handed == [N]
        assert beside.bit_generator.state == serial.bit_generator.state
        # The drawer is free again and the next step matches.
        with overlap(True) as handed:
            got = self._step(beside, lambda: None)
        want = self._step(serial)
        assert handed == [N]
        np.testing.assert_array_equal(got.caps, want.caps)
        assert beside.bit_generator.state == serial.bit_generator.state

    def test_one_cpu_takes_the_serial_path(self, monkeypatch):
        with overlap(True) as handed:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            order = []
            self._step(np.random.default_rng(6), lambda: order.append(1))
        assert not handed and order == [1]

    def test_below_the_constant_takes_the_serial_path(self, monkeypatch):
        with overlap(True) as handed:
            monkeypatch.setattr(stateless, "OVERLAP_MIN_UNITS", N + 1)
            self._step(np.random.default_rng(6), lambda: None)
        assert not handed

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda manager: pickle.loads(pickle.dumps(manager))],
        ids=["deepcopy", "pickle"],
    )
    def test_manager_copies_after_overlapped_steps(self, clone):
        powers = _mixed(7, N, 40)
        reference, _ = _run(powers, 8, on=False)
        manager = _bound(N, 8)
        with overlap(True) as handed:
            head = [_record(manager, power) for power in powers[:25]]
            twin = clone(manager)
            tail = [_record(twin, power) for power in powers[25:]]
        assert handed
        assert head + tail == reference


#: Twice the size from which the product overlaps (``overlap`` lowers it).
LARGE_N = 2 * stateless.OVERLAP_MIN_UNITS


def _large_step_digest():
    """Two DPS steps of ``LARGE_N`` units: the caps' bytes."""
    manager = _bound(LARGE_N, 1)
    power = np.random.default_rng(2).uniform(40.0, 160.0, LARGE_N)
    return [manager.step(power).tobytes() for _ in range(2)]


def _large_step_beside():
    """``_large_step_digest`` on the overlapped path, and how many draws
    the helper was handed."""
    with overlap(True) as handed:
        got = _large_step_digest()
    return got, len(handed)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedChildren:
    """A fork copies the helper's objects but not its thread: the child
    must start one of its own rather than wait on the parent's."""

    @pytest.fixture(autouse=True)
    def _forks_with_a_thread(self):
        with warnings.catch_warnings():
            # Python 3.12 warns that a process with threads forks; that
            # fork is what these tests are about.
            warnings.simplefilter("ignore", DeprecationWarning)
            yield

    @pytest.fixture
    def want(self):
        """The serial digest, after the parent has used its helper."""
        assert _large_step_beside()[1] == 2
        return _large_step_digest()

    def test_os_fork_child_finishes_a_large_step(self, want):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            code = 1
            try:
                code = 0 if _large_step_beside() == (want, 2) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        status = None
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on the helper")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_forked_pool_worker_finishes_a_large_step(self, want):
        pool = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        )
        future = pool.submit(_large_step_beside)
        try:
            assert future.result(timeout=60.0) == (want, 2)
        finally:
            if not future.done():  # pragma: no cover - a hung worker
                for process in pool._processes.values():
                    process.kill()
            pool.shutdown(wait=True, cancel_futures=True)


class TestHelperThread:
    def test_jobs_run_in_order_and_return_their_results(self):
        helper = HelperThread()
        seen = []
        helper.submit(seen.append, 1)
        helper.submit(seen.append, 2)
        assert helper.join() is None and seen == [1, 2]
        helper.submit(sum, [1, 2, 3])
        assert helper.join() == 6
        assert helper.join() is None  # Nothing pending.

    def test_a_failure_is_raised_at_the_next_submit(self):
        helper = HelperThread()
        helper.submit(_failing)
        with pytest.raises(RuntimeError, match="alongside failed"):
            helper.submit(int)
        # The failed job is collected; the helper serves on.
        helper.submit(abs, -4)
        assert helper.join() == 4

    def test_shared_between_threads_under_the_owner_lock(self):
        """More owners than cores, a short switch interval: every owner
        gets its own job's result back."""
        helper = HelperThread()
        results = {}

        def owner(k):
            for i in range(200):
                with helper.owner:
                    helper.submit(pow, k, i % 7)
                    results.setdefault(k, []).append(helper.join())

        threads = [threading.Thread(target=owner, args=(k,)) for k in range(2, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {
            k: [k ** (i % 7) for i in range(200)] for k in range(2, 8)
        }
