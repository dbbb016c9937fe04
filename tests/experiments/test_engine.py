"""Parallel engine: job graph, digests, persistent cache, determinism."""

import json
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster.simulator import Simulation
from repro.experiments.campaign import Campaign
from repro.experiments.engine import (
    CACHE_FORMAT,
    EngineTelemetry,
    ExperimentEngine,
    ResultCache,
    decode_result,
    encode_result,
    job_digest,
)
from repro.experiments.harness import PairOutcome, ReferenceStats
from repro.experiments.jobs import (
    JobGraph,
    SimJob,
    baseline_job,
    evaluation_jobs,
    pair_job,
    reference_job,
)


def small_campaign(fast_config, **kwargs):
    defaults = dict(
        config=fast_config,
        groups=("low_utility",),
        managers=("constant", "slurm"),
        limit_pairs=1,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestSimJob:
    def test_reference_takes_single_workload(self):
        with pytest.raises(ValueError, match="single workload"):
            SimJob(kind="reference", workload_a="a", workload_b="b")

    def test_pair_needs_two_workloads(self):
        with pytest.raises(ValueError, match="pair"):
            SimJob(kind="pair", workload_a="a", manager="dps")

    def test_prereq_kinds_pin_constant_manager(self):
        with pytest.raises(ValueError, match="constant"):
            SimJob(kind="baseline", workload_a="a", workload_b="b",
                   manager="dps")

    def test_constant_pair_is_the_baseline(self):
        assert pair_job("a", "b", "constant") == baseline_job("a", "b")
        with pytest.raises(ValueError, match="baseline"):
            SimJob(kind="pair", workload_a="a", workload_b="b",
                   manager="constant")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            SimJob(kind="mystery", workload_a="a")

    def test_keys(self):
        assert reference_job("kmeans").key == "reference:kmeans"
        assert pair_job("kmeans", "gmm", "dps").key == "pair:kmeans/gmm:dps"

    def test_pair_prerequisites(self):
        job = pair_job("a", "b", "dps")
        assert job.prerequisites() == (
            baseline_job("a", "b"),
            reference_job("a"),
            reference_job("b"),
        )

    def test_prereq_jobs_have_no_prerequisites(self):
        assert reference_job("a").prerequisites() == ()
        assert baseline_job("a", "b").prerequisites() == ()

    def test_evaluation_jobs_constant_manager(self):
        jobs = evaluation_jobs("a", "b", "constant")
        assert jobs == (
            baseline_job("a", "b"),
            reference_job("a"),
            reference_job("b"),
        )


class TestJobGraph:
    def test_dedups_and_closes_over_prerequisites(self):
        graph = JobGraph([pair_job("a", "b", "dps"),
                          pair_job("a", "b", "dps"),
                          pair_job("a", "b", "slurm")])
        keys = {j.key for j in graph}
        assert len(graph) == 5
        assert "baseline:a/b:constant" in keys
        assert "reference:a" in keys and "reference:b" in keys

    def test_two_waves(self):
        graph = JobGraph([pair_job("a", "b", "dps"),
                          pair_job("b", "c", "slurm")])
        waves = graph.waves()
        assert len(waves) == 2
        assert all(j.kind in ("reference", "baseline") for j in waves[0])
        assert all(j.kind == "pair" for j in waves[1])
        assert sum(len(w) for w in waves) == len(graph)


class TestJobDigest:
    def test_distinct_per_job(self, fast_config):
        jobs = [reference_job("a"), baseline_job("a", "b"),
                pair_job("a", "b", "dps"), pair_job("a", "b", "slurm")]
        digests = {job_digest(fast_config, j) for j in jobs}
        assert len(digests) == len(jobs)

    def test_config_change_invalidates(self, fast_config):
        job = pair_job("a", "b", "dps")
        before = job_digest(fast_config, job)
        bumped = ExperimentConfig_with_seed(fast_config, fast_config.seed + 1)
        assert job_digest(bumped, job) != before

    def test_stable(self, fast_config):
        job = reference_job("kmeans")
        assert job_digest(fast_config, job) == job_digest(fast_config, job)


def ExperimentConfig_with_seed(config, seed):
    from dataclasses import replace

    return replace(config, seed=seed)


class TestPayloadCodec:
    def test_reference_round_trip(self):
        stats = ReferenceStats(mean_duration_s=12.34, mean_power_w=99.5)
        assert decode_result(encode_result(stats)) == stats

    def test_outcome_round_trip_is_bit_exact(self):
        outcome = PairOutcome(
            manager="dps", workload_a="a", workload_b="b",
            times_a_s=(1.1, 0.1 + 0.2), times_b_s=(2.2,),
            power_a_w=100.0, power_b_w=205.3,
            max_caps_sum_w=400.0, sim_time_s=77.7,
        )
        # Through JSON text too, not just the dict: floats must survive
        # the shortest-round-trip serialization exactly.
        doc = json.loads(json.dumps(encode_result(outcome)))
        assert decode_result(doc) == outcome

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown payload type"):
            decode_result({"type": "mystery"})


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"type": "reference", "mean_duration_s": 1.0,
                   "mean_power_w": 2.0}
        cache.store("d" * 64, "reference:a", payload)
        assert cache.load("d" * 64) == payload
        assert (cache.hits, cache.misses, cache.invalid) == (1, 0, 0)
        assert len(cache) == 1

    def test_missing_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("e" * 64) is None
        assert (cache.hits, cache.misses, cache.invalid) == (0, 1, 0)

    def test_corrupted_json_is_invalid(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("f" * 64).write_text("{truncated", encoding="utf-8")
        assert cache.load("f" * 64) is None
        assert cache.invalid == 1

    def test_tampered_payload_fails_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "a" * 64
        cache.store(digest, "k", {"type": "reference",
                                  "mean_duration_s": 1.0,
                                  "mean_power_w": 2.0})
        doc = json.loads(cache.path(digest).read_text(encoding="utf-8"))
        doc["payload"]["mean_power_w"] = 3.0
        cache.path(digest).write_text(json.dumps(doc), encoding="utf-8")
        assert cache.load(digest) is None
        assert cache.invalid == 1

    def test_stale_digest_is_invalid(self, tmp_path):
        # A record copied to the wrong digest (e.g. a config changed and
        # files were renamed by hand) must not be served.
        cache = ResultCache(tmp_path)
        cache.store("a" * 64, "k", {"type": "reference",
                                    "mean_duration_s": 1.0,
                                    "mean_power_w": 2.0})
        cache.path("a" * 64).rename(cache.path("b" * 64))
        assert cache.load("b" * 64) is None
        assert cache.invalid == 1

    def test_wrong_format_tag_is_invalid(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "c" * 64
        cache.store(digest, "k", {"type": "reference",
                                  "mean_duration_s": 1.0,
                                  "mean_power_w": 2.0})
        doc = json.loads(cache.path(digest).read_text(encoding="utf-8"))
        doc["format"] = "repro-simcache-v0"
        cache.path(digest).write_text(json.dumps(doc), encoding="utf-8")
        assert cache.load(digest) is None
        assert cache.invalid == 1

    def test_format_tag(self):
        assert CACHE_FORMAT == "repro-simcache-v1"


class TestCacheReaders:
    def test_undecodable_record_counts_the_same_through_both_readers(
        self, fast_config, tmp_path
    ):
        """A checksum-valid record whose payload does not decode is
        invalid to the harness and the engine alike, never a hit."""
        from repro.experiments.harness import ExperimentHarness

        job = reference_job("kmeans")
        digest = job_digest(fast_config, job)
        counters = []
        for reader in ("harness", "engine"):
            cache = ResultCache(tmp_path / reader)
            cache.store(digest, job.key, {"type": "reference"})
            if reader == "harness":
                ExperimentHarness(fast_config, cache=cache).uncapped_reference(
                    "kmeans"
                )
            else:
                ExperimentEngine(fast_config, cache=cache).run([job])
            counters.append((cache.hits, cache.misses, cache.invalid))
        assert counters == [(0, 0, 1), (0, 0, 1)]


def _count_sim_runs(monkeypatch):
    """Patch Simulation.run to count invocations (in this process)."""
    calls = []
    original = Simulation.run

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counting)
    return calls


class TestDeterminism:
    def test_parallel_matches_sequential(self, fast_config):
        sequential = small_campaign(fast_config).run(jobs=1)
        parallel = small_campaign(fast_config).run(jobs=4)
        assert parallel.records == sequential.records
        assert parallel.engine.workers == 4
        assert parallel.engine.n_jobs == sequential.engine.n_jobs

    def test_warm_cache_skips_simulation_bit_identically(
        self, fast_config, tmp_path, monkeypatch
    ):
        cold = small_campaign(fast_config).run(cache=ResultCache(tmp_path))
        assert cold.engine.cache_misses == cold.engine.n_jobs

        calls = _count_sim_runs(monkeypatch)
        warm_cache = ResultCache(tmp_path)
        warm = small_campaign(fast_config).run(cache=warm_cache)
        assert calls == []  # Every job served from disk.
        assert warm.records == cold.records
        assert warm.engine.cache_hits == warm.engine.n_jobs
        assert warm.engine.cache_misses == 0
        assert all(t.cached for t in warm.engine.job_timings)

    def test_corrupted_entry_is_resimulated(
        self, fast_config, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cold = small_campaign(fast_config).run(cache=cache)
        victim = next(iter(sorted(cache.root.glob("*.json"))))
        doc = json.loads(victim.read_text(encoding="utf-8"))
        doc["payload"]["mean_power_w" if "mean_power_w" in doc["payload"]
                       else "power_a_w"] = -1.0
        victim.write_text(json.dumps(doc), encoding="utf-8")

        calls = _count_sim_runs(monkeypatch)
        warm_cache = ResultCache(tmp_path)
        warm = small_campaign(fast_config).run(cache=warm_cache)
        # Exactly the tampered job re-ran; the checksum caught it.
        assert len(calls) == 1
        assert warm.engine.cache_invalid == 1
        assert warm.engine.cache_hits == warm.engine.n_jobs - 1
        assert warm.records == cold.records  # Repaired, not trusted.
        # And the repaired record was written back verified.
        final = ResultCache(tmp_path)
        digest = victim.stem
        assert final.load(digest) is not None

    def test_cache_round_trip_through_parallel_run(self, fast_config, tmp_path):
        cold = small_campaign(fast_config).run(
            jobs=2, cache=ResultCache(tmp_path)
        )
        warm = small_campaign(fast_config).run(
            jobs=2, cache=ResultCache(tmp_path)
        )
        assert warm.records == cold.records
        assert warm.engine.cache_hits == warm.engine.n_jobs


class TestEngineTelemetry:
    def test_job_timings_cover_graph(self, fast_config):
        result = small_campaign(fast_config).run()
        eng = result.engine
        assert isinstance(eng, EngineTelemetry)
        assert len(eng.job_timings) == eng.n_jobs
        assert eng.total_wall_s > 0
        assert not any(t.cached for t in eng.job_timings)
        assert all(t.wall_s > 0 for t in eng.job_timings)

    def test_progress_callback(self, fast_config):
        seen = []
        small_campaign(fast_config).run(
            engine_progress=lambda *a: seen.append(a)
        )
        dones = [s[0] for s in seen]
        assert dones == list(range(1, len(seen) + 1))
        done, total, job, wall_s, cached, eta_s = seen[-1]
        assert done == total
        assert isinstance(job, SimJob)
        assert eta_s == pytest.approx(0.0)

    def test_round_trip_doc(self):
        eng = EngineTelemetry(
            workers=4, n_jobs=2, cache_hits=1, cache_misses=1,
            cache_invalid=0, total_wall_s=1.5,
            job_timings=(),
        )
        assert EngineTelemetry.from_doc(eng.to_doc()) == eng

    def test_rejects_bad_jobs(self, fast_config):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentEngine(fast_config, jobs=0)


# --------------------------------------------------------------------------
# Pool-crash recovery, cancellation, and cache write races.
#
# The helpers below are module-level because pool workers pickle callables
# by qualified name: a closure or a monkeypatched lambda cannot cross the
# process boundary, but ``tests.experiments.test_engine._killer_pool_run``
# can (the ``tests`` tree is a package).
# --------------------------------------------------------------------------

from repro.experiments import engine as engine_module  # noqa: E402

_REAL_POOL_RUN = engine_module._pool_run

#: Path of the crash flag file, set per-test; forked pool workers inherit
#: it.  Flag contents "once" → the one worker whose unlink of it succeeds
#: dies; "forever" → every worker dies.
_KILL_FLAG: str | None = None


def _killer_pool_run(job):
    try:
        if _KILL_FLAG is not None:
            with open(_KILL_FLAG, encoding="utf-8") as fh:
                if fh.read().strip() == "once":
                    # The unlink is the claim: two workers may both read
                    # the flag, but only one can remove it.
                    os.unlink(_KILL_FLAG)
            os._exit(1)
    except FileNotFoundError:
        pass  # No flag, or another worker claimed the "once" one.
    return _REAL_POOL_RUN(job)


def _hammer_store(root, digest, n):
    cache = ResultCache(root)
    payload = {"type": "reference", "mean_duration_s": 1.25,
               "mean_power_w": 94.0}
    for _ in range(n):
        cache.store(digest, "reference:race", payload)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the flag path",
)


@needs_fork
class TestBrokenPoolRecovery:
    def _arm(self, monkeypatch, tmp_path, mode):
        flag = tmp_path / "kill.flag"
        flag.write_text(mode, encoding="utf-8")
        monkeypatch.setattr(sys.modules[__name__], "_KILL_FLAG", str(flag))
        monkeypatch.setattr(engine_module, "_pool_run", _killer_pool_run)

    def test_one_worker_death_is_absorbed(
        self, fast_config, monkeypatch, tmp_path
    ):
        self._arm(monkeypatch, tmp_path, "once")
        jobs = evaluation_jobs("kmeans", "gmm", "slurm")
        engine = ExperimentEngine(fast_config, jobs=2)
        results = engine.run(jobs)
        assert results == ExperimentEngine(fast_config).run(jobs)
        assert [e.kind for e in engine.events] == ["pool_rebuilt"]

    def test_second_death_in_a_wave_propagates(
        self, fast_config, monkeypatch, tmp_path
    ):
        self._arm(monkeypatch, tmp_path, "forever")
        engine = ExperimentEngine(fast_config, jobs=2)
        with pytest.raises(BrokenProcessPool):
            engine.run(evaluation_jobs("kmeans", "gmm", "slurm"))
        # The second break aborted the run, but the engine's finally
        # still reaped the pool.
        assert engine.backend._pool is None


class TestCancellation:
    def test_ctrl_c_mid_wave_leaves_nothing_torn(
        self, fast_config, tmp_path
    ):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(fast_config, jobs=2, cache=cache)
        pool_procs = []

        def boom(done, total, job, wall_s, cached, eta):
            pool = engine.backend._pool
            if pool is not None:
                pool_procs.extend(pool._processes.values())
            raise KeyboardInterrupt

        jobs = evaluation_jobs("kmeans", "gmm", "slurm")
        with pytest.raises(KeyboardInterrupt):
            engine.run(jobs, progress=boom)

        # No orphaned worker processes: shutdown(wait=True) ran.
        assert engine.backend._pool is None
        assert pool_procs
        for proc in pool_procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        # No torn cache entries: no staging debris, every persisted
        # record fully verifies.
        assert list(tmp_path.glob("*.tmp")) == []
        for record in tmp_path.glob("*.json"):
            assert cache.load(record.stem) is not None
        # The interrupted campaign resumes cleanly from the same cache.
        resumed = ExperimentEngine(fast_config, cache=cache).run(jobs)
        assert resumed == ExperimentEngine(fast_config).run(jobs)

    def test_ctrl_c_inline_backend_is_clean(self, fast_config, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(fast_config, cache=cache)

        def boom(done, total, job, wall_s, cached, eta):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            engine.run(
                evaluation_jobs("kmeans", "gmm", "slurm"), progress=boom
            )
        assert list(tmp_path.glob("*.tmp")) == []
        for record in tmp_path.glob("*.json"):
            assert cache.load(record.stem) is not None


class TestCacheWriteRaces:
    def test_concurrent_same_digest_writers(self, tmp_path):
        digest = "ab" * 32
        procs = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), digest, 50)
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert list(tmp_path.glob("*.tmp")) == []
        cache = ResultCache(tmp_path)
        assert cache.load(digest) is not None
        assert len(cache) == 1

    def test_lost_replace_tolerated_when_survivor_verifies(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        digest = "d" * 64
        payload = {"type": "reference", "mean_duration_s": 1.0,
                   "mean_power_w": 2.0}
        cache.store(digest, "k", payload)

        def deny(src, dst):
            raise PermissionError("file is locked by another writer")

        monkeypatch.setattr(os, "replace", deny)
        cache.store(digest, "k", payload)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load(digest) == payload

    def test_lost_replace_raises_without_survivor(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)

        def deny(src, dst):
            raise PermissionError("file is locked by another writer")

        monkeypatch.setattr(os, "replace", deny)
        with pytest.raises(PermissionError):
            cache.store("e" * 64, "k", {"type": "reference",
                                        "mean_duration_s": 1.0,
                                        "mean_power_w": 2.0})
        # Even the failing path cleans up its staging file.
        assert list(tmp_path.glob("*.tmp")) == []
