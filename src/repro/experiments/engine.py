"""Parallel experiment-execution engine with a persistent result cache.

The paper's evaluation is >1,000 machine-hours of (group x pair x manager)
runs; the reproduction's simulations are shared-nothing and deterministically
seeded, which makes a campaign embarrassingly parallel.  This engine is the
throughput layer every figure/table/campaign entry point sits on:

* :func:`job_digest` — content address of one simulation: SHA-256 over the
  frozen :class:`~repro.experiments.jobs.ExperimentConfig`, the job's
  identity tokens, and the repro version.  Any knob that could change the
  simulation's output changes the digest.
* :class:`ResultCache` — an on-disk store of finished job payloads, one
  JSON record per digest, checksummed so corrupted or stale entries are
  detected and re-simulated rather than trusted.
* :class:`LocalPoolBackend` — where a run's uncached jobs execute: inline
  for one job slot, otherwise a ``ProcessPoolExecutor`` with chunked
  dispatch that survives a worker segfault by rebuilding the pool once.
* :class:`ExperimentEngine` — deduplicates a job list, serves what the
  cache holds, and hands every other job to the pool in one batch, with
  per-job wall timing and a progress/ETA callback.  It is the only way an
  evaluation's simulations run: the in-process
  :class:`~repro.experiments.harness.ExperimentHarness` sits on one too.

Results are bit-identical to the sequential in-process path: every job
derives its own seed from the campaign seed (independent of scheduling),
results cross the process boundary by pickle and the cache by JSON, both
exact for floats (Python serializes floats shortest-round-trip), and
consumers assemble records in deterministic order regardless of
completion order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.experiments.jobs import (
    ExperimentConfig,
    JobResult,
    PairOutcome,
    ReferenceStats,
    SimJob,
    simulate,
)
from repro.telemetry.log import ResilienceEventLog

__all__ = [
    "CACHE_FORMAT",
    "EngineTelemetry",
    "ExperimentEngine",
    "JobResult",
    "JobTiming",
    "LocalPoolBackend",
    "ProgressFn",
    "ResultCache",
    "job_digest",
    "execute_job",
]

#: Format tag of one on-disk cache record.
CACHE_FORMAT = "repro-simcache-v1"

#: ``progress(done, total, job, wall_s, cached, eta_s)`` — invoked after
#: every finished job; ``eta_s`` extrapolates from mean wall time so far.
ProgressFn = Callable[[int, int, SimJob, float, bool, float], None]


# ---------------------------------------------------------------------------
# Cache keys and payload codec
# ---------------------------------------------------------------------------


def _canonical(doc: object) -> str:
    """Canonical JSON: sorted keys, no whitespace drift."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def job_digest(config: ExperimentConfig, job: SimJob) -> str:
    """Content address of one simulation under one campaign configuration.

    Covers the full frozen config (every cluster/sim/perf/rapl/manager
    knob plus seed and repeats), the job's identity tokens, and the repro
    package version — bumping the code that could change simulation output
    invalidates the cache wholesale, changing any config knob invalidates
    exactly the runs it affects.
    """
    from repro import __version__

    doc = {
        "repro": __version__,
        "config": asdict(config),
        "job": list(job.tokens),
    }
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def encode_result(result: JobResult) -> dict:
    """JSON-able payload document of a job result."""
    if isinstance(result, ReferenceStats):
        return {"type": "reference", **asdict(result)}
    if isinstance(result, PairOutcome):
        doc = asdict(result)
        doc["times_a_s"] = list(result.times_a_s)
        doc["times_b_s"] = list(result.times_b_s)
        return {"type": "outcome", **doc}
    raise TypeError(f"unsupported result type {type(result).__name__}")


def decode_result(doc: dict) -> JobResult:
    """Inverse of :func:`encode_result` (bit-exact for floats)."""
    kind = doc.get("type")
    if kind == "reference":
        return ReferenceStats(
            mean_duration_s=float(doc["mean_duration_s"]),
            mean_power_w=float(doc["mean_power_w"]),
        )
    if kind == "outcome":
        return PairOutcome(
            manager=doc["manager"],
            workload_a=doc["workload_a"],
            workload_b=doc["workload_b"],
            times_a_s=tuple(float(t) for t in doc["times_a_s"]),
            times_b_s=tuple(float(t) for t in doc["times_b_s"]),
            power_a_w=float(doc["power_a_w"]),
            power_b_w=float(doc["power_b_w"]),
            max_caps_sum_w=float(doc["max_caps_sum_w"]),
            sim_time_s=float(doc["sim_time_s"]),
        )
    raise ValueError(f"unknown payload type {kind!r}")


# ---------------------------------------------------------------------------
# Persistent result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Directory of finished simulation results, keyed by job digest.

    Layout: one ``<digest>.json`` per job holding ``{format, digest, key,
    payload, payload_sha256}``.  ``key`` is the human-readable job key
    (provenance only).  A record is trusted only when its format tag,
    embedded digest, and payload checksum all verify; anything else counts
    as *invalid* and reads as a miss, so a corrupted or hand-edited entry
    is re-simulated, never silently served.

    Counters (``hits``/``misses``/``invalid``) accumulate over the cache
    object's lifetime; the engine folds them into its telemetry.
    """

    #: Distinguishes concurrent writers' temp files within one process;
    #: combined with the pid it makes every ``store()`` call's temp file
    #: unique, so same-digest racers never clobber each other's staging.
    _tmp_counter = itertools.count()

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.invalid = 0

    def path(self, digest: str) -> Path:
        """On-disk location of one record."""
        return self.root / f"{digest}.json"

    @staticmethod
    def _verified_payload(digest: str, doc: object) -> dict | None:
        """The payload of a record document iff it fully verifies."""
        if not isinstance(doc, dict):
            return None
        payload = doc.get("payload")
        if (
            doc.get("format") != CACHE_FORMAT
            or doc.get("digest") != digest
            or not isinstance(payload, dict)
            or doc.get("payload_sha256")
            != hashlib.sha256(_canonical(payload).encode()).hexdigest()
        ):
            return None
        return payload

    def _read(self, digest: str) -> dict | None:
        """Verified payload, counting a miss or an invalid record."""
        path = self.path(digest)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.invalid += 1
            return None
        payload = self._verified_payload(digest, doc)
        if payload is None:
            self.invalid += 1
        return payload

    def load(self, digest: str) -> dict | None:
        """Verified payload for ``digest``, or None (miss / invalid)."""
        payload = self._read(digest)
        if payload is not None:
            self.hits += 1
        return payload

    def load_result(self, digest: str) -> JobResult | None:
        """Decoded result for ``digest``, or None (miss / invalid).

        A record whose checksum verifies but whose payload does not decode
        (a hand-edited payload of the wrong shape) counts as invalid, not
        as a hit: the caller re-simulates it.
        """
        payload = self._read(digest)
        if payload is None:
            return None
        try:
            result = decode_result(payload)
        except (KeyError, ValueError, TypeError):
            self.invalid += 1
            return None
        self.hits += 1
        return result

    def store(self, digest: str, key: str, payload: dict) -> None:
        """Atomically persist one record (write-temp + rename).

        Safe under concurrent same-digest writers (two workers finishing
        the same job): each call stages to its own unique temp file, and
        a failed final rename (Windows can refuse to replace a file
        another process holds open) is tolerated when a verified record
        for the digest survived — jobs are idempotent, so any writer's
        record is equivalent.  The temp file is removed on every path,
        including interrupts, so a killed run leaves no staging debris.
        """
        doc = {
            "format": CACHE_FORMAT,
            "digest": digest,
            "key": key,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                _canonical(payload).encode()
            ).hexdigest(),
        }
        path = self.path(digest)
        tmp = self.root / (
            f"{digest}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                existing = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                existing = None
            if self._verified_payload(digest, existing) is None:
                raise
        finally:
            tmp.unlink(missing_ok=True)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# Engine telemetry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobTiming:
    """Wall time of one job (zero and ``cached=True`` for cache hits)."""

    key: str
    wall_s: float
    cached: bool

    def to_doc(self) -> dict:
        return {"key": self.key, "wall_s": self.wall_s, "cached": self.cached}

    @classmethod
    def from_doc(cls, doc: dict) -> "JobTiming":
        return cls(
            key=doc["key"],
            wall_s=float(doc["wall_s"]),
            cached=bool(doc["cached"]),
        )


@dataclass(frozen=True)
class EngineTelemetry:
    """What one engine run did: worker count, cache traffic, per-job walls.

    Attributes:
        workers: process-pool size (1 = inline, no pool).
        n_jobs: total jobs in the deduplicated job list.
        cache_hits / cache_misses / cache_invalid: persistent-cache traffic
            of this run (all zero when no cache was attached).
        total_wall_s: end-to-end wall time of the engine run.
        job_timings: per-job wall time and cache provenance, list order.

    :meth:`from_doc` reads only these keys, so documents written with
    keys since dropped (an execution ``backend`` label) still load.
    """

    workers: int
    n_jobs: int
    cache_hits: int
    cache_misses: int
    cache_invalid: int
    total_wall_s: float
    job_timings: tuple[JobTiming, ...] = ()

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["job_timings"] = [t.to_doc() for t in self.job_timings]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "EngineTelemetry":
        return cls(
            workers=int(doc["workers"]),
            n_jobs=int(doc["n_jobs"]),
            cache_hits=int(doc["cache_hits"]),
            cache_misses=int(doc["cache_misses"]),
            cache_invalid=int(doc["cache_invalid"]),
            total_wall_s=float(doc["total_wall_s"]),
            job_timings=tuple(
                JobTiming.from_doc(t) for t in doc.get("job_timings", ())
            ),
        )


# ---------------------------------------------------------------------------
# Job execution (worker side)
# ---------------------------------------------------------------------------


def execute_job(config: ExperimentConfig, job: SimJob) -> JobResult:
    """Run one job's simulation from scratch (no caches involved).

    Seeds derive from the campaign seed and the job's workload/manager
    names, so the result is bit-identical regardless of worker or ordering.
    """
    return simulate(config, job)[0]


_WORKER_CONFIG: ExperimentConfig | None = None


def _pool_init(config: ExperimentConfig) -> None:
    """Pool initializer: ship the campaign config once per worker."""
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _pool_run(job: SimJob) -> tuple[SimJob, JobResult, float]:
    """Worker entry: execute one job, return its result + wall."""
    assert _WORKER_CONFIG is not None, "pool initializer did not run"
    t0 = time.perf_counter()
    result = execute_job(_WORKER_CONFIG, job)
    return job, result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------


class LocalPoolBackend:
    """Execution of one run's uncached jobs over a process pool.

    Args:
        jobs: worker-process count; 1 executes inline (no pool, no pickle
            round trip) and is the bit-identity baseline every other
            execution path is tested against.

    The engine hands :meth:`execute` every uncached job of a run in one
    batch and calls :meth:`shutdown` in a ``finally`` after it, so an
    interrupted campaign never leaks worker processes.  ``events``
    collects ``pool_rebuilt`` events
    (:data:`~repro.telemetry.log.WORKER_EVENT_KINDS`).

    A worker process dying mid-batch (segfault, OOM kill) breaks the whole
    executor — ``BrokenProcessPool`` — and used to abort the campaign.
    The backend absorbs one such failure per run: it reaps the broken
    pool, builds a fresh one, emits a ``pool_rebuilt`` event, and re-runs
    the batch's not-yet-delivered jobs (idempotent, so a re-run is safe).
    A second break in the same run propagates — that is a systematically
    crashing job, not a flaky worker.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._t0 = time.monotonic()
        #: Stamped in seconds since this backend was built.
        self.events = ResilienceEventLog(lambda: time.monotonic() - self._t0)

    def shutdown(self) -> None:
        """Reap the pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def execute(
        self, config: ExperimentConfig, jobs: Sequence[SimJob]
    ) -> Iterator[tuple[SimJob, JobResult, float]]:
        """Run one batch of jobs under ``config``; yield ``(job, result,
        wall_s)`` as they finish, in any order."""
        if not jobs:
            return
        if self.jobs == 1 or len(jobs) == 1:
            for job in jobs:
                t0 = time.perf_counter()
                result = execute_job(config, job)
                yield job, result, time.perf_counter() - t0
            return
        remaining = jobs
        for attempt in (1, 2):
            self.shutdown()
            self._pool = pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_init,
                initargs=(config,),
            )
            # Chunked dispatch: a handful of chunks per worker amortizes
            # the pickle/IPC round trip while keeping the tail balanced.
            chunksize = max(1, len(remaining) // (self.jobs * 4))
            delivered = 0
            try:
                for out in pool.map(
                    _pool_run, remaining, chunksize=chunksize
                ):
                    delivered += 1
                    yield out
                return
            except BrokenProcessPool:
                self.shutdown()
                remaining = remaining[delivered:]
                if attempt == 2:
                    raise
                self.events.emit(
                    "pool_rebuilt",
                    detail=(
                        f"worker process died; re-running "
                        f"{len(remaining)} undelivered job(s) on a "
                        "fresh pool"
                    ),
                )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Fan a job list out over a process pool, through the cache.

    Args:
        config: campaign configuration every job runs under.
        jobs: worker-process count; 1 executes inline (no pool, no pickle
            round trip) and is the bit-identity baseline the parallel
            path is tested against.
        cache: optional :class:`ResultCache`; hits skip execution
            entirely, fresh results are persisted as soon as they arrive.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        jobs: int = 1,
        cache: ResultCache | None = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.backend = LocalPoolBackend(jobs)
        self.last_telemetry: EngineTelemetry | None = None

    @property
    def events(self) -> ResilienceEventLog:
        """The pool's structured ``pool_rebuilt`` event log."""
        return self.backend.events

    def run(
        self,
        jobs: Iterable[SimJob],
        progress: ProgressFn | None = None,
    ) -> dict[SimJob, JobResult]:
        """Execute a job list; returns every job's result, cache-merged.

        Jobs are deduplicated (the first occurrence keeps its place), cache
        hits are served, and every other job goes to the backend in one
        batch.  Per-job wall times are measured where the job ran.
        """
        ordered = tuple(dict.fromkeys(jobs))
        total = len(ordered)
        hits0, misses0, invalid0 = self._cache_counters()
        results: dict[SimJob, JobResult] = {}
        timings: dict[SimJob, JobTiming] = {}
        done = 0
        t_start = time.perf_counter()

        def _finish(job: SimJob, wall_s: float, cached: bool) -> None:
            nonlocal done
            done += 1
            timings[job] = JobTiming(job.key, wall_s, cached)
            if progress is not None:
                elapsed = time.perf_counter() - t_start
                eta = elapsed / done * (total - done) if done else 0.0
                progress(done, total, job, wall_s, cached, eta)

        digests: dict[SimJob, str] = {}
        for job in ordered:
            digest = job_digest(self.config, job)
            cached = (
                self.cache.load_result(digest)
                if self.cache is not None
                else None
            )
            if cached is not None:
                results[job] = cached
                _finish(job, 0.0, cached=True)
            else:
                digests[job] = digest
        try:
            for job, result, wall_s in self.backend.execute(
                self.config, list(digests)
            ):
                results[job] = result
                if self.cache is not None:
                    self.cache.store(
                        digests[job], job.key, encode_result(result)
                    )
                _finish(job, wall_s, cached=False)
        finally:
            self.backend.shutdown()

        hits1, misses1, invalid1 = self._cache_counters()
        self.last_telemetry = EngineTelemetry(
            workers=self.backend.jobs,
            n_jobs=total,
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            cache_invalid=invalid1 - invalid0,
            total_wall_s=time.perf_counter() - t_start,
            job_timings=tuple(timings[j] for j in ordered),
        )
        return results

    # ------------------------------------------------------------------

    def _cache_counters(self) -> tuple[int, int, int]:
        if self.cache is None:
            return (0, 0, 0)
        return (self.cache.hits, self.cache.misses, self.cache.invalid)
