"""Fault-tolerant executor: jobs in, ordered outcomes out.

Each job runs its stage chain in one worker process, consulting the
on-disk cache before computing each stage and persisting what it
computed, so a re-run after an interrupted batch only pays for the jobs
that never finished.  On top of that sits the fault-tolerance layer
(see ``docs/ROBUSTNESS.md``):

* a :class:`RetryPolicy` gives every job a bounded number of attempts
  with exponential backoff and deterministic jitter, plus an optional
  per-job wall-clock timeout;
* failures are classified (``exception`` / ``timeout`` / ``crash``) and
  retried up to the budget — a hung job is killed and requeued, a dead
  worker is detected, its job requeued and the pool replenished (the
  supervised pool lives in :mod:`repro.pipeline.supervisor`);
* with ``raise_on_error=False`` a batch degrades gracefully: it returns
  every successful outcome plus a structured per-job failure report
  instead of raising;
* ``resume=True`` pre-scans the cache and satisfies fully-cached jobs
  without touching the pool, so an aborted batch picks up where it
  stopped.

``workers <= 1`` with no timeout and no hang/kill fault plan executes
inline — no processes, no pickling — which is both the test path and
what the figure code uses by default.  Every recovery path is exercised
deterministically via :mod:`repro.pipeline.faults`.

With observability on (:mod:`repro.obs`), every batch, job and stage is
a tracing span; retries, timeouts, requeues and worker crashes bump
dedicated counters, and each worker ships its metric delta plus captured
span records back on the :class:`JobOutcome`, where the parent folds
them into the process-wide registry — so ``--obs`` totals cover the
whole pool, not just the coordinating process.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ArtifactNotFoundError,
    PipelineError,
    RetryExhaustedError,
    SpecError,
)
from ..obs import trace as obs
from . import faults
from .cache import ResultCache
from .spec import JobSpec
from .stages import Stage, StageContext, get_stage, stage_cache_keys

__all__ = [
    "JobOutcome",
    "BatchResult",
    "PipelineError",
    "PipelineExecutor",
    "RetryPolicy",
]


#: Set by the supervised pool inside worker processes.  When true, every
#: trace byte in a job's artifacts is about to be pickled back to the
#: parent — the ``pipeline_trace_pickle_bytes_total`` counter measures
#: exactly that, and store-backed batches assert it stays at zero.
_IN_POOL_WORKER = False


def _trace_channel_bytes(artifacts: dict) -> int:
    """Trace-array bytes that would cross the result pickle channel."""
    total = 0
    for artifact in artifacts.values():
        if isinstance(artifact, np.ndarray):
            total += artifact.nbytes
            continue
        for name in ("current", "l2_outstanding"):
            value = getattr(artifact, name, None)
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a batch tries to finish every job.

    ``max_attempts`` counts *total* attempts (1 = no retries).  The delay
    before attempt *n* is ``backoff_s * backoff_factor**(n-2)``, capped
    at ``max_backoff_s``, stretched by up to ``jitter`` of itself — the
    jitter is a pure function of (job digest, attempt), so schedules are
    reproducible run to run.  ``timeout_s`` is the per-job wall-clock
    budget; exceeding it kills the worker and requeues the job (which
    requires process isolation, so the executor promotes an inline run
    to a one-worker supervised pool when a timeout is set).
    """

    max_attempts: int = 1
    timeout_s: float | None = None
    backoff_s: float = 0.1
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecError("max_attempts must be at least 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError("timeout_s must be positive (or None)")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise SpecError("backoff durations must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise SpecError("jitter must be within [0, 1]")

    @property
    def retries_enabled(self) -> bool:
        return self.max_attempts > 1

    def delay_before(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before ``attempt`` (1-based; 0 for the first)."""
        if attempt <= 1:
            return 0.0
        base = min(
            self.backoff_s * self.backoff_factor ** (attempt - 2),
            self.max_backoff_s,
        )
        if not self.jitter:
            return base
        frac = random.Random(f"{key}:{attempt}").random()
        return base * (1.0 + self.jitter * frac)


@dataclass
class JobOutcome:
    """Everything one job produced, plus its execution telemetry."""

    spec: JobSpec
    artifacts: dict[str, object] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  # seconds/stage
    cache_hits: dict[str, bool] = field(default_factory=dict)
    elapsed: float = 0.0
    error: str | None = None
    error_kind: str | None = None  # "exception" | "timeout" | "crash"
    failed_stage: str | None = None
    attempts: int = 1
    resumed: bool = False  # satisfied by the --resume cache pre-scan
    # worker-side observability payloads, folded in by the parent
    metrics: dict | None = None
    obs_records: list = field(default_factory=list)
    pid: int = 0
    # peak RSS the resource profiler sampled while the job span was open
    # (0 when profiling is off)
    peak_rss_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def hit_count(self) -> int:
        return sum(self.cache_hits.values())

    def failure(self) -> dict | None:
        """This job's entry in the batch failure report, or ``None``."""
        if self.ok:
            return None
        lines = (self.error or "").strip().splitlines()
        return {
            "job": self.spec.label,
            "benchmark": self.spec.benchmark,
            "stage": self.failed_stage,
            "kind": self.error_kind or "exception",
            "attempts": self.attempts,
            "error": lines[-1] if lines else "",
        }


@dataclass
class BatchResult:
    """Ordered outcomes of one executor run."""

    outcomes: list[JobOutcome]
    elapsed: float
    workers: int

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(o.hit_count for o in self.outcomes)

    @property
    def stage_runs(self) -> int:
        return sum(len(o.cache_hits) for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    @property
    def resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def summary(self) -> dict:
        """The batch's headline numbers as a plain dict."""
        return {
            "jobs": len(self.outcomes),
            "errors": len(self.errors),
            "cache_hits": self.cache_hits,
            "cache_misses": self.stage_runs - self.cache_hits,
            "stage_runs": self.stage_runs,
            "retries": self.retries,
            "resumed": self.resumed,
            "wall_s": self.elapsed,
            "workers": self.workers,
        }

    def failure_report(self) -> list[dict]:
        """One structured entry per failed job (empty when all ok)."""
        return [o.failure() for o in self.errors]

    def describe_failures(self) -> str:
        """The failure report as human-readable text for the CLI."""
        if self.ok:
            return ""
        lines = [
            f"{len(self.errors)} of {len(self.outcomes)} jobs failed:"
        ]
        for f in self.failure_report():
            stage = f["stage"] or "?"
            lines.append(
                f"  {f['job']:<16} stage={stage:<12} kind={f['kind']:<9} "
                f"attempts={f['attempts']}"
            )
            if f["error"]:
                lines.append(f"    last error: {f['error']}")
        return "\n".join(lines)

    def artifact(self, benchmark: str, stage: str):
        """The first matching artifact, for quick interactive poking."""
        for o in self.outcomes:
            if o.spec.benchmark == benchmark and stage in o.artifacts:
                return o.artifacts[stage]
        raise ArtifactNotFoundError(
            f"no {stage!r} artifact for {benchmark!r}",
            benchmark=benchmark,
            stage=stage,
        )


class _StageThread:
    """One trace-only stage computed on a helper thread.

    It runs only ``stage.func(ctx)`` inside its ``stage.<name>`` span,
    hung under the job's span; every side effect of the stage (cache
    lookups and puts, the fault hook, timings, metrics) stays with the
    calling thread, at the stage's place in the chain.
    """

    def __init__(self, stage: Stage, ctx: StageContext, job_span) -> None:
        self.stage = stage
        self.unwaited = 0.0  # helper seconds the caller did not wait for
        self._seconds = 0.0  # the stage function's wall on the helper
        self._artifact = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run,
            args=(ctx, job_span),
            name=f"stage.{stage.name}",
            daemon=True,
        )
        self._thread.start()

    def _run(self, ctx: StageContext, job_span) -> None:
        t0 = time.perf_counter()
        try:
            with obs.under(job_span), obs.span(
                f"stage.{self.stage.name}", benchmark=ctx.spec.benchmark
            ):
                self._artifact = self.stage.func(ctx)
        except BaseException as exc:  # re-raised on the calling thread
            self._error = exc
        finally:
            self._seconds = time.perf_counter() - t0

    def join(self) -> None:
        self._thread.join()

    def result(self):
        """The stage's artifact, once the helper is done (or its error)."""
        t0 = time.perf_counter()
        self._thread.join()
        self.unwaited = self._seconds - (time.perf_counter() - t0)
        if self._error is not None:
            raise self._error
        return self._artifact


def _partner(
    spec: JobSpec, index: int, stage: Stage, keys, cache
) -> Stage | None:
    """The stage to compute on a helper beside stage ``index``, if any.

    Both must be trace-only, and the later one must miss the cache:
    a stage that would be a hit starts no thread.
    """
    if not stage.trace_only or index + 1 >= len(spec.stages):
        return None
    later = get_stage(spec.stages[index + 1])
    if not later.trace_only:
        return None
    if cache is not None and cache.has(keys[later.name], later.kind):
        return None
    return later


def execute_job(
    spec: JobSpec, cache: ResultCache | None = None, attempt: int = 1
) -> JobOutcome:
    """Run one job's stage chain, cache-aware, never raising.

    Per-stage wall time is recorded even for the stage that raises, so a
    failed job still reports every timing it accumulated (the partial
    telemetry matters most exactly when diagnosing the failure).
    ``attempt`` is threaded through so the fault-injection harness can
    fire on the Nth attempt and error messages carry the retry context.

    Two consecutive trace-only stages that both miss the cache (today
    ``voltage`` and ``characterize``) overlap: the later one's function
    runs on a helper thread while the earlier one runs here, so the job
    pays the longer of the two instead of their sum.  The side effects
    keep their sequential order and thread, and the helper is joined
    before the job returns.
    """
    outcome = JobOutcome(spec=spec, pid=os.getpid(), attempts=attempt)
    plan = faults.active_plan()
    snap_before = obs.registry().snapshot() if obs.ENABLED else None
    t_job = time.perf_counter()
    cache_get_s = cache_put_s = 0.0
    ahead: dict[str, _StageThread] = {}  # stage name -> its helper
    with obs.span(
        "pipeline.job", attempt=attempt, **spec.obs_attrs()
    ) as job_span:
        try:
            keys = stage_cache_keys(spec)
            ctx = StageContext(spec)
            for index, name in enumerate(spec.stages):
                stage = get_stage(name)
                t0 = time.perf_counter()
                hit = False
                helper = ahead.get(name)
                try:
                    artifact = None
                    if cache is not None:
                        t_io = time.perf_counter()
                        hit, artifact = cache.get(name, keys[name], stage.kind)
                        cache_get_s += time.perf_counter() - t_io
                    if not hit:
                        if plan is not None:
                            faults.apply_fault(
                                plan, name, spec.benchmark, attempt
                            )
                        if helper is not None:
                            artifact = helper.result()
                        else:
                            with obs.span(
                                f"stage.{name}", benchmark=spec.benchmark
                            ):
                                later = _partner(spec, index, stage, keys, cache)
                                if later is not None:
                                    # resolve (and attach) the trace once,
                                    # here, before two threads read it
                                    ctx.current_trace()
                                    ahead[later.name] = _StageThread(
                                        later, ctx, job_span
                                    )
                                artifact = stage.func(ctx)
                        if cache is not None:
                            t_io = time.perf_counter()
                            cache.put(name, keys[name], stage.kind, artifact)
                            cache_put_s += time.perf_counter() - t_io
                finally:
                    stage_s = time.perf_counter() - t0
                    if helper is not None:
                        stage_s += helper.unwaited
                    outcome.timings[name] = stage_s
                    outcome.cache_hits[name] = hit
                    if obs.ENABLED:
                        obs.histogram_observe(
                            "pipeline_stage_seconds",
                            stage_s,
                            "stage wall time including cache lookups",
                            stage=name,
                        )
                ctx.artifacts[name] = artifact
                outcome.artifacts[name] = artifact
        except Exception as exc:
            outcome.failed_stage = next(
                (
                    name
                    for name in spec.stages
                    if name not in outcome.artifacts
                ),
                None,
            )
            # Thread job identity into the chain: the traceback alone
            # does not say which of a 26-job batch it belongs to.
            outcome.error = (
                f"job {spec.label}: stage {outcome.failed_stage!r} raised "
                f"{type(exc).__name__} on attempt {attempt}\n"
                + traceback.format_exc()
            )
            outcome.error_kind = "exception"
        finally:
            # no helper outlives its job, whether the chain ended or raised
            for helper in ahead.values():
                helper.join()
            job_span.set(overlapped=",".join(ahead))
            job_span.measure(cache_get_s=cache_get_s, cache_put_s=cache_put_s)
    outcome.elapsed = time.perf_counter() - t_job
    outcome.peak_rss_bytes = int(job_span.rss_peak)
    if obs.ENABLED:
        obs.counter_inc(
            "pipeline_jobs_total",
            1,
            "job attempts executed by outcome status",
            status="ok" if outcome.ok else "error",
        )
        if _IN_POOL_WORKER:
            # before snapshot_delta, so the worker's delta ships it back
            obs.counter_inc(
                "pipeline_trace_pickle_bytes_total",
                _trace_channel_bytes(outcome.artifacts),
                "trace-array bytes pickled through the worker result "
                "channel (zero on the store path)",
            )
        outcome.metrics = obs.snapshot_delta(snap_before)
        outcome.obs_records = obs.drain_records()
    return outcome


def note_retry(spec: JobSpec, attempt: int, kind: str, delay: float) -> None:
    """Record one scheduled retry in the telemetry (shared by both the
    inline path and the supervised pool)."""
    obs.counter_inc(
        "pipeline_retries_total",
        1,
        "job retries scheduled, by failure kind",
        kind=kind,
    )
    obs.event(
        "job_retry",
        job=spec.label,
        next_attempt=attempt,
        kind=kind,
        delay_s=round(delay, 4),
    )


def _pool_context():
    """Prefer fork (cheap, shares warm process caches) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class PipelineExecutor:
    """Run batches of :class:`JobSpec` with a configurable worker pool."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | None = None,
        raise_on_error: bool = True,
        policy: RetryPolicy | None = None,
    ) -> None:
        if workers < 0:
            workers = multiprocessing.cpu_count()
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.raise_on_error = raise_on_error
        self.policy = policy or RetryPolicy()

    # -- resume ----------------------------------------------------------------

    def _fully_cached(self, spec: JobSpec, cache: ResultCache) -> bool:
        """True when every stage artifact of ``spec`` is already on disk."""
        keys = stage_cache_keys(spec)
        return all(
            cache.has(keys[name], get_stage(name).kind)
            for name in spec.stages
        )

    # -- execution -------------------------------------------------------------

    def run(self, specs, progress=None, resume: bool = False) -> BatchResult:
        """Execute ``specs``; outcomes come back in submission order.

        ``progress``, if given, is called with each :class:`JobOutcome`
        as it is collected (submission order inline, completion order
        under the supervised pool, which starts jobs in the order its
        cost plan sets, :func:`~repro.pipeline.supervisor.plan_dispatch`).
        ``resume`` pre-scans the cache and loads fully-cached jobs
        without occupying the pool.
        """
        specs = list(specs)
        t0 = time.perf_counter()
        by_index: dict[int, JobOutcome] = {}

        def collect(index: int, outcome: JobOutcome) -> None:
            # fold a pool worker's telemetry into this process exactly
            # once; inline outcomes already recorded here directly
            if outcome.pid != os.getpid():
                obs.absorb(outcome.metrics, outcome.obs_records)
            by_index[index] = outcome
            if progress is not None:
                progress(outcome)

        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        plan = faults.active_plan()
        needs_isolation = self.policy.timeout_s is not None or (
            plan is not None and plan.needs_isolation
        )
        pool_size = min(max(self.workers, 1), max(len(specs), 1))

        with obs.span(
            "pipeline.batch", jobs=len(specs), workers=pool_size
        ):
            # where worker-side root spans hang: (trace_id, batch span id)
            trace_ctx = obs.propagation_context()
            remaining = list(enumerate(specs))
            if resume and cache is not None:
                remaining = []
                for index, spec in enumerate(specs):
                    if self._fully_cached(spec, cache):
                        outcome = execute_job(spec, cache)
                        outcome.resumed = True
                        obs.counter_inc(
                            "pipeline_resumed_jobs_total",
                            1,
                            "jobs satisfied from cache by --resume",
                        )
                        collect(index, outcome)
                    else:
                        remaining.append((index, spec))
            if remaining:
                if pool_size <= 1 and not needs_isolation:
                    self._run_inline(remaining, cache, collect)
                else:
                    from .supervisor import run_supervised

                    run_supervised(
                        remaining,
                        workers=min(pool_size, len(remaining)),
                        cache_dir=self.cache_dir,
                        policy=self.policy,
                        collect=collect,
                        trace_ctx=trace_ctx,
                        profile_interval=obs.profile_interval(),
                    )
        result = BatchResult(
            outcomes=[by_index[i] for i in range(len(specs))],
            elapsed=time.perf_counter() - t0,
            workers=pool_size,
        )
        if self.raise_on_error and result.errors:
            bad = result.errors[0]
            raise PipelineError(
                f"{len(result.errors)} of {len(specs)} jobs failed; first "
                f"({bad.spec.label}):\n{bad.error}",
                failures=result.failure_report(),
            )
        return result

    def _run_inline(self, indexed_specs, cache, collect) -> None:
        """Single-process execution with the same retry semantics."""
        for index, spec in indexed_specs:
            attempt = 1
            while True:
                outcome = execute_job(spec, cache, attempt=attempt)
                if outcome.ok or attempt >= self.policy.max_attempts:
                    break
                attempt += 1
                delay = self.policy.delay_before(attempt, spec.digest())
                note_retry(spec, attempt, "exception", delay)
                if delay:
                    time.sleep(delay)
            if not outcome.ok and self.policy.retries_enabled:
                outcome.error = (
                    f"{RetryExhaustedError.__name__}: job {spec.label} "
                    f"failed on all {attempt} attempts\n{outcome.error}"
                )
            collect(index, outcome)
