"""Request→batch coalescing between the asyncio front-end and the pool.

The server's unit of work is a :class:`~repro.pipeline.JobSpec`, whose
content digest is a complete description of the computation.  That
digest is the coalescing key:

* a request whose digest is already **pending** (waiting for the next
  batch) or **in flight** (dispatched to the pool) subscribes to the
  existing entry — N concurrent identical requests cost exactly one
  pipeline job and produce N result streams;
* dispatch is work-conserving: pending jobs go to ``submit`` at once
  while fewer than ``workers`` jobs are in flight.  While every worker
  is busy, distinct digests accumulate and go out as **one** batch (up
  to ``max_batch``) the moment a worker frees, so a burst of arrivals
  pays one pool round-trip, one ``pipeline.batch`` span, one cache
  scan per stage — and an idle server never makes a request wait.

The bridge to the (synchronous, multiprocessing) executor is a
dedicated thread per dispatch via ``asyncio.to_thread``; outcomes hop
back onto the loop with ``call_soon_threadsafe`` as each job completes,
so subscribers of a fast job in a slow batch are not held hostage by
the stragglers.

Admission control is a hard bound on queued + in-flight *jobs* (not
subscribers — coalesced duplicates are free): past ``max_pending`` a
submit raises :class:`~repro.serve.protocol.AdmissionError`, which the
server turns into an explicit 503 instead of an unbounded queue.
``drain()`` flips the coalescer into shutdown: new submits raise
:class:`~repro.serve.protocol.DrainingError`, pending work still
dispatches, and the call returns once the last in-flight batch has
delivered every event — the graceful-drain half of SIGTERM handling.

Every stream ends with a ``done`` event whose ``phases`` split the
request's own time on the monotonic clock: ``queue_s`` from admission
to dispatch, ``compute_s`` from dispatch to the outcome (both also
observed into ``serve_request_phase_seconds{phase}``).

A ``try_cache`` hook short-circuits all of it: a request whose every
stage artifact is already in the content-addressed cache is answered
directly (one thread hop to read the files), never touching the pending
queue or the pool — the cache-hit fast path the service's tail latency
is built on.
"""

from __future__ import annotations

import asyncio
import time

from ..obs import trace as obs
from .protocol import AdmissionError, DrainingError

__all__ = ["BatchCoalescer", "Subscription"]

#: Terminal event types — a subscription stream ends after one of these.
_TERMINAL = ("done",)


class Subscription:
    """One request's private event stream (an asyncio queue of dicts)."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.queue: asyncio.Queue = asyncio.Queue()
        self.t_admit = time.monotonic()

    def push(self, event: dict) -> None:
        payload = dict(event)
        payload["request_id"] = self.request_id
        self.queue.put_nowait(payload)

    async def events(self):
        """Yield events until (and including) the terminal ``done``."""
        while True:
            event = await self.queue.get()
            yield event
            if event["type"] in _TERMINAL:
                return


class _Entry:
    """One unique job (digest) and everybody waiting on it."""

    __slots__ = ("spec", "digest", "subs", "t_dispatch")

    def __init__(self, spec, digest: str) -> None:
        self.spec = spec
        self.digest = digest
        self.subs: list[Subscription] = []
        self.t_dispatch: float | None = None

    def push(self, event: dict) -> None:
        for sub in self.subs:
            sub.push(event)


class BatchCoalescer:
    """Coalesce identical requests and batch distinct ones to a runner.

    ``runner(specs, progress)`` executes a list of specs synchronously
    (the server passes a :func:`repro.pipeline.submit` closure) and
    calls ``progress(outcome)`` as each job completes.  ``try_cache``,
    if given, maps a spec to a finished outcome when every stage is
    already cached (or returns ``None``).  Both run off-loop in worker
    threads.  ``workers`` is the runner's capacity in jobs: no batch is
    dispatched while that many jobs are in flight.
    """

    def __init__(
        self,
        runner,
        *,
        try_cache=None,
        workers: int = 1,
        max_batch: int = 8,
        max_pending: int = 32,
    ) -> None:
        self.runner = runner
        self.try_cache = try_cache
        self.workers = max(1, int(workers))
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self._pending: dict[str, _Entry] = {}
        self._inflight: dict[str, _Entry] = {}
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._task: asyncio.Task | None = None
        self._batches: set[asyncio.Task] = set()  # the loop holds tasks weakly
        self.stats = {
            "submitted": 0,
            "coalesced": 0,
            "cache_fastpath": 0,
            "dispatched_jobs": 0,
            "batches": 0,
            "job_errors": 0,
            "rejected_admission": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "BatchCoalescer":
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-serve-coalescer"
            )
        return self

    async def drain(self) -> None:
        """Refuse new work, flush pending + in-flight, stop the loop."""
        self._draining = True
        await self._idle.wait()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Unique jobs queued or in flight (the admission meter)."""
        return len(self._pending) + len(self._inflight)

    # -- submission ------------------------------------------------------------

    async def submit(self, spec, request_id: str) -> Subscription:
        """Admit one request; returns its private event stream.

        Raises :class:`DrainingError` after :meth:`drain` began and
        :class:`AdmissionError` when the bounded queue is full.
        """
        if self._draining:
            raise DrainingError(
                "server is draining; retry against another instance"
            )
        self.stats["submitted"] += 1
        sub = Subscription(request_id)

        if self.try_cache is not None:
            outcome = await asyncio.to_thread(self.try_cache, spec)
            if outcome is not None:
                self.stats["cache_fastpath"] += 1
                obs.counter_inc(
                    "serve_cache_fastpath_total",
                    1,
                    "requests answered from the cache without a dispatch",
                )
                sub.push({"type": "status", "state": "cached"})
                self._finish(sub, outcome)
                return sub

        digest = spec.digest()
        entry = self._pending.get(digest) or self._inflight.get(digest)
        if entry is not None:
            # identical computation already queued or running: piggyback
            self.stats["coalesced"] += 1
            obs.counter_inc(
                "serve_coalesced_total",
                1,
                "requests coalesced onto an identical queued/running job",
            )
            entry.subs.append(sub)
            sub.push(
                {
                    "type": "status",
                    "state": "coalesced",
                    "digest": digest,
                    "subscribers": len(entry.subs),
                }
            )
            return sub

        if self.depth >= self.max_pending:
            self.stats["rejected_admission"] += 1
            obs.counter_inc(
                "serve_rejected_total",
                1,
                "requests rejected before execution, by reason",
                reason="admission",
            )
            raise AdmissionError(
                f"admission queue full ({self.depth} jobs >= "
                f"{self.max_pending}); retry later",
                queue_depth=self.depth,
            )

        entry = _Entry(spec, digest)
        entry.subs.append(sub)
        self._pending[digest] = entry
        self._idle.clear()
        self._work.set()
        sub.push(
            {
                "type": "status",
                "state": "queued",
                "digest": digest,
                "queue_depth": self.depth,
            }
        )
        return sub

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work.wait()
            self._work.clear()
            while self._pending and len(self._inflight) < self.workers:
                self._dispatch(list(self._pending.values())[: self.max_batch])
            if not self._pending and not self._inflight:
                self._idle.set()

    def _dispatch(self, batch: list[_Entry]) -> None:
        now = time.monotonic()
        for entry in batch:
            del self._pending[entry.digest]
            self._inflight[entry.digest] = entry
            entry.t_dispatch = now
            entry.push(
                {
                    "type": "status",
                    "state": "dispatched",
                    "digest": entry.digest,
                    "batch_size": len(batch),
                }
            )
        task = asyncio.get_running_loop().create_task(
            self._run_batch(batch), name="repro-serve-batch"
        )
        self._batches.add(task)
        task.add_done_callback(self._batches.discard)

    async def _run_batch(self, batch: list[_Entry]) -> None:
        loop = asyncio.get_running_loop()
        specs = [entry.spec for entry in batch]
        by_digest = {entry.digest: entry for entry in batch}
        self.stats["batches"] += 1
        self.stats["dispatched_jobs"] += len(specs)
        obs.counter_inc(
            "serve_dispatched_jobs_total",
            len(specs),
            "unique jobs dispatched to the pipeline",
        )

        def progress(outcome) -> None:
            # runs in the dispatch thread: hop back onto the loop
            loop.call_soon_threadsafe(self._route, by_digest, outcome)

        def run():
            with obs.span(
                "serve.batch",
                jobs=len(specs),
                requests=sum(len(e.subs) for e in batch),
            ):
                return self.runner(specs, progress)

        message = "job produced no outcome"
        try:
            await asyncio.to_thread(run)
        except Exception as exc:  # the runner itself blew up
            message = f"{type(exc).__name__}: {exc}"
        # anything progress() never delivered fails loudly instead of
        # hanging the stream (a runner that returns reports every job)
        for entry in by_digest.values():
            self._inflight.pop(entry.digest, None)
            for sub in entry.subs:
                sub.push(
                    {
                        "type": "error",
                        "ok": False,
                        "kind": "internal",
                        "stage": None,
                        "message": message,
                    }
                )
                self._done(sub, False, entry.t_dispatch)
        self._work.set()

    def _route(self, by_digest: dict, outcome) -> None:
        """Deliver one finished job to exactly its own subscribers."""
        entry = by_digest.pop(outcome.spec.digest(), None)
        if entry is None:
            return  # late duplicate (e.g. a stale retry attempt)
        self._inflight.pop(entry.digest, None)
        self._work.set()  # a worker is free
        if not outcome.ok:
            self.stats["job_errors"] += 1
        for sub in entry.subs:
            self._finish(sub, outcome, entry.t_dispatch)

    def _finish(self, sub: Subscription, outcome, t_dispatch=None) -> None:
        from .protocol import error_event, result_event

        if outcome.ok:
            sub.push(result_event(sub.request_id, outcome))
        else:
            sub.push(error_event(sub.request_id, outcome))
        self._done(sub, outcome.ok, t_dispatch)

    def _done(self, sub: Subscription, ok: bool, t_dispatch) -> None:
        """End ``sub``'s stream with its own queue/compute phases.

        A request that joined a job already running (or took the cache
        fast path, ``t_dispatch`` None) queued for no time at all.
        """
        begin = max(sub.t_admit, t_dispatch or 0.0)
        queue_s = begin - sub.t_admit
        compute_s = time.monotonic() - begin
        for phase, seconds in (("queue", queue_s), ("compute", compute_s)):
            obs.histogram_observe(
                "serve_request_phase_seconds",
                seconds,
                "per-request time from admission to dispatch (queue) "
                "and from dispatch to the outcome (compute)",
                phase=phase,
            )
        sub.push(
            {
                "type": "done",
                "ok": ok,
                "phases": {"queue_s": queue_s, "compute_s": compute_s},
            }
        )
