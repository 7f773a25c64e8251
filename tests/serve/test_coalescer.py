"""Coalescer property and concurrency tests against a fake runner.

The coalescer only relies on ``spec.digest()`` and the outcome shape,
so a fake spec/outcome pair keeps these tests instant while the real
asyncio machinery (dispatch task, thread-offloaded runner, threadsafe
routing) runs for real.
"""

import asyncio
import random
import threading
import time

import pytest

from repro import obs
from repro.serve.coalescer import BatchCoalescer
from repro.serve.protocol import AdmissionError, DrainingError


class FakeSpec:
    """Digest-keyed stand-in for a JobSpec."""

    def __init__(self, name: str) -> None:
        self.benchmark = name
        self.stages = ("fake",)

    def digest(self) -> str:
        return f"digest-{self.benchmark}"


class FakeOutcome:
    def __init__(self, spec, ok=True, estimated=None):
        self.spec = spec
        self.ok = ok
        self.artifacts = (
            {"characterize": {"estimated": estimated}}
            if estimated is not None
            else {}
        )
        self.cache_hits = {}
        self.attempts = 1
        self.elapsed = 0.01
        self._fail = (
            None
            if ok
            else {"kind": "crash", "stage": "fake", "attempts": 1,
                  "error": f"{spec.benchmark} failed"}
        )

    def failure(self):
        return self._fail


class RecordingRunner:
    """Synchronous runner double: records every batch it executes.

    With a ``gate`` it blocks until the test sets it; ``entered`` is set
    the moment any batch reaches the runner, and ``max_jobs_running`` is
    the most jobs it ever held at once (a job is held until its outcome
    is reported).
    """

    def __init__(self, outcome_for=None, gate=None, error=None):
        self.calls: list[list] = []
        self.outcome_for = outcome_for or (lambda s: FakeOutcome(s))
        self.gate = gate
        self.error = error
        self.entered = threading.Event()
        self._lock = threading.Lock()
        self._running = 0
        self.max_jobs_running = 0

    def __call__(self, specs, progress):
        with self._lock:
            self.calls.append(list(specs))
            self._running += len(specs)
            self.max_jobs_running = max(self.max_jobs_running, self._running)
        self.entered.set()
        held = len(specs)
        try:
            if self.gate is not None:
                assert self.gate.wait(30)
            if self.error is not None:
                raise self.error
            for spec in specs:
                outcome = self.outcome_for(spec)
                with self._lock:
                    self._running -= 1
                held -= 1
                progress(outcome)
        finally:
            with self._lock:
                self._running -= held

    @property
    def total_jobs(self) -> int:
        return sum(len(call) for call in self.calls)


async def collect(sub) -> list[dict]:
    return [event async for event in sub.events()]


def batch_labels(call) -> list[str]:
    return [spec.benchmark for spec in call]


def without_phases(event: dict) -> dict:
    return {k: v for k, v in event.items() if k != "phases"}


async def turns(n: int) -> None:
    """Give the event loop ``n`` scheduling turns, with no timer."""
    for _ in range(n):
        await asyncio.sleep(0)


def run(coro, timeout: float = 30.0):
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


class TestCoalescing:
    def test_n_identical_requests_one_job_n_streams(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            spec = FakeSpec("gzip")
            subs = [
                await coalescer.submit(spec, f"req-{i}") for i in range(5)
            ]
            streams = await asyncio.gather(*(collect(s) for s in subs))
            await coalescer.drain()
            return coalescer, streams

        coalescer, streams = run(scenario())
        assert runner.total_jobs == 1  # one pipeline job for 5 requests
        assert len(streams) == 5  # ...but five full result streams
        for i, events in enumerate(streams):
            assert without_phases(events[-1]) == {
                "type": "done", "ok": True, "request_id": f"req-{i}",
            }
            result = next(e for e in events if e["type"] == "result")
            assert result["benchmark"] == "gzip"
            assert result["request_id"] == f"req-{i}"
        assert coalescer.stats["submitted"] == 5
        assert coalescer.stats["coalesced"] == 4
        assert coalescer.stats["dispatched_jobs"] == 1

    def test_distinct_requests_never_cross_deliver(self):
        runner = RecordingRunner(
            outcome_for=lambda s: FakeOutcome(
                s, estimated=float(len(s.benchmark))
            )
        )

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            names = ["gzip", "mcf", "art", "gcc", "vpr", "twolf"]
            subs = {
                name: await coalescer.submit(FakeSpec(name), f"req-{name}")
                for name in names
            }
            streams = {
                name: await collect(sub) for name, sub in subs.items()
            }
            await coalescer.drain()
            return streams

        streams = run(scenario())
        for name, events in streams.items():
            result = next(e for e in events if e["type"] == "result")
            # each stream carries exactly its own job's result
            assert result["benchmark"] == name
            assert result["estimated"] == float(len(name))
            assert result["request_id"] == f"req-{name}"
            assert all(
                e.get("request_id") == f"req-{name}" for e in events
            )

    def test_interleaved_duplicates_coalesce_across_batches(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)

        async def scenario():
            coalescer = BatchCoalescer(runner, max_batch=1).start()
            sub_a = await coalescer.submit(FakeSpec("gzip"), "a")
            # wait until the job is in flight, then subscribe again:
            # the duplicate must piggyback, not start a second job
            for _ in range(1000):
                if coalescer.stats["batches"]:
                    break
                await asyncio.sleep(0.005)
            sub_b = await coalescer.submit(FakeSpec("gzip"), "b")
            gate.set()
            events_a, events_b = await asyncio.gather(
                collect(sub_a), collect(sub_b)
            )
            await coalescer.drain()
            return events_a, events_b

        events_a, events_b = run(scenario())
        assert runner.total_jobs == 1
        assert events_a[-1]["ok"] and events_b[-1]["ok"]
        states_b = [e.get("state") for e in events_b if e["type"] == "status"]
        assert "coalesced" in states_b

    def test_same_turn_arrivals_share_one_batch(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(runner, max_batch=8).start()
            subs = [
                await coalescer.submit(FakeSpec(f"b{i}"), f"req-{i}")
                for i in range(4)
            ]
            await asyncio.gather(*(collect(s) for s in subs))
            await coalescer.drain()

        run(scenario())
        assert runner.total_jobs == 4
        assert len(runner.calls) == 1  # one batch, four jobs


class TestWorkConservingDispatch:
    def test_lone_request_reaches_the_runner_without_a_timer(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            sub = await coalescer.submit(FakeSpec("gzip"), "r1")
            # an idle coalescer hands the job over within a few loop
            # turns: no window, no sleep with a delay
            await turns(3)
            dispatched = coalescer.stats["batches"]
            entered = await asyncio.to_thread(runner.entered.wait, 30)
            events = await collect(sub)
            await coalescer.drain()
            return dispatched, entered, events

        dispatched, entered, events = run(scenario())
        assert dispatched == 1
        assert entered
        states = [e["state"] for e in events if e["type"] == "status"]
        assert states == ["queued", "dispatched"]
        assert runner.calls and batch_labels(runner.calls[0]) == ["gzip"]

    def test_busy_worker_batches_arrivals_once_it_frees(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)

        async def scenario():
            coalescer = BatchCoalescer(runner, workers=1, max_batch=3).start()
            first = await coalescer.submit(FakeSpec("a"), "ra")
            assert await asyncio.to_thread(runner.entered.wait, 30)
            # the one worker is busy: distinct arrivals must wait...
            later = [
                await coalescer.submit(FakeSpec(name), f"r{name}")
                for name in ("b", "c", "d", "e")
            ]
            await turns(10)
            held = (len(runner.calls), coalescer.stats["batches"])
            gate.set()
            streams = await asyncio.gather(
                collect(first), *(collect(sub) for sub in later)
            )
            await coalescer.drain()
            return held, streams

        held, streams = run(scenario())
        # ...no second batch while the first job was in flight
        assert held == (1, 1)
        # then they go out together, capped at max_batch
        assert [batch_labels(c) for c in runner.calls] == [
            ["a"], ["b", "c", "d"], ["e"],
        ]
        assert runner.max_jobs_running == 3
        sizes = {
            events[0]["request_id"]: next(
                e["batch_size"] for e in events
                if e.get("state") == "dispatched"
            )
            for events in streams
        }
        assert sizes == {"ra": 1, "rb": 3, "rc": 3, "rd": 3, "re": 1}
        assert all(events[-1]["ok"] for events in streams)

    def test_spare_workers_dispatch_at_once_then_hold(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)

        async def scenario():
            coalescer = BatchCoalescer(runner, workers=2).start()
            subs = [await coalescer.submit(FakeSpec("a"), "ra")]
            await turns(3)
            # one of two workers busy: the next arrival goes straight out
            subs.append(await coalescer.submit(FakeSpec("b"), "rb"))
            await turns(3)
            subs += [
                await coalescer.submit(FakeSpec(name), f"r{name}")
                for name in ("c", "d")
            ]
            await turns(10)
            held = coalescer.stats["batches"]
            gate.set()
            await asyncio.gather(*(collect(sub) for sub in subs))
            await coalescer.drain()
            return held

        held = run(scenario())
        assert held == 2  # both workers busy: c and d held back
        assert [batch_labels(c) for c in runner.calls] == [["a"], ["b"], ["c", "d"]]
        assert runner.max_jobs_running <= 2


class TestAdmission:
    def test_bounded_admission_rejects_past_max_pending(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)

        async def scenario():
            # a blocked runner keeps both jobs queued or in flight
            coalescer = BatchCoalescer(runner, max_pending=2).start()
            sub_a = await coalescer.submit(FakeSpec("a"), "ra")
            sub_b = await coalescer.submit(FakeSpec("b"), "rb")
            with pytest.raises(AdmissionError) as excinfo:
                await coalescer.submit(FakeSpec("c"), "rc")
            # duplicates of queued jobs are still free (no new job)
            dup = await coalescer.submit(FakeSpec("a"), "ra2")
            gate.set()
            await coalescer.drain()
            await asyncio.gather(
                collect(sub_a), collect(sub_b), collect(dup)
            )
            return coalescer, excinfo.value

        coalescer, error = run(scenario())
        assert error.details["queue_depth"] == 2
        assert coalescer.stats["rejected_admission"] == 1
        assert runner.total_jobs == 2

    def test_draining_rejects_new_submits(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            sub = await coalescer.submit(FakeSpec("a"), "ra")
            events = await collect(sub)
            await coalescer.drain()
            with pytest.raises(DrainingError):
                await coalescer.submit(FakeSpec("b"), "rb")
            return events

        events = run(scenario())
        assert events[-1]["ok"] is True

    def test_drain_flushes_pending_work(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            busy = await coalescer.submit(FakeSpec("a"), "ra")
            assert await asyncio.to_thread(runner.entered.wait, 30)
            # the worker is busy, so "b" is still pending when the
            # drain begins: only a flush can run it
            sub = await coalescer.submit(FakeSpec("b"), "rb")
            drain_task = asyncio.create_task(coalescer.drain())
            await turns(10)
            assert not drain_task.done()
            assert coalescer.depth == 2
            gate.set()
            events = await collect(sub)
            await collect(busy)
            await drain_task
            return events

        events = run(scenario())
        assert [batch_labels(c) for c in runner.calls] == [["a"], ["b"]]
        assert without_phases(events[-1]) == {"type": "done", "ok": True,
                                              "request_id": "rb"}


class TestCacheFastPath:
    def test_fastpath_skips_the_runner(self):
        runner = RecordingRunner()
        hits = []

        def try_cache(spec):
            hits.append(spec.benchmark)
            return FakeOutcome(spec, estimated=0.5)

        async def scenario():
            coalescer = BatchCoalescer(
                runner, try_cache=try_cache
            ).start()
            sub = await coalescer.submit(FakeSpec("gzip"), "r1")
            events = await collect(sub)
            await coalescer.drain()
            return coalescer, events

        coalescer, events = run(scenario())
        assert runner.calls == []  # zero dispatches
        assert hits == ["gzip"]
        assert [e["type"] for e in events] == ["status", "result", "done"]
        assert events[0]["state"] == "cached"
        assert coalescer.stats["cache_fastpath"] == 1
        assert coalescer.stats["dispatched_jobs"] == 0

    def test_cache_miss_falls_through_to_runner(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(
                runner, try_cache=lambda spec: None
            ).start()
            sub = await coalescer.submit(FakeSpec("gzip"), "r1")
            events = await collect(sub)
            await coalescer.drain()
            return events

        events = run(scenario())
        assert runner.total_jobs == 1
        assert events[-1]["ok"] is True


class TestFailureDelivery:
    def test_job_error_reaches_every_subscriber(self):
        runner = RecordingRunner(
            outcome_for=lambda s: FakeOutcome(s, ok=False)
        )

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            spec = FakeSpec("gzip")
            subs = [
                await coalescer.submit(spec, f"r{i}") for i in range(3)
            ]
            streams = await asyncio.gather(*(collect(s) for s in subs))
            await coalescer.drain()
            return coalescer, streams

        coalescer, streams = run(scenario())
        for events in streams:
            error = next(e for e in events if e["type"] == "error")
            assert error["kind"] == "crash"
            assert events[-1]["ok"] is False
        assert coalescer.stats["job_errors"] == 1

    def test_runner_exception_fails_all_streams(self):
        runner = RecordingRunner(error=RuntimeError("pool exploded"))

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            sub_a = await coalescer.submit(FakeSpec("a"), "ra")
            sub_b = await coalescer.submit(FakeSpec("b"), "rb")
            streams = await asyncio.gather(collect(sub_a), collect(sub_b))
            await coalescer.drain()
            return streams

        streams = run(scenario())
        for events in streams:
            error = next(e for e in events if e["type"] == "error")
            assert error["kind"] == "internal"
            assert "pool exploded" in error["message"]
            assert without_phases(events[-1]) == {
                "type": "done", "ok": False,
                "request_id": events[-1]["request_id"],
            }


class TestRequestPhases:
    def test_done_splits_queue_from_compute(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        hold = 0.05

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            first = await coalescer.submit(FakeSpec("a"), "ra")
            assert await asyncio.to_thread(runner.entered.wait, 30)
            waiting = await coalescer.submit(FakeSpec("b"), "rb")
            joined = await coalescer.submit(FakeSpec("a"), "ra2")
            await asyncio.sleep(hold)
            gate.set()
            streams = await asyncio.gather(
                collect(first), collect(waiting), collect(joined)
            )
            await coalescer.drain()
            return [events[-1]["phases"] for events in streams]

        first, waiting, joined = run(scenario())
        for phases in (first, waiting, joined):
            assert set(phases) == {"queue_s", "compute_s"}
            assert min(phases.values()) >= 0.0
        # dispatched at once, then held by the blocked runner
        assert first["queue_s"] < hold <= first["compute_s"]
        # queued behind the busy worker the whole time
        assert waiting["queue_s"] >= hold
        # joined a job already running: nothing to queue for
        assert joined["queue_s"] == 0.0
        assert joined["compute_s"] >= hold

    def test_fast_path_request_never_queues(self):
        runner = RecordingRunner()

        async def scenario():
            coalescer = BatchCoalescer(
                runner, try_cache=lambda spec: FakeOutcome(spec)
            ).start()
            events = await collect(await coalescer.submit(FakeSpec("a"), "r"))
            await coalescer.drain()
            return events[-1]["phases"]

        phases = run(scenario())
        assert phases["queue_s"] == 0.0
        assert phases["compute_s"] >= 0.0

    def test_phases_feed_the_histogram(self):
        runner = RecordingRunner(outcome_for=lambda s: FakeOutcome(s, ok=False))

        async def scenario():
            coalescer = BatchCoalescer(runner).start()
            subs = [
                await coalescer.submit(FakeSpec(name), f"r{name}")
                for name in ("a", "b", "a")
            ]
            await asyncio.gather(*(collect(sub) for sub in subs))
            await coalescer.drain()

        obs.enable("summary")
        try:
            run(scenario())
            text = obs.registry().to_prometheus()
        finally:
            obs.disable()
        # one observation per request and phase, failed requests included
        for phase in ("queue", "compute"):
            assert (
                f'repro_serve_request_phase_seconds_count{{phase="{phase}"}} 3'
                in text
            )


class TestDispatchStress:
    def test_random_arrivals_each_get_exactly_their_own_result(self):
        rng, delays = random.Random(16), random.Random(17)
        workers, max_batch = 2, 4

        def outcome_for(spec):
            time.sleep(delays.random() * 0.002)
            return FakeOutcome(spec, estimated=float(spec.benchmark[1:]))

        runner = RecordingRunner(outcome_for=outcome_for)
        arrivals = [f"j{rng.randrange(40)}" for _ in range(120)]

        async def scenario():
            coalescer = BatchCoalescer(
                runner, workers=workers, max_batch=max_batch, max_pending=64
            ).start()
            subs = []
            for i, name in enumerate(arrivals):
                subs.append(await coalescer.submit(FakeSpec(name), f"r{i}"))
                if rng.random() < 0.3:
                    await asyncio.sleep(rng.random() * 0.002)
            streams = await asyncio.gather(*(collect(sub) for sub in subs))
            await coalescer.drain()
            return coalescer, streams

        coalescer, streams = run(scenario())
        for i, (name, events) in enumerate(zip(arrivals, streams)):
            results = [e for e in events if e["type"] == "result"]
            assert len(results) == 1
            assert results[0]["estimated"] == float(name[1:])
            assert events[-1]["request_id"] == f"r{i}" and events[-1]["ok"]
        assert coalescer.depth == 0
        # a batch leaves only while a worker is free
        assert runner.max_jobs_running <= workers - 1 + max_batch
        assert all(len(call) <= max_batch for call in runner.calls)
        assert runner.total_jobs == coalescer.stats["dispatched_jobs"]
