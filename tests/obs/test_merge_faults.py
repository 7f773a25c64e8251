"""Cross-process metric merge under fault paths (no double-counting).

Worker telemetry travels back on each :class:`JobOutcome` as a registry
delta plus captured records; the supervisor absorbs it exactly once —
including for retried attempts, whose stale results are folded in at the
supervisor and then nulled so ``collect()`` cannot absorb them again.
These tests pin the exact counter values after injected faults, so any
double-count (or drop) fails loudly.
"""

import pytest

from repro import obs
from repro.obs import trace
from repro.pipeline import BatchOptions, JobSpec, RetryPolicy, submit
from repro.pipeline import faults
from repro.pipeline.stages import register_stage

FAST = 0.02
# generous: under a loaded machine (the full suite) a worker respawn plus
# a retry dispatch can eat seconds, and a tight budget turns scheduling
# delay into a spurious timeout that changes the counters under test
TIMEOUT_S = 10.0


@register_stage("t-merge", fields=("benchmark",))
def _stage_t_merge(ctx):
    return {"bench": ctx.spec.benchmark}


@register_stage("t-merge-slow", fields=("benchmark",))
def _stage_t_merge_slow(ctx):
    # long enough for a 10 ms profiler to tick several times inside the
    # worker's pipeline.job span
    import time

    time.sleep(0.08)
    return {"bench": ctx.spec.benchmark}


def specs_for(*names):
    return [JobSpec(name, stages=("t-merge",)) for name in names]


@pytest.fixture
def plan(monkeypatch):
    def activate(text):
        monkeypatch.setenv(faults.ENV_VAR, text)
        return text

    yield activate


@pytest.fixture
def enabled():
    obs.enable("summary")
    yield
    obs.disable()


class TestAbsorb:
    """The merge primitive itself, exercised with hand-built deltas."""

    def _delta_with(self, build):
        """Run ``build`` against a scratch registry, return its snapshot
        diffed against empty (i.e. exactly what a worker would ship)."""
        from repro.obs.registry import MetricsRegistry, diff_snapshots

        scratch = MetricsRegistry()
        build(scratch)
        return diff_snapshots(MetricsRegistry().snapshot(), scratch.snapshot())

    def test_counters_add(self, enabled):
        reg = trace.registry()
        reg.counter("pipeline_jobs_total", "").inc(1, status="ok")
        delta = self._delta_with(
            lambda r: r.counter("pipeline_jobs_total", "").inc(2, status="ok")
        )
        trace.absorb(delta, None)
        assert reg.counter("pipeline_jobs_total").value(status="ok") == 3

    def test_job_peak_rss_merges_max_wise(self, enabled):
        reg = trace.registry()
        gauge = reg.gauge("job_peak_rss_bytes", "")
        gauge.set(500.0, job="mcf")
        # a cheaper retry reporting a lower peak must not lower it ...
        low = self._delta_with(
            lambda r: r.gauge("job_peak_rss_bytes", "").set(100.0, job="mcf")
        )
        trace.absorb(low, None)
        assert gauge.value(job="mcf") == 500.0
        # ... but a higher peak wins
        high = self._delta_with(
            lambda r: r.gauge("job_peak_rss_bytes", "").set(900.0, job="mcf")
        )
        trace.absorb(high, None)
        assert gauge.value(job="mcf") == 900.0

    def test_other_gauges_stay_last_writer_wins(self, enabled):
        reg = trace.registry()
        reg.gauge("process_rss_bytes", "").set(500.0)
        delta = self._delta_with(
            lambda r: r.gauge("process_rss_bytes", "").set(100.0)
        )
        trace.absorb(delta, None)
        assert reg.gauge("process_rss_bytes", "").value() == 100.0

    def test_absorbed_records_reach_subscribers(self, enabled):
        captured = []
        trace.add_subscriber(captured.append)
        try:
            trace.absorb(None, [{"type": "event", "name": "from-worker"}])
        finally:
            trace.remove_subscriber(captured.append)
        assert [r["name"] for r in captured] == ["from-worker"]

    def test_absorb_is_a_noop_when_disabled(self):
        obs.disable()
        trace.absorb(
            {"x_total": {"kind": "counter", "help": "", "series": {(): 5.0}}},
            [{"type": "event", "name": "late"}],
        )  # must not raise, must not resurrect state


class TestInlineFaultCounters:
    """Single-process path: attempt counters must match the fault plan."""

    def test_raise_then_retry_counts_each_attempt_once(self, plan, enabled):
        plan("t-merge@gzip:raise:1")
        batch = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(policy=RetryPolicy(max_attempts=2, backoff_s=FAST)),
        )
        assert batch.ok
        reg = trace.registry()
        jobs = reg.counter("pipeline_jobs_total")
        assert jobs.value(status="ok") == 2  # one per job, retries converge
        assert jobs.value(status="error") == 1  # exactly the injected raise
        assert reg.counter("pipeline_retries_total").value(
            kind="exception"
        ) == 1


class TestPoolFaultMerge:
    """Pool path: killed workers and requeues must not double-count."""

    def test_kill_and_requeue_counts_jobs_exactly_once(self, plan, enabled):
        plan("t-merge@gzip:kill:1")
        batch = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(
                jobs=2,
                policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
            ),
        )
        assert batch.ok
        reg = trace.registry()
        jobs = reg.counter("pipeline_jobs_total")
        # the killed attempt died before reporting; the requeued attempt
        # and the bystander each count exactly once
        assert jobs.value(status="ok") == 2
        assert jobs.value(status="error") == 0
        assert reg.counter("pipeline_retries_total").value(kind="crash") == 1
        assert reg.counter("pipeline_requeues_total").value(kind="crash") == 1
        assert reg.counter("pipeline_worker_crashes_total").value() == 1
        # worker-side pipeline.job spans merged back exactly once each
        assert trace.registry().counter("spans_total").value(
            name="pipeline.job"
        ) == 2

    def test_mixed_fault_batch_counters_are_exact(self, plan, enabled):
        # ci-plan grammar: one raise, one hang-kill, one worker kill
        plan(
            "t-merge@gzip:raise:1,"
            "t-merge@mcf:hang(300):1,"
            "t-merge@vpr:kill:1"
        )
        names = ("gzip", "mcf", "vpr", "gcc")
        batch = submit(
            specs_for(*names),
            BatchOptions(
                jobs=2,
                policy=RetryPolicy(
                    max_attempts=3, timeout_s=TIMEOUT_S, backoff_s=FAST
                ),
            ),
        )
        assert batch.ok
        assert batch.retries == 3
        reg = trace.registry()
        jobs = reg.counter("pipeline_jobs_total")
        # 4 jobs eventually succeed; only the raise produced a reported
        # failed attempt (hang and kill attempts die unreported)
        assert jobs.value(status="ok") == 4
        assert jobs.value(status="error") == 1
        retries = reg.counter("pipeline_retries_total")
        assert retries.value(kind="exception") == 1
        assert retries.value(kind="timeout") == 1
        assert retries.value(kind="crash") == 1
        requeues = reg.counter("pipeline_requeues_total")
        assert sum(
            requeues.value(kind=kind)
            for kind in ("exception", "timeout", "crash")
        ) == 3

    def test_peak_rss_survives_the_boundary(self, plan, enabled):
        batch = submit(specs_for("gzip"), BatchOptions(jobs=1))
        (outcome,) = batch.outcomes
        assert outcome.ok
        # the job span's sampled peak rides back on the outcome; with no
        # profiler running it stays 0 but must exist and be an int
        assert isinstance(outcome.peak_rss_bytes, int)

    def test_profiled_pool_run_reports_job_peaks(self, plan):
        obs.enable("summary", profile_interval=0.01)
        try:
            specs = [
                JobSpec(name, stages=("t-merge-slow",))
                for name in ("gzip", "mcf")
            ]
            batch = submit(specs, BatchOptions(jobs=2))
            assert batch.ok
            gauge = trace.registry().gauge("job_peak_rss_bytes", "")
            for outcome in batch.outcomes:
                job = outcome.spec.benchmark
                peak = gauge.value(job=job)
                assert peak is not None and peak > 0, job
                assert outcome.peak_rss_bytes > 0, job
        finally:
            obs.disable()
