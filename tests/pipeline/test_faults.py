"""Fault tolerance, exercised deterministically via the injection harness.

A trivially cheap stage keeps these tests fast: the interesting work is
all in the executor/supervisor recovery paths, not in the stage itself.
"""

import pytest

from repro.errors import (
    PipelineError,
    RetryExhaustedError,
    SpecError,
    StageTimeoutError,
    WorkerCrashError,
)
from repro.pipeline import (
    BatchOptions,
    JobSpec,
    RetryPolicy,
    parse_plan,
    submit,
)
from repro.pipeline import faults
from repro.pipeline.stages import register_stage

FAST = 0.02  # backoff base small enough that retries cost nothing


@register_stage("t-fault", fields=("benchmark",))
def _stage_t_fault(ctx):
    return {"bench": ctx.spec.benchmark}


def specs_for(*names):
    return [JobSpec(name, stages=("t-fault",)) for name in names]


@pytest.fixture
def plan(monkeypatch):
    """Set the fault plan for this test (parent and forked workers)."""

    def activate(text):
        monkeypatch.setenv(faults.ENV_VAR, text)
        return text

    yield activate


class TestPlanParsing:
    def test_minimal_directive(self):
        p = parse_plan("simulate:raise")
        (d,) = p.directives
        assert d.stage == "simulate"
        assert d.benchmark is None
        assert d.action == "raise"
        assert (d.first_attempt, d.last_attempt) == (1, 1)

    def test_benchmark_scope_and_attempt_range(self):
        (d,) = parse_plan("simulate@gzip:raise:1-2").directives
        assert d.benchmark == "gzip"
        assert (d.first_attempt, d.last_attempt) == (1, 2)

    def test_star_matches_every_attempt(self):
        (d,) = parse_plan("voltage:kill:*").directives
        assert d.matches("voltage", "anything", 999)

    def test_hang_duration(self):
        (d,) = parse_plan("voltage@mcf:hang(2.5):1").directives
        assert d.action == "hang"
        assert d.hang_s == 2.5

    def test_hang_defaults_loud(self):
        (d,) = parse_plan("voltage:hang").directives
        assert d.hang_s == faults.DEFAULT_HANG_S

    def test_named_plan_expands(self):
        p = parse_plan("ci-plan")
        actions = sorted(d.action for d in p.directives)
        assert actions == ["hang", "kill", "raise"]
        assert p.needs_isolation

    def test_needs_isolation_only_for_hang_or_kill(self):
        assert not parse_plan("simulate:raise").needs_isolation
        assert parse_plan("simulate:hang").needs_isolation
        assert parse_plan("simulate:kill").needs_isolation

    @pytest.mark.parametrize(
        "bad",
        [
            "simulate",  # no action
            "simulate:explode",  # unknown action
            "simulate:raise(3)",  # duration on non-hang
            "simulate:raise:0",  # attempts below 1
            "simulate:raise:3-2",  # inverted range
            "",  # no directives at all
            ",,",
        ],
    )
    def test_bad_plans_rejected(self, bad):
        with pytest.raises(SpecError):
            parse_plan(bad)

    def test_spec_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_plan("simulate:explode")

    def test_directive_for_first_match_wins(self):
        p = parse_plan("t-fault@gzip:raise,t-fault:kill:*")
        assert p.directive_for("t-fault", "gzip", 1).action == "raise"
        assert p.directive_for("t-fault", "mcf", 1).action == "kill"
        assert p.directive_for("other", "gzip", 1) is None


class TestInlineRetry:
    def test_transient_raise_retried_to_success(self, plan):
        plan("t-fault@gzip:raise:1-2")
        batch = submit(
            specs_for("gzip"),
            BatchOptions(policy=RetryPolicy(max_attempts=3, backoff_s=FAST)),
        )
        (o,) = batch.outcomes
        assert o.ok
        assert o.attempts == 3
        assert batch.retries == 2
        assert batch.summary()["retries"] == 2

    def test_no_retries_without_budget(self, plan):
        plan("t-fault@gzip:raise:1")
        batch = submit(specs_for("gzip"), BatchOptions(raise_on_error=False))
        (o,) = batch.outcomes
        assert not o.ok
        assert o.attempts == 1
        assert "InjectedFaultError" in o.error

    def test_exhausted_budget_degrades_gracefully(self, plan):
        plan("t-fault@gzip:raise:*")
        batch = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(
                raise_on_error=False,
                policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
            ),
        )
        assert not batch.ok
        assert batch.outcomes[1].ok  # mcf untouched by the gzip fault
        (f,) = batch.failure_report()
        assert f["job"] == batch.outcomes[0].spec.label
        assert f["stage"] == "t-fault"
        assert f["kind"] == "exception"
        assert f["attempts"] == 2
        assert RetryExhaustedError.__name__ in batch.outcomes[0].error
        text = batch.describe_failures()
        assert "1 of 2 jobs failed" in text
        assert "kind=exception" in text

    def test_exhausted_budget_raises_pipeline_error(self, plan):
        plan("t-fault@gzip:raise:*")
        with pytest.raises(PipelineError) as err:
            submit(
                specs_for("gzip"),
                BatchOptions(
                    policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
                ),
            )
        assert err.value.details["failures"][0]["attempts"] == 2

    def test_identity_threaded_into_error(self, plan):
        plan("t-fault@gzip:raise:1")
        batch = submit(specs_for("gzip"), BatchOptions(raise_on_error=False))
        err = batch.outcomes[0].error
        assert "job gzip" in err
        assert "stage 't-fault'" in err
        assert "attempt 1" in err


class TestSupervisedRecovery:
    """Timeout kills, crash detection and pool replenishment."""

    # Timeouts here need headroom: under a loaded machine (CI, the full
    # suite) forking a replacement worker and dispatching a retry can
    # eat over a second of wall clock, and a too-tight budget turns that
    # scheduling delay into a spurious StageTimeoutError.
    TIMEOUT_S = 4.0

    def test_hang_is_killed_and_requeued(self, plan):
        plan("t-fault@gzip:hang(300):1")
        batch = submit(
            specs_for("gzip"),
            BatchOptions(
                policy=RetryPolicy(
                    max_attempts=2, timeout_s=self.TIMEOUT_S, backoff_s=FAST
                ),
            ),
        )
        (o,) = batch.outcomes
        assert o.ok
        assert o.attempts == 2
        assert batch.elapsed < 100  # nothing waited for the 300 s hang

    def test_kills_right_after_a_result_never_stall_the_pool(self, plan):
        # Each kill lands just after the same worker sent a result.  A
        # result channel shared by all workers stays locked when its
        # writer dies mid-send, and every later result then times out.
        names = [n for i in range(10) for n in (f"ok{i}", f"k{i}")]
        plan(",".join(f"t-fault@k{i}:kill:1" for i in range(10)))
        batch = submit(
            specs_for(*names),
            BatchOptions(
                raise_on_error=False,
                policy=RetryPolicy(
                    max_attempts=2, timeout_s=self.TIMEOUT_S, backoff_s=FAST
                ),
            ),
        )
        assert batch.ok, batch.describe_failures()
        assert [o.attempts for o in batch.outcomes] == [1, 2] * 10

    def test_hang_exhausts_as_timeout(self, plan):
        # the kill-and-requeue path is covered above; one attempt is
        # enough to pin the timeout classification
        plan("t-fault@gzip:hang(300):*")
        batch = submit(
            specs_for("gzip"),
            BatchOptions(
                raise_on_error=False,
                policy=RetryPolicy(
                    max_attempts=1, timeout_s=self.TIMEOUT_S, backoff_s=FAST
                ),
            ),
        )
        (f,) = batch.failure_report()
        assert f["kind"] == "timeout"
        assert f["attempts"] == 1
        assert StageTimeoutError.__name__ in batch.outcomes[0].error
        assert "wall-clock budget" in batch.outcomes[0].error

    def test_killed_worker_detected_and_pool_replenished(self, plan):
        plan("t-fault@gzip:kill:1")
        batch = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(
                jobs=2,
                policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
            ),
        )
        assert batch.ok
        gzip = batch.outcomes[0]
        assert gzip.attempts == 2  # second attempt ran on the fresh worker
        assert batch.outcomes[1].ok

    def test_crash_exhausts_as_crash(self, plan):
        plan("t-fault@gzip:kill:*")
        batch = submit(
            specs_for("gzip"),
            BatchOptions(
                raise_on_error=False,
                policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
            ),
        )
        (f,) = batch.failure_report()
        assert f["kind"] == "crash"
        assert WorkerCrashError.__name__ in batch.outcomes[0].error
        assert "pool replenished" in batch.outcomes[0].error

    def test_ci_plan_batch_all_jobs_survive(self, plan):
        # The CI fault-smoke contract, in-process: one raise, one hang,
        # one worker kill across a six-job batch; zero lost jobs.
        plan(
            "t-fault@gzip:raise:1,"
            "t-fault@mcf:hang(300):1,"
            "t-fault@vpr:kill:1"
        )
        names = ("gzip", "mcf", "vpr", "gcc", "eon", "art")
        batch = submit(
            specs_for(*names),
            BatchOptions(
                jobs=2,
                policy=RetryPolicy(
                    max_attempts=3, timeout_s=self.TIMEOUT_S, backoff_s=FAST
                ),
            ),
        )
        assert batch.ok
        assert [o.spec.benchmark for o in batch.outcomes] == list(names)
        assert batch.retries == 3  # exactly the three injected faults
        by_name = {o.spec.benchmark: o for o in batch.outcomes}
        for victim in ("gzip", "mcf", "vpr"):
            assert by_name[victim].attempts == 2
        for bystander in ("gcc", "eon", "art"):
            assert by_name[bystander].attempts == 1

    def test_retry_telemetry_counters(self, plan):
        from repro import obs

        plan("t-fault@gzip:kill:1")
        obs.enable("summary")
        try:
            submit(
                specs_for("gzip"),
                BatchOptions(
                    policy=RetryPolicy(max_attempts=2, backoff_s=FAST),
                ),
            )
            reg = obs.registry()
            assert reg.counter("pipeline_retries_total").value(
                kind="crash"
            ) == 1
            assert reg.counter("pipeline_worker_crashes_total").value() == 1
            assert reg.counter("pipeline_worker_respawns_total").value() == 1
        finally:
            obs.disable()


class TestResume:
    def test_resume_skips_fully_cached_jobs(self, tmp_path):
        cache = str(tmp_path / "cache")
        submit(specs_for("gzip", "mcf"), BatchOptions(cache_dir=cache))
        batch = submit(
            specs_for("gzip", "mcf", "vpr"),
            BatchOptions(cache_dir=cache, resume=True),
        )
        assert batch.ok
        assert batch.resumed == 2
        assert batch.summary()["resumed"] == 2
        gzip, mcf, vpr = batch.outcomes
        assert gzip.resumed and mcf.resumed and not vpr.resumed
        assert gzip.cache_hits == {"t-fault": True}
        assert vpr.cache_hits == {"t-fault": False}

    def test_resume_after_partial_failure_only_reruns_failures(
        self, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv(faults.ENV_VAR, "t-fault@mcf:raise:*")
        first = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(cache_dir=cache, raise_on_error=False),
        )
        assert not first.ok
        monkeypatch.delenv(faults.ENV_VAR)
        second = submit(
            specs_for("gzip", "mcf"),
            BatchOptions(cache_dir=cache, resume=True),
        )
        assert second.ok
        assert second.outcomes[0].resumed  # gzip came straight off disk
        assert not second.outcomes[1].resumed  # mcf actually re-ran

    def test_resume_without_cache_runs_normally(self):
        batch = submit(specs_for("gzip"), BatchOptions(resume=True))
        assert batch.ok
        assert batch.resumed == 0
