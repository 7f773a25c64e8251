"""Executor behavior: ordering, telemetry, errors, worker-pool parity."""

import pytest

from repro.core import calibrated_supply, predict_trace
from repro.pipeline import (
    BatchOptions,
    JobSpec,
    PipelineError,
    build_characterization_jobs,
    build_control_jobs,
    control_results_from,
    predictions_from,
    submit,
    suite_names,
)
from repro.uarch import simulate_benchmark

CYCLES = 4096
NAMES = ("gzip", "mcf")


@pytest.fixture(scope="module")
def net150():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def batch(net150):
    jobs = build_characterization_jobs(NAMES, net150, cycles=CYCLES)
    return submit(jobs)


class TestInlineExecution:
    def test_outcomes_keep_submission_order(self, batch):
        assert [o.spec.benchmark for o in batch.outcomes] == list(NAMES)

    def test_telemetry_recorded(self, batch):
        for o in batch.outcomes:
            assert set(o.timings) == {"simulate", "voltage", "characterize"}
            assert all(t >= 0 for t in o.timings.values())
            assert o.elapsed > 0
            assert o.cache_hits == {s: False for s in o.timings}

    def test_matches_legacy_predict_trace(self, batch, net150):
        preds = predictions_from(batch)
        for name in NAMES:
            trace = simulate_benchmark(name, cycles=CYCLES).current
            legacy = predict_trace(net150, trace, 0.97, name)
            assert preds[name].estimated == legacy.estimated
            assert preds[name].observed == legacy.observed

    def test_progress_callback_sees_every_job(self, net150):
        jobs = build_characterization_jobs(NAMES, net150, cycles=CYCLES)
        seen = []
        submit(jobs, progress=lambda o: seen.append(o.spec.benchmark))
        assert seen == list(NAMES)


class TestErrors:
    def test_failed_job_raises_by_default(self):
        bad = JobSpec("no-such-benchmark", stages=("simulate",))
        with pytest.raises(PipelineError, match="no-such-benchmark"):
            submit([bad])

    def test_failures_collected_when_asked(self, net150):
        bad = JobSpec("no-such-benchmark", stages=("simulate",))
        good = build_characterization_jobs(("gzip",), net150, cycles=CYCLES)
        batch = submit([bad] + good, BatchOptions(raise_on_error=False))
        assert not batch.outcomes[0].ok
        assert batch.outcomes[1].ok
        assert len(batch.errors) == 1


class TestControlJobs:
    def test_control_results_round_trip(self, net150):
        jobs = build_control_jobs(
            ("vpr",), net150, scheme="wavelet", cycles=3000,
            terms=13, margin=0.012,
        )
        results = control_results_from(submit(jobs))
        assert results[0].name == "vpr"
        assert abs(results[0].slowdown) < 0.1

    def test_unknown_scheme_fails(self, net150):
        jobs = build_control_jobs(("vpr",), net150, scheme="psychic",
                                  cycles=1024)
        with pytest.raises(PipelineError, match="unknown control scheme"):
            submit(jobs)


class TestSuites:
    def test_suite_names(self):
        assert len(suite_names("spec2000")) == 26
        assert set(suite_names("int")) | set(suite_names("fp")) == set(
            suite_names("spec2000")
        )
        with pytest.raises(ValueError, match="unknown suite"):
            suite_names("spec2017")


@pytest.mark.slow
class TestWorkerPool:
    def test_parallel_equals_serial(self, net150, tmp_path):
        jobs = build_characterization_jobs(
            ("gzip", "mcf", "vpr"), net150, cycles=CYCLES
        )
        serial = predictions_from(submit(jobs, BatchOptions(jobs=1)))
        parallel = predictions_from(
            submit(jobs, BatchOptions(jobs=3, cache_dir=tmp_path))
        )
        assert serial == parallel

    def test_parallel_cache_warm_restart(self, net150, tmp_path):
        jobs = build_characterization_jobs(NAMES, net150, cycles=CYCLES)
        submit(jobs, BatchOptions(jobs=2, cache_dir=tmp_path))
        again = submit(jobs, BatchOptions(jobs=2, cache_dir=tmp_path))
        assert again.cache_hits == again.stage_runs


class TestPartialTelemetryOnFailure:
    def test_failing_stage_still_reports_its_timing(self, net150):
        spec = JobSpec("no-such-benchmark", stages=("simulate",))
        batch = submit([spec], BatchOptions(raise_on_error=False))
        outcome = batch.outcomes[0]
        assert not outcome.ok
        assert outcome.failed_stage == "simulate"
        assert "simulate" in outcome.timings
        assert outcome.timings["simulate"] >= 0.0
        assert outcome.cache_hits == {"simulate": False}

    def test_later_stages_never_get_timings(self, net150):
        spec = JobSpec(
            "no-such-benchmark",
            stages=("simulate", "voltage", "characterize"),
        )
        batch = submit([spec], BatchOptions(raise_on_error=False))
        outcome = batch.outcomes[0]
        assert outcome.failed_stage == "simulate"
        assert set(outcome.timings) == {"simulate"}


class TestBatchSummary:
    def test_summary_headline_numbers(self, batch):
        s = batch.summary()
        assert s["jobs"] == len(NAMES)
        assert s["errors"] == 0
        assert s["stage_runs"] == 3 * len(NAMES)
        assert s["cache_hits"] + s["cache_misses"] == s["stage_runs"]
        assert s["wall_s"] > 0
        assert s["workers"] == 1

    def test_summary_counts_errors(self, net150):
        bad = JobSpec("no-such-benchmark", stages=("simulate",))
        batch = submit([bad], BatchOptions(raise_on_error=False))
        assert batch.summary()["errors"] == 1


@pytest.mark.slow
class TestWorkerPoolObservability:
    def test_worker_metrics_merge_into_parent(self, net150, tmp_path):
        from repro import obs

        jobs = build_characterization_jobs(NAMES, net150, cycles=CYCLES)
        obs.enable("summary")
        try:
            submit(jobs, BatchOptions(jobs=2, cache_dir=tmp_path))
            counter = obs.registry().counter("pipeline_jobs_total")
            assert counter.value(status="ok") == len(NAMES)
            rows = obs.span_collector().rows()
            # worker-side spans shipped back and absorbed by the parent
            assert rows["pipeline.job"]["count"] == len(NAMES)
            assert rows["stage.simulate"]["count"] == len(NAMES)
        finally:
            obs.disable()
