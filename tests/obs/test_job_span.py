"""The job span of an overlapped job: one tree, and its cache I/O time.

``characterize`` runs on a helper thread beside ``voltage``; its span and
every span under it must still hang under its own job's ``pipeline.job``
span, in the same trace, and the job span carries the seconds its stages
spent in cache reads and writes plus the stages it overlapped.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core import calibrated_supply
from repro.obs import load_records
from repro.pipeline import BatchOptions, build_store_jobs, submit
from repro.store import TraceStore


@pytest.fixture(scope="module")
def log_records(tmp_path_factory):
    """The JSONL log of a cold 2-job inline store batch, run with a
    short thread switch interval so the job's two threads interleave
    their telemetry as finely as they can."""
    root = tmp_path_factory.mktemp("job-span")
    store = TraceStore(root / "store", mode="a")
    rng = np.random.default_rng(7)
    for label in ("quiet", "noisy"):
        store.ingest(40.0 + rng.normal(0.0, 4.0, 1 << 14), label)
    specs = build_store_jobs(store, calibrated_supply(150))
    log = root / "obs.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    obs.enable("jsonl", str(log))
    try:
        batch = submit(specs, BatchOptions(jobs=1, cache_dir=str(root / "c")))
    finally:
        obs.finish()
        sys.setswitchinterval(interval)
    assert batch.ok
    return load_records(log)  # strict: a torn line fails here


@pytest.fixture(scope="module")
def records(log_records):
    return [r for r in log_records if r["type"] == "span"]


def _job_of(span, by_id):
    """The nearest ``pipeline.job`` ancestor of ``span``, or ``None``."""
    while span is not None:
        span = by_id.get(span["parent_id"])
        if span is not None and span["name"] == "pipeline.job":
            return span
    return None


def test_helper_spans_hang_under_their_own_job(records):
    by_id = {r["span_id"]: r for r in records}
    jobs = [r for r in records if r["name"] == "pipeline.job"]
    stages = [r for r in records if r["name"] == "stage.characterize"]
    assert len(jobs) == len(stages) == 2
    for stage in stages:
        job = _job_of(stage, by_id)
        assert job is not None and stage["parent_id"] == job["span_id"]
        assert job["attrs"]["benchmark"] == stage["attrs"]["benchmark"]
        assert stage["tid"] != job["tid"]  # it ran on the helper
        under = [
            r for r in records
            if r is not stage and _descends(r, stage, by_id)
        ]
        assert under, "no spans under stage.characterize"
        for span in [stage] + under:
            assert _job_of(span, by_id) is job
            assert span["trace_id"] == job["trace_id"]


def _descends(span, ancestor, by_id) -> bool:
    while span is not None:
        span = by_id.get(span["parent_id"])
        if span is ancestor:
            return True
    return False


def test_job_span_carries_cache_io_and_overlap(records):
    for job in (r for r in records if r["name"] == "pipeline.job"):
        assert job["attrs"]["overlapped"] == "characterize"
        measures = job["measures"]
        assert measures["cache_get_s"] >= 0.0
        assert measures["cache_put_s"] > 0.0  # three cold entries written


def test_both_threads_telemetry_is_whole(log_records, records):
    """Every span either thread closed is in the log once and counted
    once in ``spans_total``: no line lost or torn, no lost update."""
    counted = {
        r["labels"]["name"]: r["value"]
        for r in log_records
        if r["type"] == "metric" and r["name"] == "spans_total"
    }
    assert Counter(r["name"] for r in records) == counted
