"""Overlapped trace-only stages: the same results, side effects and failures.

When ``voltage`` and ``characterize`` both miss the cache, ``execute_job``
computes ``characterize`` on a helper thread while ``voltage`` runs on the
calling thread.  Forcing the sequential path (``trace_only=False``) must
change nothing a caller can see: artifacts, predictions, the cache tree,
and the order and thread of every side effect.  Only the stage function
itself moves to the helper.
"""

import dataclasses
import threading

import pytest

from repro.core import calibrated_supply
from repro.pipeline import (
    BatchOptions,
    ResultCache,
    build_characterization_jobs,
    build_scenario_jobs,
    build_store_jobs,
    faults,
    predictions_from,
    stage_cache_keys,
    stages,
    submit,
)
from repro.pipeline.executor import execute_job
from repro.store import TraceStore
from repro.uarch import simulate_benchmark

from .test_cache_identity import _tree

PAIR = ("voltage", "characterize")
CYCLES = 4096
NAMES = ("gzip", "mcf")


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def store(network, tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("store"), mode="a")
    for name in NAMES:
        store.ingest(simulate_benchmark(name, cycles=CYCLES).current, name)
    return store


@pytest.fixture
def log(monkeypatch):
    """Every side effect and stage-function call of the executor, as
    ``(what, stage, ran on the calling thread)`` in call order.

    An empty fault plan is active, so the fault hook runs at every
    stage that misses the cache without firing.
    """
    entries = []
    caller = threading.get_ident()

    def spy(what, func):
        def wrapper(first, stage, *args, **kwargs):
            entries.append((what, stage, threading.get_ident() == caller))
            return func(first, stage, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(ResultCache, "get", spy("get", ResultCache.get))
    monkeypatch.setattr(ResultCache, "put", spy("put", ResultCache.put))
    monkeypatch.setattr(faults, "apply_fault", spy("fault", faults.apply_fault))
    for name in PAIR:
        stage = stages.get_stage(name)

        def computed(ctx, name=name, func=stage.func):
            entries.append(
                ("compute", name, threading.get_ident() == caller)
            )
            return func(ctx)

        monkeypatch.setitem(
            stages._REGISTRY, name, dataclasses.replace(stage, func=computed)
        )
    monkeypatch.setenv(faults.ENV_VAR, "simulate@no-such-job:raise")
    return entries


def _sequential(monkeypatch) -> None:
    """Declare the pair not trace-only: the executor then runs it as
    it runs every other stage, one after the other."""
    for name in PAIR:
        stage = stages.get_stage(name)
        monkeypatch.setitem(
            stages._REGISTRY, name, dataclasses.replace(stage, trace_only=False)
        )


def _chain(kind, network, store):
    if kind == "simulate":
        return build_characterization_jobs(NAMES, network, cycles=CYCLES)
    if kind == "store":
        return build_store_jobs(store, network)
    return build_scenario_jobs(
        ["burst-train"], network, cycles=CYCLES, seed=5, warmup_cycles=32
    )


@pytest.mark.parametrize("kind", ["simulate", "store", "scenario"])
def test_overlapped_equals_sequential(kind, network, store, log, tmp_path,
                                      monkeypatch):
    specs = _chain(kind, network, store)
    runs = {}
    for path in ("overlapped", "sequential"):
        if path == "sequential":
            _sequential(monkeypatch)
        del log[:]
        root = tmp_path / path
        batch = submit(specs, BatchOptions(jobs=1, cache_dir=str(root)))
        assert batch.ok
        runs[path] = {
            "artifacts": [
                {name: o.artifacts[name] for name in PAIR}
                for o in batch.outcomes
            ],
            "predictions": predictions_from(batch),
            "timing_order": [list(o.timings) for o in batch.outcomes],
            "tree": _tree(root),
            "effects": [e for e in log if e[0] != "compute"],
            "computed": [e for e in log if e[0] == "compute"],
        }
    overlapped, sequential = runs["overlapped"], runs["sequential"]
    for key in ("artifacts", "predictions", "timing_order", "tree", "effects"):
        assert overlapped[key] == sequential[key], key
    # every side effect stays on the calling thread, in stage order
    assert all(on_caller for _, _, on_caller in overlapped["effects"])
    # the helper ran: characterize moved off the calling thread, and
    # nothing else did
    jobs = len(specs)
    assert sorted(overlapped["computed"]) == sorted(
        [("compute", "voltage", True), ("compute", "characterize", False)]
        * jobs
    )
    assert sequential["computed"] == [
        ("compute", "voltage", True), ("compute", "characterize", True)
    ] * jobs


def _job(network):
    (spec,) = build_characterization_jobs(["gzip"], network, cycles=CYCLES)
    return spec


def _has(cache, spec, name) -> bool:
    return cache.has(stage_cache_keys(spec)[name], "json")


def test_voltage_fault_stops_the_pair(network, log, tmp_path, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "voltage:raise,characterize:raise")
    spec = _job(network)
    cache = ResultCache(tmp_path)
    threads = threading.active_count()
    outcome = execute_job(spec, cache)
    assert outcome.failed_stage == "voltage"
    assert "InjectedFaultError" in outcome.error
    assert [s for what, s, _ in log if what == "fault"] == [
        "simulate", "voltage"
    ]
    assert not any(s == "characterize" for _, s, _ in log)
    assert not _has(cache, spec, "voltage")
    assert not _has(cache, spec, "characterize")
    assert set(outcome.timings) == {"simulate", "voltage"}
    assert threading.active_count() == threads


def test_characterize_fault_keeps_voltage_cached(network, log, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "characterize:raise")
    spec = _job(network)
    cache = ResultCache(tmp_path)
    threads = threading.active_count()
    outcome = execute_job(spec, cache)
    assert outcome.failed_stage == "characterize"
    assert "voltage" in outcome.artifacts
    assert _has(cache, spec, "voltage")
    assert not _has(cache, spec, "characterize")
    # the helper computed characterize; the fault at its place in the
    # chain discarded the result
    assert ("compute", "characterize", False) in log
    assert ("put", "characterize", True) not in log
    assert threading.active_count() == threads


def test_helper_error_surfaces_as_the_stage_failure(network, tmp_path,
                                                    monkeypatch):
    stage = stages.get_stage("characterize")

    def broken(ctx):
        raise ValueError("characterize broke")

    monkeypatch.setitem(
        stages._REGISTRY, "characterize", dataclasses.replace(stage, func=broken)
    )
    spec = _job(network)
    cache = ResultCache(tmp_path)
    outcome = execute_job(spec, cache)
    assert outcome.failed_stage == "characterize"
    assert "ValueError: characterize broke" in outcome.error
    assert _has(cache, spec, "voltage")
    assert outcome.timings["characterize"] >= 0


@pytest.mark.parametrize("cached", PAIR)
def test_a_cache_hit_in_the_pair_starts_no_thread(cached, network, log,
                                                  tmp_path, monkeypatch):
    spec = _job(network)
    cache = ResultCache(tmp_path)
    assert execute_job(spec, cache).ok
    other = PAIR[1 - PAIR.index(cached)]
    cache.path_for(stage_cache_keys(spec)[other], "json").unlink()

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread,
        "start",
        lambda self: (started.append(self.name), start(self))[1],
    )
    del log[:]
    outcome = execute_job(spec, cache)
    assert outcome.ok
    assert outcome.cache_hits == {
        "simulate": True, cached: True, other: False
    }
    assert started == []
    assert [e for e in log if e[0] == "compute"] == [("compute", other, True)]


def test_no_thread_outlives_the_job(network, tmp_path):
    threads = threading.active_count()
    outcome = execute_job(_job(network), ResultCache(tmp_path))
    assert outcome.ok
    assert threading.active_count() == threads
