"""The control experiment's two runs at once, and one after the other.

Where it can, ``run_control_experiment`` runs the free-running baseline in
a forked child while the controlled run goes on in the calling process,
bounded by the child's reported progress; otherwise it runs the baseline
inline first.  Both paths must give the same :class:`ControlResult` and
the same event stream, whatever the timing, and no child may outlive the
experiment, whether it returns or raises.
"""

import dataclasses
import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.core.controller as control
from repro import obs
from repro.core import (
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)
from repro.pipeline import (
    BatchOptions,
    build_control_jobs,
    build_store_jobs,
    control_results_from,
    submit,
)
from repro.store import TraceStore

from .test_control_events import CYCLES, WARMUP, _cases

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the concurrent path needs the fork start method",
)


def _wavelet(net):
    return lambda: ThresholdController(
        WaveletVoltageMonitor(net, terms=13), net, 0.010
    )


def _all_cases():
    net150 = calibrated_supply(150)
    return _cases() + [
        ("gzip-wavelet", "gzip", net150, _wavelet(net150)),
        ("mcf-wavelet", "mcf", net150, _wavelet(net150)),
    ]


def _observed(monkeypatch, concurrent, benchmark, net, factory):
    """(result, emergency and actuation events, experiment span attrs)."""
    monkeypatch.setattr(control, "_can_fork", lambda: concurrent)
    records = []
    obs.enable("summary")
    obs.add_subscriber(records.append)
    try:
        result = run_control_experiment(
            benchmark, net, factory, cycles=CYCLES, warmup_cycles=WARMUP
        )
    finally:
        obs.disable()
    events = [
        (r["name"], sorted(r["attrs"].items()))
        for r in records
        if r["type"] == "event"
        and r["name"] in ("emergency_onset", "actuation_summary")
    ]
    (span,) = [
        r["attrs"]
        for r in records
        if r["type"] == "span" and r["name"] == "control.experiment"
    ]
    return result, events, span


@pytest.mark.parametrize(
    "case", _all_cases(), ids=lambda case: case[0]
)
def test_concurrent_equals_inline(monkeypatch, case):
    _, benchmark, net, factory = case
    inline = _observed(monkeypatch, False, benchmark, net, factory)
    concurrent = _observed(monkeypatch, True, benchmark, net, factory)
    assert concurrent[0] == inline[0]
    assert concurrent[1] == inline[1]
    assert inline[2]["concurrent"] is False and inline[2]["wait_s"] == 0.0
    assert concurrent[2]["concurrent"] is True
    assert not multiprocessing.active_children()


class _SlowProgress:
    """A progress cell whose every report comes late."""

    def __init__(self, cell) -> None:
        self._cell = cell

    @property
    def value(self) -> int:
        return self._cell.value

    @value.setter
    def value(self, committed: int) -> None:
        time.sleep(0.01)
        self._cell.value = committed


def test_slow_child_makes_the_controlled_run_wait(monkeypatch):
    _, benchmark, net, factory = _cases()[0]
    inline = _observed(monkeypatch, False, benchmark, net, factory)
    child = control._free_run_child
    monkeypatch.setattr(
        control,
        "_free_run_child",
        lambda pipe, cycles, progress, conn: child(
            pipe, cycles, _SlowProgress(progress), conn
        ),
    )
    slow = _observed(monkeypatch, True, benchmark, net, factory)
    assert slow[2]["wait_s"] > 0.05  # 16 late reports of 10 ms each
    assert slow[:2] == inline[:2]


def test_child_exit_raises_promptly(monkeypatch):
    def dies(pipe, cycles, progress, conn):
        progress.value = 10
        os._exit(7)

    monkeypatch.setattr(control, "_can_fork", lambda: True)
    monkeypatch.setattr(control, "_free_run_child", dies)
    _, benchmark, net, factory = _cases()[0]
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"exited \(code 7\)"):
        run_control_experiment(
            benchmark, net, factory, cycles=CYCLES, warmup_cycles=WARMUP
        )
    assert time.perf_counter() - t0 < 10
    assert not multiprocessing.active_children()


class _Failing:
    def __init__(self) -> None:
        self.n = 0

    def update(self, current: float) -> tuple[bool, int]:
        self.n += 1
        if self.n == 100:
            raise ValueError("controller fault")
        return False, 0


@pytest.mark.parametrize("concurrent", [False, True])
def test_controller_error_leaves_no_child(monkeypatch, concurrent):
    monkeypatch.setattr(control, "_can_fork", lambda: concurrent)
    net = calibrated_supply(150)
    with pytest.raises(ValueError, match="controller fault"):
        run_control_experiment(
            "mgrid", net, _Failing, cycles=CYCLES, warmup_cycles=WARMUP
        )
    assert not multiprocessing.active_children()


def test_pool_workers_run_the_baseline_inline():
    net = calibrated_supply(150)
    jobs = build_control_jobs(
        ["mgrid", "gzip"], net, cycles=CYCLES, warmup_cycles=WARMUP
    )
    serial = control_results_from(submit(jobs, BatchOptions(jobs=1)))
    pooled = control_results_from(submit(jobs, BatchOptions(jobs=2)))
    assert [dataclasses.asdict(r) for r in pooled] == [
        dataclasses.asdict(r) for r in serial
    ]


def test_an_inline_store_batch_leaves_the_forked_path_open(tmp_path):
    """A job's overlap helper is joined before the job returns, so a
    later experiment in the same process still sees one live thread and
    takes its forked path."""
    if not control._can_fork():
        pytest.skip("this process cannot take the forked path")
    net = calibrated_supply(150)
    store = TraceStore(tmp_path / "store", mode="a")
    rng = np.random.default_rng(3)
    for label in ("a", "b"):
        store.ingest(40.0 + rng.normal(0.0, 4.0, 1 << 14), label)
    batch = submit(
        build_store_jobs(store, net),
        BatchOptions(jobs=1, cache_dir=str(tmp_path / "cache")),
    )
    assert batch.ok
    _, benchmark, net, factory = _cases()[0]
    records = []
    obs.enable("summary")
    obs.add_subscriber(records.append)
    try:
        run_control_experiment(
            benchmark, net, factory, cycles=CYCLES, warmup_cycles=WARMUP
        )
    finally:
        obs.disable()
    (span,) = [
        r["attrs"]
        for r in records
        if r["type"] == "span" and r["name"] == "control.experiment"
    ]
    assert span["concurrent"] is True
    assert not multiprocessing.active_children()
