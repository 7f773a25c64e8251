"""Layer spans timed from outside the program.

The benchmark never edits the program to trace it.  Instead
:func:`install` swaps a handful of module attributes of the ``repro``
package for timed wrappers around the very same callables, so every call
the pipeline makes into a layer opens a span here:

=========================  ==================================================
span                       wrapped callable
=========================  ==================================================
``core.calibration.calibrate``  ``calibrate_scale_factors`` as the estimator
                           calls it
``uarch.simulate``         ``simulate_benchmark`` as the ``simulate`` stage
                           calls it
``power.voltage``          ``ConvolutionVoltageSimulator.voltage``
``kernels.characterize``   ``streaming_characterize`` as the
                           ``characterize`` stage calls it
``pipeline.job``           ``execute_job``, the per-job entry of ``submit``
``pipeline.cache.get/put`` ``ResultCache.get`` / ``ResultCache.put``
``store.attach``           ``TraceRef.resolve``
``core.setup.calibrated_supply``  ``calibrated_supply`` as the server calls it
=========================  ==================================================

Spans stay in memory and are written out when a process ends.  Pool
workers are forked from the traced process, so they inherit the
wrappers; the first span a worker records registers a flush that runs
when the worker leaves its loop.  Every span carries the pid, its parent
span and a group id shared by the spans of one job.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """In-memory span buffer of one process (and its forked workers)."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        # the open-span stack and job group are per thread: the server
        # runs cache reads and batches on helper threads
        self._local = threading.local()
        self.paused = False
        self._serial = 0
        atexit.register(self.flush)

    @property
    def stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @property
    def group(self) -> str | None:
        return getattr(self._local, "group", None)

    @group.setter
    def group(self, value: str | None) -> None:
        self._local.group = value

    def _adopt_process(self) -> None:
        # A forked worker starts with a copy of the parent's buffer: drop
        # it (the parent writes its own) but keep the stack, so worker
        # spans parent on the span that was open at fork time.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    @contextmanager
    def span(self, name: str, group: str | None = None, **attrs):
        if self.paused:
            yield {}
            return
        self._adopt_process()
        self._serial += 1
        record = {
            "id": f"{self.pid}-{self._serial}",
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "pid": self.pid,
            "group": group or self.group,
            **attrs,
        }
        self.stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured elsewhere (wire phases, accumulators)."""
        self._adopt_process()
        self._serial += 1
        self.spans.append(
            {
                "id": f"{self.pid}-{self._serial}",
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "pid": self.pid,
                "group": attrs.pop("group", self.group),
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def flush(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []


def _timed(recorder: Recorder, name: str, func, samples_arg=None):
    """``func`` inside a span; ``samples_arg`` names the positional
    argument whose length is recorded as the span's sample count."""

    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            if samples_arg is not None:
                record["samples"] = len(args[samples_arg])
            return func(*args, **kwargs)

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point of the imported ``repro`` package."""
    from repro.core import characterization
    from repro.pipeline import cache, executor, stages, supervisor
    from repro.power import ConvolutionVoltageSimulator
    from repro.serve import server
    from repro.store.ref import TraceRef

    characterization.calibrate_scale_factors = _timed(
        recorder,
        "core.calibration.calibrate",
        characterization.calibrate_scale_factors,
    )
    stages.simulate_benchmark = _timed(
        recorder, "uarch.simulate", stages.simulate_benchmark
    )
    stages.streaming_characterize = _timed(
        recorder, "kernels.characterize", stages.streaming_characterize, 1
    )
    ConvolutionVoltageSimulator.voltage = _timed(
        recorder, "power.voltage", ConvolutionVoltageSimulator.voltage, 1
    )
    get = cache.ResultCache.get

    def timed_get(self, stage, key, kind):
        with recorder.span("pipeline.cache.get") as record:
            hit, artifact = get(self, stage, key, kind)
            record["hit"] = hit
            return hit, artifact

    cache.ResultCache.get = timed_get
    put = cache.ResultCache.put

    def timed_put(self, stage, key, kind, artifact):
        with recorder.span("pipeline.cache.put") as record:
            path = put(self, stage, key, kind, artifact)
            record["bytes"] = path.stat().st_size
            return path

    cache.ResultCache.put = timed_put
    TraceRef.resolve = _timed(recorder, "store.attach", TraceRef.resolve)

    execute_job = executor.execute_job

    def timed_job(spec, *args, **kwargs):
        # every span inside the job shares the job's label as group id
        recorder.group = spec.label
        try:
            with recorder.span("pipeline.job"):
                return execute_job(spec, *args, **kwargs)
        finally:
            recorder.group = None

    executor.execute_job = timed_job
    supervisor.execute_job = timed_job
    server.execute_job = timed_job
    server.calibrated_supply = _timed(
        recorder, "core.setup.calibrated_supply", server.calibrated_supply
    )


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span any traced process wrote under ``out_dir``."""
    spans: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


# -- analysis -------------------------------------------------------------------


def merge_intervals(intervals, lo: float | None = None, hi: float | None = None):
    """Disjoint, sorted union of ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    return sum(end - start for start, end in merge_intervals(intervals, lo, hi))


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the name minus its last part)."""
    return name.rsplit(".", 1)[0]


def span_self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span (by id) not covered by its child spans.

    A child may run in a forked worker, in parallel with its siblings,
    so the covered part is the union of the children's intervals.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: max(
            span["end"]
            - span["start"]
            - union_length(children.get(span["id"], ()), span["start"], span["end"]),
            0.0,
        )
        for span in spans
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer."""
    own = span_self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals


def total_time(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)
