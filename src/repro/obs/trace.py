"""Tracing spans, event log and the process-global observability state.

The module-level :data:`ENABLED` flag is the single gate every
instrumentation site checks: with observability off (the default) a
``span(...)`` returns one shared no-op object and the metric helpers
return immediately, so instrumented code pays one attribute load and a
branch — nothing allocates, nothing locks.

With observability on:

* ``span("stage.simulate", benchmark="gzip")`` times a block (wall and
  CPU), nests via a per-thread stack into a per-run trace tree, and on
  exit feeds a span record to the active exporter; ``under(job_span)``
  hangs the root spans of a helper thread under a live span of the
  thread that started it;
* every span carries a ``span_id`` / ``parent_id`` under the run's
  ``trace_id`` (see :mod:`repro.obs.context`), so records from many
  processes merge into one causal tree;
* ``event("emergency_onset", cycle=812)`` logs one discrete occurrence
  and bumps the ``events_total`` counter;
* ``counter_inc`` / ``gauge_set`` / ``histogram_observe`` record into
  the process :class:`~repro.obs.registry.MetricsRegistry`;
* an optional background :class:`~repro.obs.profiler.ResourceProfiler`
  samples /proc and attributes RSS/CPU/IO to the open spans;
* live consumers (the ``/metrics`` HTTP endpoint in
  :mod:`repro.obs.serve`) subscribe to the record stream via
  :func:`add_subscriber`.

Worker processes run in *capture* mode (:func:`worker_mode`): span and
event records buffer in memory instead of hitting the parent's log file,
and :func:`drain_records` hands them to the executor, which ships them
back through the result channel for the parent to :func:`absorb`.
"""

from __future__ import annotations

import os
import threading
import time

from .context import TraceContext, new_span_id, new_trace_id
from .export import JsonlWriter, SpanCollector
from .registry import DEFAULT_BUCKETS, MetricsRegistry, diff_snapshots

__all__ = [
    "ENABLED",
    "Span",
    "absorb",
    "add_subscriber",
    "counter_inc",
    "current_span",
    "current_trace_id",
    "disable",
    "drain_records",
    "enable",
    "event",
    "finish",
    "gauge_set",
    "histogram_observe",
    "mode",
    "open_spans",
    "past_span",
    "profile_interval",
    "propagation_context",
    "registry",
    "remove_subscriber",
    "set_trace_context",
    "span",
    "span_collector",
    "under",
    "worker_mode",
]

#: Fast-path gate consulted by every instrumentation site.
ENABLED = False

#: Default JSONL log location when ``--obs jsonl`` gives no path.
DEFAULT_JSONL_PATH = "repro-obs.jsonl"

#: Default Chrome trace-event file for ``--obs chrome``.
DEFAULT_CHROME_PATH = "repro-trace.json"

#: Cap on buffered records in worker-capture mode and in the chrome
#: buffer (overflow is counted, not silently dropped).
CAPTURE_LIMIT = 100_000

_MODE = "off"
_REGISTRY = MetricsRegistry()
_COLLECTOR = SpanCollector()
_WRITER: JsonlWriter | None = None
_CAPTURE = False
_CAPTURED: list[dict] = []
_CHROME: list[dict] | None = None  # record buffer for the chrome exporter
_CHROME_PATH = DEFAULT_CHROME_PATH
_LOCAL = threading.local()
#: Every thread's live span stack, readable by the profiler thread.
_STACKS: dict[int, list] = {}
#: This process's trace id and the cross-process parent for root spans.
_TRACE_ID: str | None = None
_BOUNDARY_PARENT: str | None = None
#: Live record subscribers (the HTTP /events stream).
_SUBSCRIBERS: list = []
#: Resource-profiler state (interval 0 = off).
_PROFILE_INTERVAL = 0.0
_PROFILER = None


def registry() -> MetricsRegistry:
    """The live process registry (valid whether or not enabled)."""
    return _REGISTRY


def span_collector() -> SpanCollector:
    """The in-process per-span-name aggregation."""
    return _COLLECTOR


def mode() -> str:
    """The active exporter mode (``off`` when disabled)."""
    return _MODE


def profile_interval() -> float:
    """The live resource-profiler sampling interval (0 when off)."""
    return _PROFILE_INTERVAL


def enable(
    mode: str = "summary",
    path: str | None = None,
    profile_interval: float = 0.0,
) -> None:
    """Turn observability on, resetting any previous run's state.

    ``mode`` selects the exporter: ``summary`` (console table at
    :func:`finish`), ``jsonl`` (stream records to ``path``), ``prom``
    (Prometheus text dump at :func:`finish`) or ``chrome`` (a Chrome
    trace-event JSON file at ``path``, viewable in Perfetto).
    ``profile_interval`` > 0 starts the background resource profiler at
    that sampling period (seconds).
    """
    global ENABLED, _MODE, _WRITER, _CAPTURE, _CHROME, _CHROME_PATH
    global _TRACE_ID, _PROFILE_INTERVAL
    if mode not in ("summary", "jsonl", "prom", "chrome"):
        raise ValueError(f"unknown obs mode {mode!r}")
    disable()
    _MODE = mode
    _CAPTURE = False
    if mode == "jsonl":
        _WRITER = JsonlWriter(path or DEFAULT_JSONL_PATH)
    elif mode == "chrome":
        _CHROME = []
        _CHROME_PATH = path or DEFAULT_CHROME_PATH
    _TRACE_ID = new_trace_id()
    ENABLED = True
    _PROFILE_INTERVAL = max(float(profile_interval or 0.0), 0.0)
    if _PROFILE_INTERVAL > 0:
        _start_profiler(_PROFILE_INTERVAL)


def worker_mode(enabled: bool, profile_interval: float = 0.0) -> None:
    """Configure a pool worker: capture records, never touch the log.

    Called at the top of every worker job.  After a ``fork`` the child
    inherits the parent's writer handle and subscribers; buffering
    instead of writing keeps the JSONL file single-writer, and dropping
    the subscribers keeps the parent's HTTP stream single-producer.
    The boundary context (where this worker's root spans hang) arrives
    per job via :func:`set_trace_context`.
    """
    global ENABLED, _WRITER, _CAPTURE, _CHROME, _PROFILE_INTERVAL
    _stop_profiler()  # a forked child inherits a dead profiler thread
    _WRITER = None
    _CHROME = None
    _SUBSCRIBERS.clear()
    _CAPTURE = bool(enabled)
    ENABLED = bool(enabled)
    _PROFILE_INTERVAL = max(float(profile_interval or 0.0), 0.0)
    if ENABLED and _PROFILE_INTERVAL > 0:
        _start_profiler(_PROFILE_INTERVAL)


def disable() -> None:
    """Turn observability off and drop all recorded state."""
    global ENABLED, _MODE, _WRITER, _CAPTURE, _CHROME
    global _TRACE_ID, _BOUNDARY_PARENT, _PROFILE_INTERVAL
    ENABLED = False
    _MODE = "off"
    _stop_profiler()
    if _WRITER is not None:
        _WRITER.close()
        _WRITER = None
    _CAPTURE = False
    _CAPTURED.clear()
    _CHROME = None
    _SUBSCRIBERS.clear()
    _REGISTRY.reset()
    _COLLECTOR.reset()
    _LOCAL.stack = []
    _STACKS.clear()
    _TRACE_ID = None
    _BOUNDARY_PARENT = None
    _PROFILE_INTERVAL = 0.0


def _start_profiler(interval_s: float) -> None:
    global _PROFILER
    from .profiler import ResourceProfiler

    _PROFILER = ResourceProfiler(interval_s)
    _PROFILER.start()


def _stop_profiler() -> None:
    global _PROFILER
    if _PROFILER is not None:
        _PROFILER.stop()
        _PROFILER = None


def finish() -> str | None:
    """Flush the active exporter and disable; returns text to print.

    ``summary`` returns the console table, ``prom`` the Prometheus text
    dump, ``jsonl`` a one-line pointer at the written log (after
    appending one ``metric`` record per series, so the log alone can
    reproduce every final total), ``chrome`` a pointer at the written
    trace-event file.
    """
    from .export import summary_table, write_chrome_trace

    out: str | None = None
    if ENABLED:
        _stop_profiler()  # flush the last sample before exporting
        if _MODE == "summary":
            out = summary_table(_COLLECTOR, _REGISTRY)
        elif _MODE == "prom":
            out = _REGISTRY.to_prometheus()
        elif _MODE == "jsonl" and _WRITER is not None:
            for record in _metric_records():
                _WRITER.write(record)
            out = (
                f"observability log: {_WRITER.path} "
                f"({_WRITER.records} records) — "
                f"render with `repro obs report {_WRITER.path}`"
            )
        elif _MODE == "chrome" and _CHROME is not None:
            count = write_chrome_trace(_CHROME, _CHROME_PATH)
            out = (
                f"chrome trace: {_CHROME_PATH} ({count} events) — "
                f"open in Perfetto (https://ui.perfetto.dev) or "
                f"chrome://tracing"
            )
    disable()
    return out


def _metric_records() -> list[dict]:
    """One JSONL record per metric series (final totals)."""
    records = []
    now = time.time()
    for name, family in _REGISTRY.snapshot().items():
        for key, value in family["series"].items():
            records.append(
                {
                    "type": "metric",
                    "t": now,
                    "name": name,
                    "kind": family["kind"],
                    "labels": dict(key),
                    "value": value,
                }
            )
    return records


def _emit(record: dict) -> None:
    if _WRITER is not None:
        _WRITER.write(record)
    elif _CAPTURE:
        if len(_CAPTURED) < CAPTURE_LIMIT:
            _CAPTURED.append(record)
        else:
            _REGISTRY.counter(
                "obs_records_dropped_total",
                "records dropped by the worker capture buffer cap",
            ).inc()
    elif _CHROME is not None:
        if len(_CHROME) < CAPTURE_LIMIT:
            _CHROME.append(record)
        else:
            _REGISTRY.counter(
                "obs_records_dropped_total",
                "records dropped by the worker capture buffer cap",
            ).inc()
    for subscriber in _SUBSCRIBERS:
        try:
            subscriber(record)
        except Exception:  # a broken consumer must never kill the run
            pass


def add_subscriber(fn) -> None:
    """Register a live record consumer (called with every record dict)."""
    if fn not in _SUBSCRIBERS:
        _SUBSCRIBERS.append(fn)


def remove_subscriber(fn) -> None:
    """Unregister a record consumer registered via :func:`add_subscriber`."""
    if fn in _SUBSCRIBERS:
        _SUBSCRIBERS.remove(fn)


def drain_records() -> list[dict]:
    """Take (and clear) the worker-captured span/event records."""
    records = list(_CAPTURED)
    _CAPTURED.clear()
    return records


def snapshot_delta(before: dict) -> dict:
    """Registry delta since ``before`` (see :func:`diff_snapshots`)."""
    return diff_snapshots(before, _REGISTRY.snapshot())


def absorb(delta: dict | None, records: list[dict] | None) -> None:
    """Fold a worker's metric delta and captured records into this process.

    Call only with payloads produced in *another* process — the caller
    checks the producing PID so inline execution is never double-counted.
    """
    if not ENABLED:
        return
    if delta:
        peaks = delta.get("job_peak_rss_bytes")
        if peaks:
            # peak gauges merge max-wise: a retried job that used less
            # memory must not lower the recorded peak (gauge merge is
            # otherwise last-writer-wins)
            gauge = _REGISTRY.gauge("job_peak_rss_bytes", peaks.get("help", ""))
            delta = dict(delta)
            delta["job_peak_rss_bytes"] = dict(
                peaks,
                series={
                    key: max(value, gauge.value(**dict(key)) or 0.0)
                    for key, value in peaks["series"].items()
                },
            )
        _REGISTRY.merge(delta)
    for record in records or ():
        if record.get("type") == "span":
            _COLLECTOR.add(
                record["name"],
                record.get("wall_s", 0.0),
                record.get("cpu_s", 0.0),
                record.get("rss_peak_bytes", 0),
            )
        _emit(record)


# -- trace context -------------------------------------------------------------


def current_trace_id() -> str | None:
    """This process's active trace id (``None`` when disabled)."""
    return _TRACE_ID


def set_trace_context(wire) -> None:
    """Adopt a cross-process :class:`~repro.obs.context.TraceContext`.

    Called by a pool worker with the ``(trace_id, parent_span_id)`` wire
    tuple that arrived with a dispatched job: subsequent root spans (the
    worker's ``pipeline.job``) parent on the supervisor-side span instead
    of floating free.
    """
    global _TRACE_ID, _BOUNDARY_PARENT
    ctx = TraceContext.from_wire(wire)
    if ctx.trace_id is not None:
        _TRACE_ID = ctx.trace_id
    _BOUNDARY_PARENT = ctx.parent_span_id


def propagation_context() -> tuple[str | None, str | None] | None:
    """The wire context a dispatcher ships with a job (``None`` when off).

    The parent span id is the innermost open span of the calling thread
    — for the executor, the ``pipeline.batch`` span — so everything the
    receiving process records hangs off it.
    """
    if not ENABLED:
        return None
    parent = current_span()
    return TraceContext(
        trace_id=_TRACE_ID,
        parent_span_id=parent.span_id if parent is not None else None,
    ).to_wire()


# -- spans ---------------------------------------------------------------------


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    # (re-)register every call: disable() swaps the list object out, and
    # a dict store under the GIL is cheap and idempotent
    _STACKS[threading.get_ident()] = stack
    return stack


def open_spans() -> list:
    """Every live span in the process, outermost first per thread.

    Read by the resource-profiler thread to attribute a sample to the
    spans open at sampling time.  Thread-safe to *read* under the GIL
    (list append/pop are atomic); the snapshot may be one span stale,
    which is fine for sampling.
    """
    out = []
    for stack in list(_STACKS.values()):
        out.extend(stack)
    return out


class Span:
    """One timed, attributed, nestable block of work."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "depth",
        "parent_name",
        "trace_id",
        "span_id",
        "parent_id",
        "t_start",
        "wall_s",
        "cpu_s",
        "rss_peak",
        "measures",
        "_cpu_start",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.depth = 0
        self.parent_name: str | None = None
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.t_start = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_peak = 0  # peak RSS bytes sampled while open (profiler)
        self.measures: dict | None = None
        self._cpu_start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes mid-flight (e.g. a result count)."""
        self.attrs.update(attrs)

    def measure(self, **values) -> None:
        """Attach measured values (seconds, bytes) to the span's record.

        They land in the record's ``measures`` object, beside
        ``wall_s`` and ``cpu_s``, not in ``attrs``: attributes say what
        the span is about and repeat exactly from run to run, while
        measurements vary with the machine.
        """
        if self.measures is None:
            self.measures = {}
        self.measures.update(values)

    def __enter__(self) -> "Span":
        global _TRACE_ID
        if _TRACE_ID is None:
            _TRACE_ID = new_trace_id()
        self.trace_id = _TRACE_ID
        self.span_id = new_span_id()
        stack = _stack()
        parent = stack[-1] if stack else getattr(_LOCAL, "adopted", None)
        if parent is not None:
            self.depth = parent.depth + 1
            self.parent_name = parent.name
            self.parent_id = parent.span_id
            parent.children.append(self)
        else:
            self.parent_id = _BOUNDARY_PARENT
        stack.append(self)
        self.t_start = time.time()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cpu_s = time.process_time() - self._cpu_start
        self.wall_s = max(time.time() - self.t_start, 0.0)
        self._close(exc_type)

    def _close(self, exc_type) -> None:
        """Pop this span and emit its record from the times it holds."""
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if not ENABLED:  # disabled mid-span: drop silently
            return
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _COLLECTOR.add(self.name, self.wall_s, self.cpu_s, self.rss_peak)
        _REGISTRY.counter(
            "spans_total", "spans completed, by span name"
        ).inc(name=self.name)
        record = {
            "type": "span",
            "t": self.t_start,
            "name": self.name,
            "attrs": self.attrs,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "depth": self.depth,
            "parent": self.parent_name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.rss_peak:
            record["rss_peak_bytes"] = int(self.rss_peak)
        if self.measures:
            record["measures"] = self.measures
        _emit(record)

    def tree(self, indent: int = 0) -> str:
        """Render this span's subtree, one line per span."""
        lines = [f"{'  ' * indent}{self.name} {self.wall_s * 1e3:.2f} ms"]
        for child in self.children:
            lines.append(child.tree(indent + 1))
        return "\n".join(lines)


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []
    wall_s = 0.0
    cpu_s = 0.0
    rss_peak = 0
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    def set(self, **attrs) -> None:
        pass

    def measure(self, **values) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def tree(self, indent: int = 0) -> str:
        return ""


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Context manager timing one named block (no-op when disabled)."""
    if not ENABLED:
        return _NULL_SPAN
    return Span(name, attrs)


def past_span(name: str, start: float, end: float, cpu_s: float, **attrs) -> None:
    """Emit a span for a block that ran before observability was on.

    ``start`` and ``end`` are ``time.perf_counter()`` readings and
    ``cpu_s`` the block's CPU time; the record's wall-clock start is
    ``start`` carried over to ``time.time()``.  No-op when disabled.
    """
    if not ENABLED:
        return
    done = Span(name, attrs)
    done.__enter__()
    done.t_start = time.time() - (time.perf_counter() - start)
    done.wall_s = max(end - start, 0.0)
    done.cpu_s = cpu_s
    done._close(None)


class _Adoption:
    """While open, this thread's root spans parent on ``parent``."""

    __slots__ = ("parent", "_before")

    def __init__(self, parent: Span) -> None:
        self.parent = parent
        self._before = None

    def __enter__(self) -> Span:
        self._before = getattr(_LOCAL, "adopted", None)
        _LOCAL.adopted = self.parent
        return self.parent

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.adopted = self._before


def under(parent):
    """Context manager: open this thread's spans under ``parent``.

    ``parent`` is a live span of another thread, typically the
    ``pipeline.job`` span of the thread that started this one.  Span
    stacks are per thread, so without it a helper thread's first span
    is a root, parented only on the process's boundary context.  No-op
    when disabled (or when ``parent`` is the null span).
    """
    if not ENABLED or not isinstance(parent, Span):
        return _NULL_SPAN
    return _Adoption(parent)


def current_span():
    """The innermost live span of this thread, or ``None``."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


# -- events and metric helpers -------------------------------------------------


def event(name: str, **attrs) -> None:
    """Log one discrete occurrence (emergency onset, actuation, ...)."""
    if not ENABLED:
        return
    _REGISTRY.counter("events_total", "discrete events by name").inc(
        event=name
    )
    _emit(
        {
            "type": "event",
            "t": time.time(),
            "name": name,
            "attrs": attrs,
            "trace_id": _TRACE_ID,
            "pid": os.getpid(),
        }
    )


def counter_inc(name: str, value: float = 1.0, help: str = "", **labels) -> None:
    """Bump a counter (no-op when disabled)."""
    if not ENABLED:
        return
    _REGISTRY.counter(name, help).inc(value, **labels)


def gauge_set(name: str, value: float, help: str = "", **labels) -> None:
    """Set a gauge (no-op when disabled)."""
    if not ENABLED:
        return
    _REGISTRY.gauge(name, help).set(value, **labels)


def histogram_observe(
    name: str,
    value: float,
    help: str = "",
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    **labels,
) -> None:
    """Record one histogram sample (no-op when disabled)."""
    if not ENABLED:
        return
    _REGISTRY.histogram(name, help, buckets=buckets).observe(value, **labels)
