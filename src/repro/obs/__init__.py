"""Zero-dependency observability: metrics, traces, profiling, live serving.

The paper's methodology is *watching* a running system — per-cycle
current, voltage-emergency counts, actuation rates, per-scale wavelet
energy — and this package makes the repro observable the same way:

* a **metrics registry** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram` with exponential buckets, labeled series) that
  merges worker-process contributions back through the pipeline
  executor's result channel;
* **tracing spans** (``with span("stage.simulate", benchmark="gzip"):``)
  with wall/CPU time, nesting and cross-process **trace context** — every
  batch gets a ``trace_id``, every span a ``span_id``/``parent_id`` that
  survive the supervisor→worker boundary, so a merged record stream
  rebuilds one causal tree per batch (:mod:`repro.obs.context`);
* an **event log** for discrete occurrences — voltage-emergency onsets,
  controller actuations, retries;
* a **continuous resource profiler**
  (:class:`~repro.obs.profiler.ResourceProfiler`) sampling /proc RSS,
  CPU and IO in the supervisor and each worker, attributing peaks to the
  open spans;
* **exporters**: a JSONL record stream, a Prometheus text dump, a Chrome
  trace-event file (Perfetto-viewable) and an end-of-run console
  summary, selected by the ``repro --obs`` flag and rendered offline by
  ``repro obs report`` / ``repro obs chrome``;
* a **live HTTP endpoint** (:class:`~repro.obs.serve.ObsServer`,
  ``--obs-listen HOST:PORT``) exposing ``/metrics``, ``/healthz`` and a
  streaming ``/events`` feed while a batch runs; it loads on first use,
  so a run without one never imports ``asyncio``.

Everything is gated on one module-level flag
(:data:`repro.obs.trace.ENABLED`), so instrumented code is no-op-cheap
when observability is off.  See ``docs/OBSERVABILITY.md``.
"""

from .context import TraceContext, new_span_id, new_trace_id, span_tree
from .export import (
    JsonlWriter,
    SpanCollector,
    chrome_trace,
    summary_table,
    write_chrome_trace,
)
from .profiler import ResourceProfiler, read_resources
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    exponential_buckets,
)
from .report import (
    load_records,
    registry_from_records,
    render_report,
    scan_records,
)
from .trace import (
    Span,
    absorb,
    add_subscriber,
    counter_inc,
    current_span,
    current_trace_id,
    disable,
    drain_records,
    enable,
    event,
    finish,
    gauge_set,
    histogram_observe,
    mode,
    open_spans,
    past_span,
    profile_interval,
    propagation_context,
    registry,
    remove_subscriber,
    set_trace_context,
    span,
    span_collector,
    under,
    worker_mode,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "ObsServer",
    "ResourceProfiler",
    "Span",
    "SpanCollector",
    "TraceContext",
    "absorb",
    "add_subscriber",
    "chrome_trace",
    "counter_inc",
    "current_span",
    "current_trace_id",
    "diff_snapshots",
    "disable",
    "drain_records",
    "enable",
    "enabled",
    "event",
    "exponential_buckets",
    "finish",
    "gauge_set",
    "histogram_observe",
    "load_records",
    "mode",
    "new_span_id",
    "new_trace_id",
    "open_spans",
    "parse_listen",
    "past_span",
    "profile_interval",
    "propagation_context",
    "read_resources",
    "registry",
    "registry_from_records",
    "remove_subscriber",
    "render_report",
    "scan_records",
    "set_trace_context",
    "span",
    "span_collector",
    "span_tree",
    "summary_table",
    "under",
    "worker_mode",
    "write_chrome_trace",
]


def __getattr__(name: str):
    if name in ("ObsServer", "parse_listen"):
        from . import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def enabled() -> bool:
    """Whether observability is currently on (the live flag)."""
    from . import trace

    return trace.ENABLED
