"""Exporters: JSONL event log, console summary, Prometheus, Chrome trace.

Four consumers of the same telemetry:

* :class:`JsonlWriter` streams one JSON object per line — spans and
  events as they complete, final metric totals at ``finish()`` — giving
  a machine-readable run log that ``repro obs report`` can re-aggregate.
* :func:`summary_table` renders the end-of-run console view: a
  per-span-name latency table plus cache and event counters.
* Prometheus text format comes straight from
  :meth:`~repro.obs.registry.MetricsRegistry.to_prometheus`; see
  ``docs/OBSERVABILITY.md`` for a scrape example.
* :func:`chrome_trace` converts a record stream into the Chrome
  trace-event JSON format, so a multi-process batch renders as one
  timeline in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``
  — spans become complete (``X``) events on their process/thread track,
  events become instants, profiler samples become counter tracks.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from .registry import MetricsRegistry

__all__ = [
    "JsonlWriter",
    "SpanCollector",
    "chrome_trace",
    "summary_table",
    "write_chrome_trace",
]


class JsonlWriter:
    """Append-only JSON-lines record sink.

    Safe to share between threads: each record is one whole line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.records = 0

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            # flush per record: forked workers must never inherit
            # buffered lines (their exit-time flush would duplicate them)
            self._fh.flush()
            self.records += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class SpanCollector:
    """Per-span-name aggregation (count, wall, CPU, max, peak RSS)."""

    def __init__(self) -> None:
        self._stats: dict[str, list[float]] = {}

    def add(
        self, name: str, wall_s: float, cpu_s: float, rss_bytes: float = 0
    ) -> None:
        stats = self._stats.get(name)
        if stats is None:
            self._stats[name] = [1, wall_s, cpu_s, wall_s, rss_bytes]
        else:
            stats[0] += 1
            stats[1] += wall_s
            stats[2] += cpu_s
            stats[3] = max(stats[3], wall_s)
            stats[4] = max(stats[4], rss_bytes)

    def reset(self) -> None:
        self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)

    def rows(self) -> dict[str, dict[str, float]]:
        """``{name: {count, wall_s, cpu_s, max_s, mean_s, rss_peak_bytes}}``,
        sorted by wall."""
        out = {}
        for name, (count, wall, cpu, peak, rss) in sorted(
            self._stats.items(), key=lambda kv: -kv[1][1]
        ):
            out[name] = {
                "count": int(count),
                "wall_s": wall,
                "cpu_s": cpu,
                "max_s": peak,
                "mean_s": wall / count if count else 0.0,
                "rss_peak_bytes": int(rss),
            }
        return out


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    families = {m.name: m for m in registry.families()}
    metric = families.get(name)
    if metric is None or metric.kind != "counter":
        return 0.0
    return sum(metric._series.values())


def summary_table(collector: SpanCollector, registry: MetricsRegistry) -> str:
    """The end-of-run console summary: spans, cache traffic, events."""
    from .. import viz

    lines = []
    rows = collector.rows()
    if rows:
        with_rss = any(s["rss_peak_bytes"] for s in rows.values())
        headers = ["count", "wall s", "mean ms", "max ms", "cpu s"]
        if with_rss:
            headers.append("rss MB")
        table_rows = {}
        for name, s in rows.items():
            cells = [
                s["count"],
                f"{s['wall_s']:.3f}",
                f"{s['mean_s'] * 1e3:.1f}",
                f"{s['max_s'] * 1e3:.1f}",
                f"{s['cpu_s']:.3f}",
            ]
            if with_rss:
                cells.append(f"{s['rss_peak_bytes'] / 1e6:.1f}")
            table_rows[name] = cells
        lines.append(
            viz.table(
                table_rows,
                headers=headers,
                title="observability summary — spans",
            )
        )
    hits = _counter_total(registry, "pipeline_cache_hits_total")
    misses = _counter_total(registry, "pipeline_cache_misses_total")
    if hits or misses:
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        lines.append(
            f"cache: {hits:.0f} hits / {misses:.0f} misses "
            f"({rate:.0f}% hit rate)"
        )
    events = _counter_total(registry, "events_total")
    if events:
        lines.append(f"events: {events:.0f} logged")
    if not lines:
        return "observability summary: nothing recorded"
    return "\n".join(lines)


# -- Chrome trace-event format -------------------------------------------------


def chrome_trace(records: list[dict]) -> dict:
    """Obs records as a Chrome trace-event JSON document.

    Spans become complete (``"ph": "X"``) duration events laid out on
    their originating ``pid``/``tid`` track; events become thread-scoped
    instants (``"ph": "i"``); profiler samples become RSS/CPU counter
    tracks (``"ph": "C"``).  Every span's ``args`` carries its
    ``trace_id`` / ``span_id`` / ``parent_id``, so the causal tree
    survives the conversion even though the Chrome format itself only
    knows tracks — tooling (and the CI smoke assertions) can rebuild the
    tree with :func:`repro.obs.context.span_tree`.
    """
    events: list[dict] = []
    trace_ids = set()
    for r in records:
        kind = r.get("type")
        t_us = float(r.get("t", 0.0)) * 1e6
        pid = r.get("pid", 0)
        if kind == "span":
            if r.get("trace_id"):
                trace_ids.add(r["trace_id"])
            args = dict(r.get("attrs") or {})
            args.update(
                trace_id=r.get("trace_id"),
                span_id=r.get("span_id"),
                parent_id=r.get("parent_id"),
                cpu_s=r.get("cpu_s"),
            )
            if r.get("rss_peak_bytes"):
                args["rss_peak_bytes"] = r["rss_peak_bytes"]
            args.update(r.get("measures") or {})
            events.append(
                {
                    "name": r["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": t_us,
                    "dur": max(float(r.get("wall_s", 0.0)) * 1e6, 0.001),
                    "pid": pid,
                    "tid": r.get("tid", pid),
                    "args": args,
                }
            )
        elif kind == "event":
            events.append(
                {
                    "name": r["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "p",  # process-scoped instant
                    "ts": t_us,
                    "pid": pid,
                    "tid": r.get("tid", pid),
                    "args": dict(r.get("attrs") or {}),
                }
            )
        elif kind == "sample":
            events.append(
                {
                    "name": "resources",
                    "cat": "profile",
                    "ph": "C",
                    "ts": t_us,
                    "pid": pid,
                    "args": {
                        "rss_mb": round(r.get("rss_bytes", 0) / 1e6, 3),
                        "cpu_s": round(r.get("cpu_s", 0.0), 4),
                    },
                }
            )
    doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if trace_ids:
        doc["otherData"] = {"trace_ids": sorted(trace_ids)}
    return doc


def write_chrome_trace(records: list[dict], path: str | Path) -> int:
    """Write ``records`` as a Chrome trace file; returns the event count."""
    doc = chrome_trace(records)
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, default=str) + "\n", encoding="utf-8")
    return len(doc["traceEvents"])
