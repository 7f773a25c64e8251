"""The characterization service's wire protocol.

One request = one JSON document POSTed to ``/v1/characterize`` (or
``/v1/monitor`` — the path is an alias; ``kind`` selects the stage
chain).  The trace a request characterizes arrives one of three ways:

* **named workload** — ``{"benchmark": "gzip", "cycles": 32768}``
  simulates the SPEC2000 workload model on the server (the batch
  pipeline's ``simulate`` stage);
* **store reference** — ``{"trace_id": "tr-..."}`` names a trace in the
  server's configured :class:`~repro.store.TraceStore`; workers attach
  it zero-copy (``load_trace`` stage);
* **inline upload** — ``{"trace": {"samples": [...], "label": "x"}}``
  ships the samples in the request body; the server ingests them into
  its *spool* store (content-addressed, so re-uploads dedupe) and the
  job again runs by reference.

Every accepted request maps to exactly one
:class:`~repro.pipeline.JobSpec`, which is what makes the serving layer
inherit the whole batch substrate for free: the spec digest is the
coalescing key, the content-addressed cache serves repeats without a
worker, and fault tolerance/observability apply unchanged.

The response is a stream of JSONL events (chunked transfer, one event
per line)::

    {"type": "accepted", "request_id": ..., "digest": ...}
    {"type": "status", "state": "queued" | "coalesced" | "cached" |
     "dispatched" | "draining", ...}
    {"type": "result", "ok": true, "benchmark": ..., ...}
    {"type": "error", "kind": "exception" | "timeout" | "crash", ...}
    {"type": "done", "ok": ..., "phases": {"queue_s": ..., "compute_s": ...}}

Requests rejected *before* acceptance get a plain JSON error body with
an HTTP status instead: 400 (malformed), 429 (quota, with
``retry_after_s``), 503 (admission queue full, or draining).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError, SpecError
from ..pipeline.spec import (
    DEFAULT_STAGES,
    SCENARIO_STAGES,
    STORE_STAGES,
    JobSpec,
)
from ..workloads import SPEC2000

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_KINDS",
    "AdmissionError",
    "DrainingError",
    "QuotaError",
    "RequestError",
    "ServeRequest",
    "build_spec",
    "error_event",
    "parse_request",
    "result_event",
]

#: Bump on incompatible wire-format changes; echoed in ``accepted``.
PROTOCOL_VERSION = 1

#: ``characterize`` runs the §4 estimate-vs-truth chain; ``control``
#: (the "monitor" flow) runs one closed-loop §5 control experiment.
REQUEST_KINDS = ("characterize", "control")

#: Inline uploads above this many samples are refused — ship big traces
#: through the store instead (`repro store ingest` + by-reference).
MAX_INLINE_SAMPLES = 4_000_000


class RequestError(ReproError, ValueError):
    """A malformed or unsatisfiable request (HTTP 400)."""


class QuotaError(ReproError):
    """The client's token bucket is empty (HTTP 429)."""


class AdmissionError(ReproError):
    """The admission queue is full — back off and retry (HTTP 503)."""


class DrainingError(ReproError):
    """The server is draining and accepts no new work (HTTP 503)."""


@dataclass(frozen=True)
class ServeRequest:
    """One validated request, pre-spec: plain values only."""

    kind: str = "characterize"
    benchmark: str | None = None
    trace_id: str | None = None
    samples: tuple[float, ...] | None = None
    label: str | None = None
    scenario: str | None = None
    cycles: int = 32768
    seed: int | None = None
    warmup_cycles: int = 4096
    window: int = 256
    threshold: float = 0.97
    impedance: float = 150.0
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    client: str | None = None

    @property
    def source(self) -> str:
        """How the trace arrives: ``workload`` / ``ref`` / ``inline`` /
        ``scenario``."""
        if self.samples is not None:
            return "inline"
        if self.trace_id is not None:
            return "ref"
        if self.scenario is not None:
            return "scenario"
        return "workload"


def _require(condition: bool, message: str, **details) -> None:
    if not condition:
        raise RequestError(message, **details)


def parse_request(payload: dict) -> ServeRequest:
    """Validate one request document into a :class:`ServeRequest`.

    Raises :class:`RequestError` (→ HTTP 400) on anything malformed;
    the message is safe to echo to the client.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    kind = payload.get("kind", "characterize")
    _require(
        kind in REQUEST_KINDS,
        f"unknown kind {kind!r}; expected one of {REQUEST_KINDS}",
        kind=str(kind),
    )
    benchmark = payload.get("benchmark")
    trace_id = payload.get("trace_id")
    trace = payload.get("trace")
    scenario = payload.get("scenario")
    sources = sum(
        x is not None for x in (benchmark, trace_id, trace, scenario)
    )
    _require(
        sources == 1,
        "give exactly one trace source: 'benchmark' (named workload), "
        "'trace_id' (store reference), 'trace' (inline upload) or "
        "'scenario' (named stress scenario / schedule expression)",
    )
    if scenario is not None:
        _require(
            kind == "characterize",
            "control requests need a named workload (the closed loop "
            "re-executes the machine, not a composed scenario)",
        )
        _require(
            isinstance(scenario, str) and scenario.strip(),
            "'scenario' must be a non-empty string",
        )
        from ..scenarios import resolve_scenario

        try:
            resolve_scenario(scenario)
        except SpecError as exc:
            # unknown name / malformed expression → HTTP 400 with the
            # valid-name lists in the structured details
            raise RequestError(str(exc), **exc.details) from None
    samples: tuple[float, ...] | None = None
    label = None
    if trace is not None:
        _require(
            kind == "characterize",
            "control requests need a named workload (the closed loop "
            "re-executes the machine, not a recorded trace)",
        )
        _require(
            isinstance(trace, dict) and isinstance(trace.get("samples"), list),
            "inline 'trace' must be {'samples': [...], 'label': ...}",
        )
        raw = trace["samples"]
        _require(len(raw) > 0, "inline trace has no samples")
        _require(
            len(raw) <= MAX_INLINE_SAMPLES,
            f"inline trace too large ({len(raw)} samples > "
            f"{MAX_INLINE_SAMPLES}); ingest it into a store and send a "
            "trace_id instead",
            samples=len(raw),
        )
        try:
            samples = tuple(float(v) for v in raw)
        except (TypeError, ValueError):
            raise RequestError(
                "inline trace samples must be numbers"
            ) from None
        label = str(trace.get("label") or "inline")
    if trace_id is not None:
        _require(
            kind == "characterize",
            "control requests need a named workload (the closed loop "
            "re-executes the machine, not a recorded trace)",
        )
        _require(
            isinstance(trace_id, str) and trace_id,
            "'trace_id' must be a non-empty string",
        )
    if benchmark is not None:
        _require(
            benchmark in SPEC2000,
            f"unknown benchmark {benchmark!r}; see `repro list`",
            benchmark=str(benchmark),
        )

    def number(name, default, cast, minimum=None):
        value = payload.get(name, default)
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise RequestError(
                f"{name!r} must be a number, got {value!r}", field=name
            ) from None
        if minimum is not None and value < minimum:
            raise RequestError(
                f"{name!r} must be >= {minimum}", field=name
            )
        return value

    seed = payload.get("seed")
    _require(
        seed is None or isinstance(seed, int),
        "'seed' must be an integer or null",
    )
    params = payload.get("params") or {}
    _require(
        isinstance(params, dict)
        and all(
            isinstance(v, (str, int, float, bool, type(None)))
            for v in params.values()
        ),
        "'params' must be an object of scalar values",
    )
    client = payload.get("client")
    _require(
        client is None or isinstance(client, str),
        "'client' must be a string",
    )
    return ServeRequest(
        kind=kind,
        benchmark=benchmark,
        trace_id=trace_id,
        samples=samples,
        label=label,
        scenario=scenario,
        cycles=number("cycles", 32768, int, minimum=1),
        seed=seed,
        warmup_cycles=number("warmup_cycles", 4096, int, minimum=0),
        window=number("window", 256, int, minimum=2),
        threshold=number("threshold", 0.97, float),
        impedance=number("impedance", 150.0, float, minimum=1.0),
        params=tuple(sorted(params.items())),
        client=client,
    )


def build_spec(request: ServeRequest, *, network_for, store, spool) -> JobSpec:
    """One request → one :class:`~repro.pipeline.JobSpec`.

    ``network_for(impedance)`` supplies the calibrated supply network;
    ``store`` is the server's read-only reference corpus (or ``None``);
    ``spool`` is the append-mode store inline uploads are ingested into
    (or ``None`` to refuse uploads).
    """
    network = network_for(request.impedance)
    common = dict(
        cycles=request.cycles,
        seed=request.seed,
        warmup_cycles=request.warmup_cycles,
        window=request.window,
        threshold=request.threshold,
        impedance=request.impedance,
    )
    if request.kind == "control":
        return JobSpec.make(
            request.benchmark,
            network=network,
            stages=("control",),
            params=dict(request.params) or {"scheme": "wavelet"},
            **common,
        )
    if request.source == "workload":
        return JobSpec.make(
            request.benchmark,
            network=network,
            stages=DEFAULT_STAGES,
            **common,
        )
    if request.source == "scenario":
        from ..scenarios import resolve_scenario, scenario_param

        try:
            scenario = resolve_scenario(request.scenario)
        except SpecError as exc:  # re-validated post-parse; same mapping
            raise RequestError(str(exc), **exc.details) from None
        return JobSpec.make(
            scenario.name,
            network=network,
            stages=SCENARIO_STAGES,
            params={"scenario": scenario_param(scenario)},
            **common,
        )
    if request.source == "ref":
        if store is None:
            raise RequestError(
                "this server has no trace store configured "
                "(start it with --store DIR to serve by-reference "
                "requests)"
            )
        record = next(
            (r for r in store.records() if r.trace_id == request.trace_id),
            None,
        )
        if record is None:
            raise RequestError(
                f"trace {request.trace_id!r} not found in the server's "
                "store",
                trace_id=request.trace_id,
            )
        generator = record.generator or {}
        common["cycles"] = record.cycles
        common["seed"] = generator.get("seed")
        common["warmup_cycles"] = int(generator.get("warmup_cycles", 0))
        return JobSpec.make(
            record.benchmark,
            network=network,
            stages=STORE_STAGES,
            trace=store.ref(record),
            **common,
        )
    # inline upload → spool store (idempotent: the store's content hash
    # dedupes byte-identical re-uploads into one stored trace)
    if spool is None:
        raise RequestError(
            "this server accepts no inline uploads (no spool store)"
        )
    samples = np.asarray(request.samples, dtype=np.float64)
    record = spool.ingest(samples, request.label or "inline")
    common["cycles"] = record.cycles
    common["seed"] = None
    common["warmup_cycles"] = 0
    return JobSpec.make(
        record.benchmark,
        network=network,
        stages=STORE_STAGES,
        trace=spool.ref(record),
        **common,
    )


# -- response events -----------------------------------------------------------


def result_event(request_id: str, outcome) -> dict:
    """The terminal ``result`` event of a successful job."""
    summary: dict[str, object] = {}
    characterize = outcome.artifacts.get("characterize")
    voltage = outcome.artifacts.get("voltage")
    control = outcome.artifacts.get("control")
    if characterize is not None:
        summary["estimated"] = characterize["estimated"]
    if voltage is not None:
        summary["observed"] = voltage["observed"]
        if "estimated" in summary:
            summary["error"] = summary["estimated"] - voltage["observed"]
    if control is not None:
        summary.update(
            {
                k: control[k]
                for k in (
                    "scheme",
                    "slowdown",
                    "baseline_faults",
                    "controlled_faults",
                )
                if k in control
            }
        )
    return {
        "type": "result",
        "request_id": request_id,
        "ok": True,
        "benchmark": outcome.spec.benchmark,
        "stages": list(outcome.spec.stages),
        "cache_hit": bool(outcome.cache_hits)
        and all(outcome.cache_hits.values()),
        "attempts": outcome.attempts,
        "elapsed_s": round(outcome.elapsed, 6),
        **summary,
    }


def error_event(request_id: str, outcome) -> dict:
    """The terminal ``error`` event of a failed job (structured, never a
    raw traceback)."""
    failure = outcome.failure() or {}
    return {
        "type": "error",
        "request_id": request_id,
        "ok": False,
        "benchmark": outcome.spec.benchmark,
        "kind": failure.get("kind", "exception"),
        "stage": failure.get("stage"),
        "attempts": failure.get("attempts", outcome.attempts),
        "message": failure.get("error", ""),
    }


def encode_event(event: dict) -> bytes:
    """One event as a JSONL line (the unit the server streams)."""
    return (json.dumps(event, sort_keys=True, default=str) + "\n").encode(
        "utf-8"
    )
