"""Characterization-as-a-service: the asyncio front-end over the batch
pipeline.

The batch substrate (PRs 1–6) made one characterization cheap —
content-addressed caching, vectorized kernels, a supervised pool, a
zero-copy trace store.  This package puts a *service* in front of it
for the paper's "heavy traffic from millions of users" regime:

* :mod:`~repro.serve.protocol` — the JSON request / JSONL
  event-stream wire format, and the mapping from one request to one
  :class:`~repro.pipeline.JobSpec`;
* :mod:`~repro.serve.coalescer` — digest-keyed request coalescing and
  batch dispatch (N identical concurrent requests → one pipeline job,
  N result streams) with bounded admission;
* :mod:`~repro.serve.quota` — per-client token-bucket rate limits;
* :mod:`~repro.serve.server` — the zero-dependency asyncio HTTP
  server (``repro serve``): cache hits answered without a worker,
  misses batched to the supervised pool, backpressure as explicit
  429/503, graceful drain on SIGTERM;
* :mod:`~repro.serve.loadgen` — deterministic constant/Poisson/burst
  load generation (``repro loadgen``) with a JSON run summary.

See ``docs/SERVE.md`` for the protocol and operational semantics.
"""

from .coalescer import BatchCoalescer, Subscription
from .loadgen import (
    HttpResponse,
    build_requests,
    build_schedule,
    http_request,
    percentile,
    run_loadgen,
    summarize,
)
from .protocol import (
    MAX_INLINE_SAMPLES,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    AdmissionError,
    DrainingError,
    QuotaError,
    RequestError,
    ServeRequest,
    build_spec,
    encode_event,
    error_event,
    parse_request,
    result_event,
)
from .quota import QuotaRegistry, TokenBucket
from .server import ServeConfig, ServeServer

__all__ = [
    "AdmissionError",
    "BatchCoalescer",
    "DrainingError",
    "HttpResponse",
    "MAX_INLINE_SAMPLES",
    "PROTOCOL_VERSION",
    "QuotaError",
    "QuotaRegistry",
    "REQUEST_KINDS",
    "RequestError",
    "ServeConfig",
    "ServeRequest",
    "ServeServer",
    "Subscription",
    "TokenBucket",
    "build_requests",
    "build_schedule",
    "build_spec",
    "encode_event",
    "error_event",
    "http_request",
    "parse_request",
    "percentile",
    "result_event",
    "run_loadgen",
    "summarize",
]
