"""Deterministic load generation against a live ``repro serve``.

Three arrival patterns, all driven by one seeded PRNG so a run is
reproducible end to end (same seed + same knobs → the same request
sequence at the same offsets):

* ``constant`` — evenly spaced arrivals at ``rate`` requests/second;
* ``poisson`` — exponential inter-arrival gaps at mean ``1/rate`` (the
  "heavy traffic from millions of users" shape: memoryless arrivals
  with real bursts and lulls);
* ``burst`` — arrivals in back-to-back groups of ``burst_size``, groups
  spaced so the long-run rate still averages ``rate`` — the worst case
  for admission control and the best case for batch coalescing.

The request mix cycles deterministically over a benchmark list, so a
second identical run re-requests the same specs — which is exactly how
the cache-hit ratio acceptance check works: run once cold, run again,
and the second pass must be answered from the content-addressed cache
with zero pool dispatches.

The module also carries the minimal asyncio HTTP/1.1 client the
generator (and the test battery) uses: plain requests with
Content-Length bodies and chunked JSONL event-stream responses, its
status line and headers read by :func:`repro.obs.http.read_head`.
:func:`summarize` turns one run into the JSON summary ``repro loadgen
--output`` writes.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

from ..obs.http import read_head

__all__ = [
    "HttpResponse",
    "build_requests",
    "build_schedule",
    "http_request",
    "percentile",
    "run_loadgen",
    "summarize",
]

PATTERNS = ("constant", "poisson", "burst")

#: The default deterministic request mix (small SPEC2000 subset).
DEFAULT_BENCHMARKS = ("gzip", "gcc", "mcf", "art")


# -- deterministic schedules ---------------------------------------------------


def build_schedule(
    pattern: str,
    *,
    rate: float,
    count: int,
    seed: int = 0,
    burst_size: int = 4,
) -> tuple[float, ...]:
    """Arrival offsets (seconds from start) for ``count`` requests.

    Pure function of its arguments — the loadgen determinism contract.
    """
    if pattern not in PATTERNS:
        raise ValueError(
            f"unknown arrival pattern {pattern!r}; expected one of "
            f"{PATTERNS}"
        )
    if rate <= 0:
        raise ValueError("rate must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    if pattern == "constant":
        return tuple(i / rate for i in range(count))
    if pattern == "poisson":
        rng = random.Random(seed)
        t = 0.0
        offsets = []
        for _ in range(count):
            offsets.append(t)
            t += rng.expovariate(rate)
        return tuple(offsets)
    # burst: groups of burst_size arriving together, spaced so the
    # long-run average is still `rate`
    burst_size = max(1, int(burst_size))
    gap = burst_size / rate
    return tuple((i // burst_size) * gap for i in range(count))


def build_requests(
    count: int,
    *,
    seed: int = 0,
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    cycles: int = 2048,
    warmup_cycles: int = 0,
    window: int = 64,
    client: str = "loadgen",
) -> tuple[dict, ...]:
    """The deterministic request mix: ``count`` payload documents.

    Benchmarks cycle in seeded-shuffle order; seeds for the simulated
    workloads come from the same PRNG, so two runs with the same
    arguments request byte-identical spec digests (the cache-hit
    contract between a cold and a warm pass).
    """
    rng = random.Random(seed)
    order = list(benchmarks)
    rng.shuffle(order)
    payloads = []
    for i in range(count):
        payloads.append(
            {
                "kind": "characterize",
                "benchmark": order[i % len(order)],
                "cycles": cycles,
                "warmup_cycles": warmup_cycles,
                "window": window,
                "seed": rng.randrange(2**31),
                "client": client,
            }
        )
    return tuple(payloads)


# -- minimal asyncio HTTP client -----------------------------------------------


class HttpResponse:
    """One parsed response: status, headers, body, and (for JSONL
    streams) the decoded event list."""

    def __init__(self, status: int, headers: dict, body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def events(self) -> list[dict]:
        """The body as decoded JSONL events (empty for non-stream
        bodies that fail to parse line-wise)."""
        events = []
        for line in self.body.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                return []
        return events

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | dict | None = None,
    headers: dict | None = None,
    timeout: float = 60.0,
) -> HttpResponse:
    """One HTTP/1.1 request; handles Content-Length and chunked bodies.

    A chunked JSONL stream is read to its terminal chunk, so the
    returned ``events`` list always ends with the server's ``done``
    event (or the connection raised).
    """
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    body = body or b""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if body:
            head.append("Content-Type: application/json")
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

        parts, resp_headers = await read_head(reader, timeout)
        if len(parts) < 2:
            raise ConnectionError(f"bad status line {' '.join(parts)!r}")
        status = int(parts[1])

        if resp_headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = []
            while True:
                size_line = await asyncio.wait_for(reader.readline(), timeout)
                size = int(size_line.strip() or b"0", 16)
                data = await asyncio.wait_for(
                    reader.readexactly(size + 2), timeout
                )
                if size == 0:
                    break
                chunks.append(data[:-2])
            payload = b"".join(chunks)
        elif "content-length" in resp_headers:
            payload = await asyncio.wait_for(
                reader.readexactly(int(resp_headers["content-length"])),
                timeout,
            )
        else:
            payload = await asyncio.wait_for(reader.read(), timeout)
        return HttpResponse(status, resp_headers, payload)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# -- the generator -------------------------------------------------------------


async def _one_request(
    host: str, port: int, payload: dict, timeout: float
) -> dict:
    """Fire one request and distill its outcome for the summary."""
    t0 = time.monotonic()
    try:
        response = await http_request(
            host, port, "POST", "/v1/characterize", payload, timeout=timeout
        )
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        return {
            "status": 0,
            "ok": False,
            "cached": False,
            "coalesced": False,
            "latency_s": time.monotonic() - t0,
            "error": f"{type(exc).__name__}: {exc}",
        }
    latency = time.monotonic() - t0
    events = response.events if response.status == 200 else []
    states = {
        e.get("state") for e in events if e.get("type") == "status"
    }
    result = next(
        (e for e in events if e.get("type") == "result"), None
    )
    done = next((e for e in events if e.get("type") == "done"), None)
    return {
        "status": response.status,
        "ok": bool(done and done.get("ok")),
        "cached": "cached" in states
        or bool(result and result.get("cache_hit")),
        "coalesced": "coalesced" in states,
        "latency_s": latency,
    }


async def run_loadgen(
    host: str,
    port: int,
    *,
    pattern: str = "poisson",
    rate: float = 20.0,
    count: int = 20,
    seed: int = 0,
    burst_size: int = 4,
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    cycles: int = 2048,
    window: int = 64,
    timeout: float = 120.0,
    client: str = "loadgen",
) -> dict:
    """Replay one deterministic schedule; returns the raw run record.

    The server's ``/stats`` endpoint is sampled before and after, so the
    summary can report *server-side* truth (dispatched jobs, fast-path
    answers) next to the client-side latencies.
    """
    schedule = build_schedule(
        pattern, rate=rate, count=count, seed=seed, burst_size=burst_size
    )
    payloads = build_requests(
        count,
        seed=seed,
        benchmarks=benchmarks,
        cycles=cycles,
        window=window,
        client=client,
    )
    stats_before = (
        await http_request(host, port, "GET", "/stats", timeout=timeout)
    ).json()

    t_start = time.monotonic()

    async def fire(offset: float, payload: dict) -> dict:
        delay = offset - (time.monotonic() - t_start)
        if delay > 0:
            await asyncio.sleep(delay)
        return await _one_request(host, port, payload, timeout)

    records = list(
        await asyncio.gather(
            *(fire(o, p) for o, p in zip(schedule, payloads))
        )
    )
    wall = time.monotonic() - t_start
    stats_after = (
        await http_request(host, port, "GET", "/stats", timeout=timeout)
    ).json()
    return {
        "pattern": pattern,
        "rate": rate,
        "count": count,
        "seed": seed,
        "records": records,
        "wall_s": wall,
        "stats_before": stats_before,
        "stats_after": stats_after,
    }


# -- summarization -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def summarize(run: dict, *, quick: bool = False) -> dict:
    """One run record → the summary document ``repro loadgen`` reports:
    client-side ``loadgen`` numbers and the ``server`` counter deltas."""
    records = run["records"]
    accepted = [r for r in records if r["status"] == 200]
    latencies = [r["latency_s"] for r in accepted]
    delta = {
        key: run["stats_after"].get(key, 0) - run["stats_before"].get(key, 0)
        for key in ("submitted", "cache_fastpath", "dispatched_jobs",
                    "coalesced", "batches")
    }
    cached = sum(1 for r in accepted if r["cached"])
    doc = {
        "quick": bool(quick),
        "loadgen": {
            "pattern": run["pattern"],
            "seed": run["seed"],
            "offered_rate_per_s": run["rate"],
            "requests": len(records),
            "accepted": len(accepted),
            "ok": sum(1 for r in accepted if r["ok"]),
            "rejected": len(records) - len(accepted),
            "wall_seconds": round(run["wall_s"], 6),
            "requests_per_s": (
                round(len(accepted) / run["wall_s"], 6)
                if run["wall_s"] > 0
                else 0.0
            ),
            "latency_p50_s": round(percentile(latencies, 50), 6),
            "latency_p99_s": round(percentile(latencies, 99), 6),
            "cache_hit_ratio": (
                round(cached / len(accepted), 6) if accepted else 0.0
            ),
        },
        "server": {
            "submitted": delta["submitted"],
            "cache_fastpath": delta["cache_fastpath"],
            "coalesced": delta["coalesced"],
            "dispatched_jobs": delta["dispatched_jobs"],
            "batches": delta["batches"],
        },
    }
    return doc


def write_bench(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
