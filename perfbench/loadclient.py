"""Open-loop HTTP client for ``repro serve``, owned by the benchmark.

Requests are sent on a fixed schedule whatever the server does, and each
is timed from the moment it was *due*, so a stall delays and is charged
to every later request.  At most ``max_inflight`` connections are open at
once; a request that waits for a free connection is late, and the wait
counts in its latency and in the generator's lateness.  Refused (429 /
503) or failed requests are kept, as failures.  Every JSONL event of a
response stream is timestamped as it arrives, which gives each request's
server phases from the wire.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import time
from dataclasses import dataclass, field

#: A request still streaming after this long is abandoned as failed.
REQUEST_TIMEOUT_S = 60.0
#: The idle probe runs only when no request is due for at least this long.
IDLE_GAP_S = 0.15


@dataclass
class Reply:
    """One request's fate: status, and every event with its arrival time."""

    key: str
    due: float  # absolute perf_counter time the request was due
    sent: float = 0.0
    status: int = 0
    events: list[tuple[float, dict]] = field(default_factory=list)
    error: str | None = None

    def first(self, kind: str, state: str | None = None) -> float | None:
        for t, event in self.events:
            if event.get("type") == kind and (
                state is None or event.get("state") == state
            ):
                return t
        return None

    @property
    def result(self) -> dict | None:
        for _, event in self.events:
            if event.get("type") == "result":
                return event
        return None

    @property
    def ok(self) -> bool:
        done = [e for _, e in self.events if e.get("type") == "done"]
        return (
            self.status == 200
            and self.error is None
            and bool(done)
            and bool(done[-1].get("ok"))
            and self.result is not None
        )

    @property
    def finished(self) -> float | None:
        return self.first("done")


async def _read_headers(reader) -> tuple[int, dict]:
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split()
    status = int(parts[1]) if len(parts) > 1 else 0
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def http_get_json(host: str, port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        _, headers = await _read_headers(reader)
        body = await reader.readexactly(int(headers.get("content-length", 0)))
        return json.loads(body)
    finally:
        writer.close()


async def _post_stream(host: str, port: int, payload: dict, reply: Reply) -> None:
    body = json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"POST /v1/characterize HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        reply.status, headers = await _read_headers(reader)
        if headers.get("transfer-encoding") != "chunked":
            length = int(headers.get("content-length", 0))
            doc = json.loads(await reader.readexactly(length) or b"{}")
            reply.error = str(doc.get("error", f"HTTP {reply.status}"))
            return
        while True:
            size = int((await reader.readline()).strip() or b"0", 16)
            if size == 0:
                break
            chunk = await reader.readexactly(size + 2)
            arrived = time.perf_counter()
            for line in chunk[:-2].splitlines():
                if line.strip():
                    reply.events.append((arrived, json.loads(line)))
    finally:
        writer.close()


async def run_schedule(
    host: str,
    port: int,
    schedule: list[tuple[float, str, dict]],
    max_inflight: int,
    idle_probe=None,
) -> tuple[float, list[Reply]]:
    """Send ``(offset_s, key, payload)`` requests open-loop.

    ``idle_probe``, if given, is called every tenth of a second in which
    no request is in flight and none is due for ``IDLE_GAP_S``, so it
    delays no request.

    Returns the schedule's start time and one :class:`Reply` per request,
    in schedule order.
    """
    slots = asyncio.Semaphore(max_inflight)
    t0 = time.perf_counter() + 0.05
    dues = sorted(t0 + offset for offset, _, _ in schedule)
    started = finished = 0

    async def one(offset: float, key: str, payload: dict) -> Reply:
        nonlocal started, finished
        reply = Reply(key=key, due=t0 + offset)
        await asyncio.sleep(max(0.0, reply.due - time.perf_counter()))
        started += 1
        try:
            async with slots:
                reply.sent = time.perf_counter()
                try:
                    await asyncio.wait_for(
                        _post_stream(host, port, payload, reply),
                        REQUEST_TIMEOUT_S,
                    )
                except (OSError, asyncio.TimeoutError, ValueError) as exc:
                    reply.error = f"{type(exc).__name__}: {exc}"
        finally:
            finished += 1
        return reply

    async def probe_when_idle() -> None:
        while True:
            await asyncio.sleep(0.1)
            now = time.perf_counter()
            due = bisect.bisect_right(dues, now + IDLE_GAP_S)
            if started == finished == due:
                idle_probe()

    tasks = [
        asyncio.create_task(one(offset, key, payload))
        for offset, key, payload in schedule
    ]
    prober = asyncio.create_task(probe_when_idle()) if idle_probe else None
    try:
        return t0, list(await asyncio.gather(*tasks))
    finally:
        if prober is not None:
            prober.cancel()
