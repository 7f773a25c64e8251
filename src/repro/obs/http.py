"""The package's one HTTP/1.1 layer, over ``asyncio`` streams.

Both HTTP servers run on it: the observability endpoint
(:class:`repro.obs.serve.ObsServer`) and ``repro serve``.  One request
per connection: the request line, headers and a ``Content-Length``
body in (capped at :data:`MAX_BODY_BYTES`, each read bounded by
:data:`READ_TIMEOUT_S`), then a ``Content-Length`` response or a
chunked stream out, always with ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
from collections import namedtuple
from urllib.parse import parse_qs, urlsplit

#: Hard cap on request bodies (inline traces included).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Per-read budget for the request line, each header and the body.
READ_TIMEOUT_S = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Payload Too Large",
            429: "Too Many Requests", 503: "Service Unavailable"}


class HttpError(Exception):
    """A request refused before any route runs: ``status`` and a message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: One parsed request; ``query`` holds each parameter's first value.
Request = namedtuple("Request", "method path query headers body")


async def read_head(reader, timeout: float = READ_TIMEOUT_S) -> tuple[list[str], dict]:
    """A request or status line's words, and the lower-cased headers."""
    start_line = await asyncio.wait_for(reader.readline(), timeout)
    headers: dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        if line in (b"\r\n", b"\n", b""):
            return start_line.decode("latin-1").split(), headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def read_request(reader) -> Request | None:
    """Read one request, or ``None`` if the client sent no request line.

    A ``Content-Length`` that is not a non-negative decimal integer is
    an :class:`HttpError` 400; one over the body cap a 413.
    """
    parts, headers = await read_head(reader)
    if len(parts) < 2:
        return None
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, f"bad Content-Length {length!r}")
    if int(length) > MAX_BODY_BYTES:
        raise HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
    body = b""
    if int(length):
        body = await asyncio.wait_for(reader.readexactly(int(length)), READ_TIMEOUT_S)
    url = urlsplit(parts[1])
    query = {name: values[0] for name, values in parse_qs(url.query).items()}
    return Request(parts[0].upper(), url.path, query, headers, body)


async def send(writer, code: int, content_type: str, body: bytes, extra_headers=None) -> None:
    """One complete ``Content-Length`` response."""
    head = [
        f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
        *(f"{name}: {value}" for name, value in (extra_headers or {}).items()),
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(body)
    await writer.drain()


async def send_json(writer, code: int, doc: dict, extra_headers=None) -> None:
    body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    await send(writer, code, "application/json", body, extra_headers)


def write_stream_head(writer) -> None:
    """Start a 200 chunked JSONL stream; :func:`send_chunk` follows."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n"
    )


async def send_chunk(writer, data: bytes) -> None:
    """One chunk of a stream; ``b""`` is the terminal chunk."""
    writer.write(f"{len(data):x}\r\n".encode("ascii"))
    writer.write(data + b"\r\n")
    await writer.drain()


class HttpServer:
    """``asyncio.start_server`` calling ``handler(request, writer)`` once
    per connection, counting open connections for drain.  A handler
    that returns false leaves the request to a 404."""

    def __init__(self, handler) -> None:
        self._handler = handler
        self._server = None
        self._open = 0
        self._idle = asyncio.Event()
        self._idle.set()

    async def start(self, host=None, port=None, *, sock=None) -> tuple[str, int]:
        """Bind (or adopt ``sock``) and accept; returns ``(host, port)``."""
        self._server = await asyncio.start_server(self._connection, host, port, sock=sock)
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Stop accepting, then return once no connection is open."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()

    async def _connection(self, reader, writer) -> None:
        self._open += 1
        self._idle.clear()
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await send_json(writer, exc.status, {"error": str(exc)})
                return
            if request is not None and not await self._handler(request, writer):
                error = f"no route {request.method} {request.path}"
                await send_json(writer, 404, {"error": error})
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # client went away or dawdled; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass
            self._open -= 1
            if self._open == 0:
                self._idle.set()
