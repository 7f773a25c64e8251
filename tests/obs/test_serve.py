"""The live obs endpoint: parse_listen, /metrics, /healthz, /events."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.serve import ObsServer, parse_listen


@pytest.fixture
def enabled():
    obs.enable("summary")
    yield
    obs.disable()


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


class TestParseListen:
    def test_host_port(self):
        assert parse_listen("0.0.0.0:9100") == ("0.0.0.0", 9100)
        assert parse_listen("localhost:8080") == ("localhost", 8080)

    def test_bare_port_binds_loopback(self):
        assert parse_listen("9100") == ("127.0.0.1", 9100)

    @pytest.mark.parametrize("bad", ["", ":", "host:", "host:abc", "host:-1",
                                     "host:70000", "a:b:c"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_listen(bad)


class TestEndpoints:
    def test_metrics_and_healthz(self, enabled):
        with obs.span("pipeline.batch"):
            pass
        obs.counter_inc("pipeline_jobs_total", status="ok")
        with ObsServer("127.0.0.1", 0) as server:
            status, ctype, body = _get(f"{server.url}/metrics")
            assert status == 200 and "text/plain" in ctype
            text = body.decode()
            assert 'repro_spans_total{name="pipeline.batch"} 1' in text
            assert 'repro_pipeline_jobs_total{status="ok"} 1' in text
            assert "# TYPE repro_spans_total counter" in text

            status, ctype, body = _get(f"{server.url}/healthz")
            assert status == 200 and "application/json" in ctype
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["pid"] > 0 and health["uptime_s"] >= 0
            assert health["obs_mode"] == "summary"

    def test_events_backlog_and_filters(self, enabled):
        with ObsServer("127.0.0.1", 0) as server:
            obs.event("emergency", benchmark="mcf")
            obs.event("retry", benchmark="gcc")
            with obs.span("stage.x"):
                pass
            status, _, body = _get(f"{server.url}/events")
            lines = [json.loads(l) for l in body.splitlines() if l]
            assert status == 200
            types = [r["type"] for r in lines]
            assert types.count("event") == 2 and "span" in types

            _, _, body = _get(f"{server.url}/events?type=event&n=1")
            lines = [json.loads(l) for l in body.splitlines() if l]
            assert len(lines) == 1
            assert lines[0]["name"] == "retry"

    def test_unknown_path_404(self, enabled):
        with ObsServer("127.0.0.1", 0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/nope")
            assert err.value.code == 404

    def test_root_points_at_endpoints(self, enabled):
        with ObsServer("127.0.0.1", 0) as server:
            status, _, body = _get(f"{server.url}/")
            assert status == 200
            assert b"/metrics" in body and b"/healthz" in body

    def test_log_serving_mode_uses_fed_records(self):
        # `repro obs serve --log`: a standalone registry built from a log,
        # no subscription to the live trace stream.
        from repro.obs import registry_from_records

        records = [
            {"type": "metric", "kind": "counter",
             "name": "pipeline_jobs_total", "value": 4,
             "labels": {"status": "ok"}},
            {"type": "event", "name": "emergency"},
        ]
        registry = registry_from_records(records)
        server = ObsServer(
            "127.0.0.1", 0, registry=registry, subscribe=False
        ).start()
        try:
            server.feed(records)
            _, _, body = _get(f"{server.url}/metrics")
            assert b'repro_pipeline_jobs_total{status="ok"} 4' in body
            _, _, body = _get(f"{server.url}/events?type=event")
            assert json.loads(body.splitlines()[0])["name"] == "emergency"
        finally:
            server.stop()

    def test_ephemeral_port_is_reported(self, enabled):
        server = ObsServer("127.0.0.1", 0).start()
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.stop()


class TestLiveStream:
    def test_subscriber_sees_spans_opened_after_start(self, enabled):
        with ObsServer("127.0.0.1", 0) as server:
            assert len(server.backlog()) == 0
            with obs.span("late"):
                pass
            names = [r.get("name") for r in server.backlog()]
            assert "late" in names


class TestEventsQuery:
    def test_n_zero_replays_nothing(self, enabled):
        with ObsServer("127.0.0.1", 0) as server:
            obs.event("emergency")
            status, _, body = _get(f"{server.url}/events?n=0")
            assert status == 200 and body == b""

    @pytest.mark.parametrize("n", ["-1", "two", "0x10"])
    def test_negative_or_non_integer_n_is_a_400(self, enabled, n):
        with ObsServer("127.0.0.1", 0) as server:
            obs.event("emergency")
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/events?n={n}")
            with err.value as response:
                assert response.code == 400
                assert b"non-negative integer" in response.read()


class TestFollow:
    def _open(self, server, query):
        sock = socket.create_connection((server.host, server.port), timeout=10)
        sock.sendall(f"GET /events?{query} HTTP/1.1\r\n\r\n".encode())
        stream = sock.makefile("rb")
        sock.close()  # the file keeps the connection open
        return stream

    @staticmethod
    def _chunk(stream):
        size = int(stream.readline().strip(), 16)
        return stream.read(size + 2)[:-2]

    def test_follow_streams_live_records_and_stop_ends_it(self, enabled):
        server = ObsServer("127.0.0.1", 0).start()
        try:
            obs.event("before")
            stream = self._open(server, "follow=1&type=event")
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                head += stream.readline()
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"Transfer-Encoding: chunked" in head
            assert json.loads(self._chunk(stream))["name"] == "before"
            # a record emitted on another thread hops onto the loop
            emitter = threading.Thread(
                target=obs.event, args=("live",), kwargs={"n": 1}
            )
            emitter.start()
            emitter.join()
            with obs.span("not-an-event"):
                pass
            obs.event("after-span")
            assert json.loads(self._chunk(stream))["name"] == "live"
            assert json.loads(self._chunk(stream))["name"] == "after-span"
        finally:
            t0 = time.monotonic()
            server.stop()
        assert time.monotonic() - t0 < 5
        assert self._chunk(stream) == b""  # the terminal chunk
        stream.close()
