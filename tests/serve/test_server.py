"""End-to-end service tests over real sockets.

One live server per scenario (port 0 always), talking the real wire
protocol through the package's own HTTP client.  Requests are tiny
(1024 cycles, window 64) and every payload shares the same
network x window pair, so the process calibrates one estimator for the
whole battery.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.store import TraceStore

from .conftest import quick_payload, raw_exchange


class TestBindAndIntrospection:
    def test_port_zero_binds_ephemeral(self, serve_factory):
        handle = serve_factory()
        assert handle.port != 0
        assert handle.host == "127.0.0.1"

    def test_healthz(self, serve_factory):
        handle = serve_factory()
        doc = handle.call("GET", "/healthz").json()
        assert doc["status"] == "ok"
        assert doc["queue_depth"] == 0
        assert doc["protocol"] == 1

    def test_stats_shape(self, serve_factory):
        stats = serve_factory().stats()
        for key in ("requests", "ok", "errors", "submitted", "coalesced",
                    "cache_fastpath", "dispatched_jobs", "batches",
                    "queue_depth", "draining"):
            assert key in stats

    def test_metrics_endpoint(self, serve_factory):
        response = serve_factory().call("GET", "/metrics")
        assert response.status == 200
        assert "text/plain" in response.headers["content-type"]

    def test_unknown_route_404(self, serve_factory):
        response = serve_factory().call("GET", "/nope")
        assert response.status == 404

    def test_healthz_is_the_obs_document_plus_serve_fields(
        self, obs_on, serve_factory
    ):
        doc = serve_factory().call("GET", "/healthz").json()
        assert doc["obs_mode"] == "summary"
        assert doc["trace_id"] == obs.current_trace_id()
        assert doc["pid"] > 0 and doc["uptime_s"] >= 0
        assert doc["status"] == "ok" and doc["queue_depth"] == 0


class TestEvents:
    def test_serve_request_event_on_the_serve_port(
        self, obs_on, serve_factory
    ):
        handle = serve_factory()
        accepted = handle.submit(quick_payload(seed=41)).events[0]
        response = handle.call("GET", "/events?type=event")
        assert response.status == 200
        assert "application/x-ndjson" in response.headers["content-type"]
        served = [
            e for e in response.events if e["name"] == "serve_request"
        ]
        assert [e["attrs"]["request_id"] for e in served] == [
            accepted["request_id"]
        ]
        assert served[0]["attrs"]["digest"] == accepted["digest"][:16]

    def test_n_bounds_the_replay_and_zero_replays_none(
        self, obs_on, serve_factory
    ):
        handle = serve_factory()
        for i in range(3):
            obs.event("probe", i=i)
        probes = [
            e["attrs"]["i"]
            for e in handle.call("GET", "/events?type=event&n=2").events
        ]
        assert probes == [1, 2]
        response = handle.call("GET", "/events?n=0")
        assert response.status == 200 and response.body == b""

    @pytest.mark.parametrize("n", ["-1", "abc", "1.5", ""])
    def test_bad_n_is_a_400(self, obs_on, serve_factory, n):
        handle = serve_factory()
        obs.event("probe")
        response = handle.call("GET", f"/events?n={n}")
        if n == "":
            # a blank parameter is no parameter: the whole backlog
            assert response.status == 200 and response.events
        else:
            assert response.status == 400
            assert "non-negative integer" in response.json()["error"]


class TestCharacterizeRoundTrip:
    def test_streaming_event_order(self, serve_factory):
        handle = serve_factory()
        response = handle.submit(quick_payload(seed=11))
        assert response.status == 200
        events = response.events
        types = [e["type"] for e in events]
        # accepted first, done last, result strictly before done
        assert types[0] == "accepted"
        assert types[-1] == "done"
        assert types.index("result") == len(types) - 2
        # progress states arrive in causal order
        states = [e["state"] for e in events if e["type"] == "status"]
        assert states.index("queued") < states.index("dispatched")
        # one request_id threads through every event
        rid = events[0]["request_id"]
        assert all(e["request_id"] == rid for e in events)
        result = events[-2]
        assert result["benchmark"] == "gzip"
        assert result["ok"] is True
        assert 0.0 <= result["estimated"] <= 1.0
        assert 0.0 <= result["observed"] <= 1.0
        # the done event accounts for the request's own time
        phases = events[-1]["phases"]
        assert set(phases) == {"queue_s", "compute_s"}
        assert phases["queue_s"] >= 0.0
        assert phases["compute_s"] > 0.0

    def test_accepted_event_carries_digest_and_trace_id(
        self, serve_factory
    ):
        handle = serve_factory()
        accepted = handle.submit(quick_payload(seed=12)).events[0]
        assert len(accepted["digest"]) == 64
        assert accepted["protocol"] == 1

    def test_cache_hit_fast_path_zero_dispatches(self, serve_factory):
        handle = serve_factory()
        payload = quick_payload(seed=13)
        first = handle.submit(payload)
        assert first.events[-1]["ok"]
        before = handle.stats()
        second = handle.submit(payload)
        after = handle.stats()
        events = second.events
        states = [e.get("state") for e in events if e["type"] == "status"]
        assert states == ["cached"]  # never queued, never dispatched
        result = next(e for e in events if e["type"] == "result")
        assert result["cache_hit"] is True
        # the server-side proof: zero new jobs reached the pipeline
        assert after["dispatched_jobs"] == before["dispatched_jobs"]
        assert after["batches"] == before["batches"]
        assert (
            after["cache_fastpath"] == before["cache_fastpath"] + 1
        )

    def test_concurrent_identical_requests_coalesce(self, serve_factory):
        handle = serve_factory()
        # hold the job in flight until all three requests are admitted
        gate = threading.Event()
        inner = handle.server.coalescer.runner

        def slow_runner(specs, progress):
            assert gate.wait(60)
            return inner(specs, progress)

        handle.server.coalescer.runner = slow_runner
        payload = quick_payload(benchmark="mcf", seed=14)
        before = handle.stats()
        results = [None] * 3

        def fire(i):
            results[i] = handle.submit(payload)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if handle.stats()["submitted"] - before["submitted"] >= 3:
                break
            time.sleep(0.02)
        gate.set()
        for t in threads:
            t.join(120)
        after = handle.stats()
        for response in results:
            assert response.status == 200
            assert response.events[-1]["ok"]
        assert after["dispatched_jobs"] == before["dispatched_jobs"] + 1
        assert after["coalesced"] - before["coalesced"] == 2

    def test_inline_trace_upload(self, serve_factory):
        handle = serve_factory()
        rng = np.random.default_rng(5)
        samples = [float(v) for v in rng.normal(40.0, 8.0, 512)]
        response = handle.submit(
            {"trace": {"samples": samples, "label": "probe"},
             "window": 64}
        )
        assert response.status == 200
        events = response.events
        assert events[-1]["ok"]
        result = events[-2]
        assert result["stages"] == ["load_trace", "voltage",
                                    "characterize"]
        # byte-identical re-upload lands on the same spec digest
        again = handle.submit(
            {"trace": {"samples": samples, "label": "probe"},
             "window": 64}
        )
        assert again.events[0]["digest"] == events[0]["digest"]

    def test_by_reference_request(self, serve_factory, tmp_path):
        store_dir = tmp_path / "corpus"
        store = TraceStore(store_dir, mode="a")
        rng = np.random.default_rng(6)
        record = store.ingest(rng.normal(40.0, 8.0, 256), "gzip")
        handle = serve_factory(store_dir=str(store_dir))
        response = handle.submit(
            {"trace_id": record.trace_id, "window": 64}
        )
        assert response.status == 200
        assert response.events[-1]["ok"]
        missing = handle.submit({"trace_id": "tr-missing", "window": 64})
        assert missing.status == 400
        assert "not found" in missing.json()["error"]


class TestRejections:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_400(self, serve_factory, length):
        handle = serve_factory()
        reply = raw_exchange(
            handle.host,
            handle.port,
            (
                "POST /v1/characterize HTTP/1.1\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}"
            ).encode("latin-1"),
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        # the connection was answered, and the server still serves
        assert handle.stats()["requests"] == 0

    def test_bad_json_body_400(self, serve_factory):
        handle = serve_factory()
        response = handle.call(
            "POST", "/v1/characterize", b"{not json", timeout=30
        )
        assert response.status == 400
        assert "bad JSON" in response.json()["error"]

    def test_malformed_request_400(self, serve_factory):
        handle = serve_factory()
        response = handle.submit({"benchmark": "not-a-benchmark"})
        assert response.status == 400
        assert "unknown benchmark" in response.json()["error"]

    def test_quota_exhaustion_429(self, serve_factory):
        # one token, refilling at one per hour: the second request
        # from the same client must bounce with Retry-After
        handle = serve_factory(quota_rate=1 / 3600.0, quota_burst=1)
        payload = quick_payload(seed=15, client="greedy")
        assert handle.submit(payload).status == 200
        denied = handle.submit(payload)
        assert denied.status == 429
        doc = denied.json()
        assert doc["retry_after_s"] > 0
        assert int(denied.headers["retry-after"]) >= 1
        # a different client has its own untouched bucket
        other = handle.submit(quick_payload(seed=15, client="patient"))
        assert other.status == 200

    def test_admission_backpressure_503(self, serve_factory):
        handle = serve_factory(max_pending=1)
        gate = threading.Event()
        inner = handle.server.coalescer.runner

        def slow_runner(specs, progress):
            assert gate.wait(60)
            return inner(specs, progress)

        handle.server.coalescer.runner = slow_runner
        first = {}

        def fire():
            first["response"] = handle.submit(quick_payload(seed=16))

        thread = threading.Thread(target=fire)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if handle.stats()["queue_depth"] >= 1:
                    break
                time.sleep(0.02)
            rejected = handle.submit(
                quick_payload(benchmark="art", seed=17)
            )
            assert rejected.status == 503
            doc = rejected.json()
            assert "queue" in doc["error"]
            assert doc["retry_after_s"] > 0
        finally:
            gate.set()
            thread.join(120)
        assert first["response"].events[-1]["ok"]

    def test_draining_rejects_new_requests_503(self, serve_factory):
        handle = serve_factory()
        # flip the admission flag alone (a full drain also closes the
        # listener; the 503 path is what is under test here)
        handle.server._draining = True
        try:
            response = handle.submit(quick_payload(seed=18))
            assert response.status == 503
            assert response.json()["error"] == "draining"
        finally:
            handle.server._draining = False

    def test_rejected_requests_are_counted(self, serve_factory):
        handle = serve_factory()
        handle.submit({"benchmark": "nope"})
        assert handle.stats()["rejected_400"] == 1
