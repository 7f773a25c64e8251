"""Loadgen determinism and the run-summary schema."""

import json

import pytest

from repro.serve.loadgen import (
    build_requests,
    build_schedule,
    percentile,
    summarize,
    write_bench,
)


class TestScheduleDeterminism:
    def test_same_seed_reproduces_the_schedule(self):
        for pattern in ("constant", "poisson", "burst"):
            a = build_schedule(pattern, rate=25.0, count=40, seed=7)
            b = build_schedule(pattern, rate=25.0, count=40, seed=7)
            assert a == b, pattern

    def test_different_seed_changes_poisson_arrivals(self):
        a = build_schedule("poisson", rate=25.0, count=40, seed=7)
        b = build_schedule("poisson", rate=25.0, count=40, seed=8)
        assert a != b

    def test_constant_spacing_is_exact(self):
        schedule = build_schedule("constant", rate=10.0, count=5, seed=0)
        assert schedule == (0.0, 0.1, 0.2, 0.3, 0.4)

    def test_burst_groups_arrive_together(self):
        schedule = build_schedule(
            "burst", rate=20.0, count=8, seed=0, burst_size=4
        )
        assert schedule[0] == schedule[1] == schedule[2] == schedule[3]
        assert schedule[4] == schedule[5] == schedule[6] == schedule[7]
        # groups spaced so the long-run rate still averages `rate`
        assert schedule[4] - schedule[0] == pytest.approx(4 / 20.0)

    def test_schedules_are_sorted(self):
        for pattern in ("constant", "poisson", "burst"):
            schedule = build_schedule(pattern, rate=50.0, count=30, seed=3)
            assert list(schedule) == sorted(schedule)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_schedule("thundering-herd", rate=1.0, count=1)
        with pytest.raises(ValueError):
            build_schedule("constant", rate=0.0, count=1)
        with pytest.raises(ValueError):
            build_schedule("constant", rate=1.0, count=0)


class TestRequestDeterminism:
    def test_same_seed_reproduces_the_request_sequence(self):
        a = build_requests(12, seed=5)
        b = build_requests(12, seed=5)
        assert a == b

    def test_different_seed_changes_the_sequence(self):
        assert build_requests(12, seed=5) != build_requests(12, seed=6)

    def test_benchmarks_cycle_through_the_mix(self):
        payloads = build_requests(8, seed=0, benchmarks=("gzip", "mcf"))
        names = [p["benchmark"] for p in payloads]
        assert set(names) == {"gzip", "mcf"}
        assert names[:2] == names[2:4] == names[4:6]

    def test_payloads_are_valid_protocol_requests(self):
        from repro.serve.protocol import parse_request

        for payload in build_requests(6, seed=1):
            request = parse_request(payload)
            assert request.source == "workload"


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_empty_and_single(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0


def _fake_run(cached: int = 4, total: int = 8) -> dict:
    records = [
        {
            "status": 200,
            "ok": True,
            "cached": i < cached,
            "coalesced": False,
            "latency_s": 0.01 * (i + 1),
        }
        for i in range(total)
    ]
    return {
        "pattern": "burst",
        "rate": 50.0,
        "count": total,
        "seed": 0,
        "records": records,
        "wall_s": 0.5,
        "stats_before": {"submitted": 0, "cache_fastpath": 0,
                         "dispatched_jobs": 0, "coalesced": 0,
                         "batches": 0},
        "stats_after": {"submitted": total, "cache_fastpath": cached,
                        "dispatched_jobs": total - cached, "coalesced": 0,
                        "batches": 2},
    }


class TestBenchDocument:
    def test_summary_values(self):
        doc = summarize(_fake_run(), quick=True)
        summary = doc["loadgen"]
        assert doc["quick"] is True
        assert summary["requests"] == 8
        assert summary["accepted"] == 8
        assert summary["requests_per_s"] == pytest.approx(16.0)
        assert summary["cache_hit_ratio"] == pytest.approx(0.5)
        assert summary["latency_p50_s"] == pytest.approx(0.04)
        assert summary["latency_p99_s"] == pytest.approx(0.08)
        assert doc["server"]["dispatched_jobs"] == 4
        assert doc["server"]["cache_fastpath"] == 4

    def test_schema_has_the_gating_leaves(self):
        # the leaves CI's serve smoke job and the summary line read
        doc = summarize(_fake_run())
        for section, leaf in (
            ("loadgen", "requests_per_s"),
            ("loadgen", "latency_p50_s"),
            ("loadgen", "latency_p99_s"),
            ("loadgen", "cache_hit_ratio"),
            ("loadgen", "requests"),
            ("loadgen", "accepted"),
            ("loadgen", "ok"),
            ("loadgen", "rejected"),
            ("loadgen", "wall_seconds"),
            ("server", "dispatched_jobs"),
            ("server", "cache_fastpath"),
            ("server", "coalesced"),
            ("server", "batches"),
        ):
            assert isinstance(doc[section][leaf], (int, float)), leaf

    def test_write_bench_round_trips(self, tmp_path):
        doc = summarize(_fake_run(), quick=True)
        path = tmp_path / "serve.json"
        write_bench(doc, str(path))
        assert json.loads(path.read_text()) == doc
