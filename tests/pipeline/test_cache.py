"""Result-cache behavior: hits, misses, invalidation, byte identity."""

import json

import numpy as np
import pytest

from repro.core import calibrated_supply
from repro.pipeline import (
    BatchOptions,
    ResultCache,
    build_characterization_jobs,
    predictions_from,
    stage_cache_keys,
    submit,
)

CYCLES = 4096


@pytest.fixture(scope="module")
def net150():
    return calibrated_supply(150)


def one_job(net, **kw):
    return build_characterization_jobs(("gzip",), net, cycles=CYCLES, **kw)


class TestPrimitives:
    def test_json_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        artifact = {"estimated": 0.1234567891011, "levels": {"1": 1e-9}}
        cache.put("characterize", "ab" * 32, "json", artifact)
        hit, loaded = cache.get("characterize", "ab" * 32, "json")
        assert hit and loaded == artifact
        assert cache.hit_count == 1 and cache.miss_count == 0

    def test_absent_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.get("simulate", "cd" * 32, "result")
        assert not hit and value is None
        assert cache.miss_count == 1

    def test_corrupt_entry_is_miss_not_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        path = cache.path_for(key, "json")
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        hit, _ = cache.get("voltage", key, "json")
        assert not hit

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", "11" * 32, "json", {"x": 1})
        cache.put("b", "22" * 32, "json", {"y": 2})
        stats = cache.on_disk_stats()
        assert stats.entries == 2 and stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.on_disk_stats().entries == 0


class TestPipelineCaching:
    def test_miss_then_hit(self, tmp_path, net150):
        jobs = one_job(net150)
        first = submit(jobs, BatchOptions(cache_dir=tmp_path))
        second = submit(jobs, BatchOptions(cache_dir=tmp_path))
        assert first.cache_hits == 0
        assert second.cache_hits == second.stage_runs == 3
        assert all(o.ok for o in second.outcomes)

    def test_cached_equals_fresh_bit_for_bit(self, tmp_path, net150):
        jobs = one_job(net150)
        fresh = submit(jobs, BatchOptions(cache_dir=None))
        submit(jobs, BatchOptions(cache_dir=tmp_path))  # populate
        cached = submit(jobs, BatchOptions(cache_dir=tmp_path))
        p_fresh = predictions_from(fresh)["gzip"]
        p_cached = predictions_from(cached)["gzip"]
        assert p_fresh == p_cached  # exact float equality
        sim_fresh = fresh.outcomes[0].artifacts["simulate"]
        sim_cached = cached.outcomes[0].artifacts["simulate"]
        assert np.array_equal(sim_fresh.current, sim_cached.current)
        assert sim_fresh.stats == sim_cached.stats
        char_fresh = fresh.outcomes[0].artifacts["characterize"]
        char_cached = cached.outcomes[0].artifacts["characterize"]
        assert char_fresh == char_cached

    def test_spec_change_invalidates_downstream_only(self, tmp_path, net150):
        submit(
            one_job(net150, threshold=0.97),
            BatchOptions(cache_dir=tmp_path),
        )
        batch = submit(
            one_job(net150, threshold=0.96),
            BatchOptions(cache_dir=tmp_path),
        )
        hits = batch.outcomes[0].cache_hits
        assert hits["simulate"] is True  # trace reused
        assert hits["voltage"] is False  # threshold-dependent: recomputed
        assert hits["characterize"] is False

    def test_entries_are_content_addressed_on_disk(self, tmp_path, net150):
        jobs = one_job(net150)
        submit(jobs, BatchOptions(cache_dir=tmp_path))
        keys = stage_cache_keys(jobs[0])
        cache = ResultCache(tmp_path)
        assert cache.path_for(keys["simulate"], "result").is_file()
        char = cache.path_for(keys["characterize"], "json")
        payload = json.loads(char.read_text())
        assert payload["stage"] == "characterize"
        assert "estimated" in payload["artifact"]
