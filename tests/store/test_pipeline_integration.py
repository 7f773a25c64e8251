"""Store ↔ pipeline integration: cache dedupe, zero-copy workers.

The tentpole guarantees under test:

* a stored trace with recorded generator params addresses the *same*
  downstream cache entries as the equivalent ``simulate`` job (v3
  dtype-explicit trace identity);
* a store-backed batch run on the supervised pool ships **zero** trace
  bytes through the result pickle channel
  (``pipeline_trace_pickle_bytes_total``), while the attach counters
  prove the samples arrived by mmap.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import calibrated_supply
from repro.pipeline import (
    CACHE_SCHEMA_VERSION,
    BatchOptions,
    STORE_STAGES,
    JobSpec,
    build_characterization_jobs,
    build_store_jobs,
    predictions_from,
    stage_cache_keys,
    submit,
    trace_identity,
)
from repro.store import TraceStore
from repro.uarch import simulate_benchmark

CYCLES = 4096


@pytest.fixture(scope="module")
def net150():
    return calibrated_supply(150)


@pytest.fixture()
def seeded_store(tmp_path):
    """A store holding gzip+mcf traces with generator params recorded."""
    store = TraceStore(tmp_path / "store", mode="a")
    for name in ("gzip", "mcf"):
        result = simulate_benchmark(name, cycles=CYCLES)
        store.ingest(
            result.current,
            name,
            generator={
                "benchmark": name,
                "cycles": CYCLES,
                "seed": None,
                "warmup_cycles": 4096,
            },
        )
    return store


class TestSchemaV3:
    def test_schema_version_is_4(self):
        # v3 made trace identity dtype-explicit; v4 added the scenario
        # stage to the trace namespace.  Regressing a bump would alias
        # entries written by an older schema.
        assert CACHE_SCHEMA_VERSION == 4

    def test_simulate_identity_names_dtype(self, net150):
        spec = build_characterization_jobs(("gzip",), net150,
                                           cycles=CYCLES)[0]
        identity = trace_identity(spec)
        assert identity["kind"] == "simulate"
        assert identity["dtype"] == "float64"

    def test_dtype_changes_every_trace_stage_key(self, net150, tmp_path):
        store = TraceStore(tmp_path / "s", mode="a")
        data = 40.0 + np.linspace(0, 1, CYCLES)
        r64 = store.ingest(data, "gzip", dtype="float64")
        r32 = store.ingest(data, "gzip", dtype="float32")
        k64 = stage_cache_keys(
            JobSpec.make("gzip", network=net150, cycles=CYCLES,
                         stages=STORE_STAGES, trace=store.ref(r64))
        )
        k32 = stage_cache_keys(
            JobSpec.make("gzip", network=net150, cycles=CYCLES,
                         stages=STORE_STAGES, trace=store.ref(r32))
        )
        assert all(k64[s] != k32[s] for s in STORE_STAGES)


class TestCacheDedupe:
    def test_store_and_simulate_jobs_share_keys(self, net150, seeded_store):
        store_specs = build_store_jobs(seeded_store, net150)
        sim_specs = build_characterization_jobs(
            ("gzip", "mcf"), net150, cycles=CYCLES
        )
        for store_spec, sim_spec in zip(store_specs, sim_specs):
            ks, kb = stage_cache_keys(store_spec), stage_cache_keys(sim_spec)
            assert ks["load_trace"] == kb["simulate"]
            assert ks["voltage"] == kb["voltage"]
            assert ks["characterize"] == kb["characterize"]

    def test_sliced_ref_never_aliases_the_full_trace(
        self, net150, seeded_store
    ):
        record = next(
            r for r in seeded_store.records() if r.benchmark == "gzip"
        )
        whole = JobSpec.make("gzip", network=net150, cycles=CYCLES,
                             stages=STORE_STAGES,
                             trace=seeded_store.ref(record))
        sliced = JobSpec.make("gzip", network=net150, cycles=CYCLES,
                              stages=STORE_STAGES,
                              trace=seeded_store.ref(record, 0, CYCLES // 2))
        assert (
            stage_cache_keys(whole)["load_trace"]
            != stage_cache_keys(sliced)["load_trace"]
        )

    def test_simulate_batch_then_store_batch_hits_cache(
        self, net150, seeded_store, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        sim_specs = build_characterization_jobs(
            ("gzip", "mcf"), net150, cycles=CYCLES
        )
        first = submit(sim_specs, BatchOptions(cache_dir=cache_dir))
        assert first.cache_hits == 0
        store_batch = submit(
            build_store_jobs(seeded_store, net150),
            BatchOptions(cache_dir=cache_dir),
        )
        # voltage + characterize were computed by the simulate batch;
        # only load_trace (a different artifact kind) runs fresh.
        hits = {
            name: hit
            for o in store_batch.outcomes
            for name, hit in o.cache_hits.items()
        }
        assert hits["voltage"] and hits["characterize"]
        assert predictions_from(store_batch).keys() == {"gzip", "mcf"}

    def test_store_batch_matches_simulate_batch_numerically(
        self, net150, seeded_store
    ):
        sim = predictions_from(
            submit(
                build_characterization_jobs(
                    ("gzip", "mcf"), net150, cycles=CYCLES
                )
            )
        )
        stored = predictions_from(
            submit(build_store_jobs(seeded_store, net150))
        )
        for name in ("gzip", "mcf"):
            assert stored[name].estimated == sim[name].estimated
            assert stored[name].observed == sim[name].observed


@pytest.mark.slow
class TestZeroCopyPool:
    """Supervised-pool runs: prove no trace bytes cross the pickle
    channel when jobs carry refs, and that they do when jobs simulate."""

    def _counter(self, name) -> float:
        value = obs.registry().counter(name).value()
        return 0.0 if value is None else float(value)

    def test_store_jobs_ship_zero_trace_pickle_bytes(
        self, net150, seeded_store
    ):
        obs.enable("summary")
        obs.registry().reset()  # isolate from earlier enabled tests
        try:
            batch = submit(
                build_store_jobs(seeded_store, net150),
                BatchOptions(jobs=2),
            )
            assert batch.ok
            pickled = self._counter("pipeline_trace_pickle_bytes_total")
            attached = self._counter("store_attached_bytes_total")
            assert pickled == 0
            assert attached >= 2 * CYCLES * 8  # both traces, via mmap
        finally:
            obs.disable()

    def test_simulate_jobs_do_pickle_their_traces(self, net150):
        obs.enable("summary")
        obs.registry().reset()
        try:
            batch = submit(
                build_characterization_jobs(
                    ("gzip", "mcf"), net150, cycles=CYCLES
                ),
                BatchOptions(jobs=2),
            )
            assert batch.ok
            assert (
                self._counter("pipeline_trace_pickle_bytes_total")
                >= 2 * CYCLES * 8
            )
        finally:
            obs.disable()

    def test_concurrent_pool_readers_see_identical_samples(
        self, net150, seeded_store
    ):
        serial = predictions_from(
            submit(
                build_store_jobs(seeded_store, net150),
                BatchOptions(jobs=1),
            )
        )
        pooled = predictions_from(
            submit(
                build_store_jobs(seeded_store, net150),
                BatchOptions(jobs=2),
            )
        )
        assert serial == pooled


class TestSpecPlumbing:
    def test_spec_without_ref_rejects_load_trace(self, net150):
        spec = JobSpec.make("gzip", network=net150, cycles=CYCLES,
                            stages=STORE_STAGES)
        with pytest.raises(Exception, match="no trace ref"):
            submit([spec])

    def test_build_store_jobs_filters(self, net150, seeded_store):
        only = build_store_jobs(seeded_store, net150,
                                benchmarks=("gzip",))
        assert [s.benchmark for s in only] == ["gzip"]
        record = seeded_store.records()[0]
        by_id = build_store_jobs(
            seeded_store, net150, trace_ids=(record.trace_id,)
        )
        assert len(by_id) == 1

    def test_empty_selection_is_an_error(self, net150, seeded_store):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="no matching traces"):
            build_store_jobs(seeded_store, net150, benchmarks=("swim",))

    def test_spec_canonical_includes_trace(self, net150, seeded_store):
        spec = build_store_jobs(seeded_store, net150)[0]
        canonical = spec.canonical()
        assert canonical["trace"] is not None
        # digest must be stable across spec rebuilds from the same ref
        rebuilt = JobSpec.make(
            spec.benchmark,
            network=net150,
            cycles=spec.cycles,
            warmup_cycles=spec.warmup_cycles,
            stages=spec.stages,
            trace=spec.trace,
        )
        assert rebuilt.digest() == spec.digest()
