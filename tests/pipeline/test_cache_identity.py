"""Byte-identical cache trees: the pipeline's determinism property.

The same specs must write the same cache directory — the same relative
paths holding the same bytes — however they are executed: inline or on
a worker pool, cold or over a warm cache, and from a stored trace or a
freshly simulated one.  Anything less would let a resumed, re-run or
store-backed batch silently disagree with the run that filled the cache.
"""

import hashlib
from pathlib import Path

import pytest

from repro.core import calibrated_supply
from repro.pipeline import (
    BatchOptions,
    build_characterization_jobs,
    build_store_jobs,
    stage_cache_keys,
    submit,
)
from repro.store import TraceStore
from repro.uarch import simulate_benchmark

NAMES = ("gzip", "mcf", "art")
CYCLES = 4096


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def specs(network):
    return build_characterization_jobs(NAMES, network, cycles=CYCLES)


def _tree(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run(specs, root: Path, **options) -> dict[str, str]:
    batch = submit(specs, BatchOptions(cache_dir=str(root), **options))
    assert batch.ok
    return _tree(root)


def test_inline_and_pool_write_identical_trees(specs, tmp_path):
    inline = _run(specs, tmp_path / "jobs1", jobs=1)
    pooled = _run(specs, tmp_path / "jobs2", jobs=2)
    assert len(inline) == len(specs) * len(specs[0].stages)
    assert inline == pooled


def test_warm_rerun_leaves_the_tree_unchanged(specs, tmp_path):
    root = tmp_path / "cache"
    cold = _run(specs, root)
    warm = _run(specs, root)
    assert warm == cold


def test_partially_warm_cache_fills_to_the_cold_tree(specs, tmp_path):
    cold = _run(specs, tmp_path / "cold")
    partial = tmp_path / "partial"
    _run(specs[:1], partial)
    assert _run(specs, partial, jobs=2) == cold


def test_store_backed_and_regenerated_traces_write_identical_entries(
    network, tmp_path
):
    """Downstream entries match byte for byte; only the trace-producing
    stage (``load_trace`` vs ``simulate``) writes different files."""
    store = TraceStore(tmp_path / "store", mode="a")
    for name in NAMES:
        store.ingest(
            simulate_benchmark(name, cycles=CYCLES).current,
            name,
            generator={
                "benchmark": name,
                "cycles": CYCLES,
                "seed": None,
                "warmup_cycles": 4096,
            },
        )
    regenerated = build_characterization_jobs(NAMES, network, cycles=CYCLES)
    stored = build_store_jobs(store, network)
    assert [s.benchmark for s in stored] == list(NAMES)

    def downstream(specs, root: Path) -> dict[str, str]:
        tree = _run(specs, root)
        source = {
            stage_cache_keys(spec)[spec.stages[0]] for spec in specs
        }
        kept = {
            path: digest
            for path, digest in tree.items()
            if Path(path).stem not in source
        }
        assert len(tree) - len(kept) == len(specs)
        return kept

    from_sim = downstream(regenerated, tmp_path / "regenerated")
    from_store = downstream(stored, tmp_path / "stored")
    assert len(from_sim) == 2 * len(NAMES)  # voltage + characterize
    assert from_store == from_sim
