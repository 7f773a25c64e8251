"""The ``repro bench`` harness: structure always, speedups when slow.

The fast test shrinks every input (the structural contract — one
speedup entry per registered kernel, a parseable JSON artifact — does
not need real sizes).  The full-size run asserting the headline
speedup targets is ``-m slow``; CI's ``bench-smoke`` job covers the
real ``repro bench --quick`` CLI path instead.
"""

import json

import pytest

from repro.kernels import available_kernels
from repro.kernels import bench as kbench


@pytest.fixture()
def tiny_sizes(monkeypatch):
    """Shrink every bench input so the structural test runs in seconds."""
    monkeypatch.setattr(
        kbench,
        "_SIZES",
        {
            "wavedec_n": (1 << 10, 1 << 10),
            "stats_cycles": (1 << 11, 1 << 11),
            "gaussian_n": (1 << 8, 1 << 8),
            "convolver_n": (1 << 8, 1 << 8),
            "monitor_n": (1 << 9, 1 << 9),
            "batch_benchmarks": (2, 2),
            "batch_cycles": (1 << 11, 1 << 11),
            "obs_benchmarks": (2, 2),
            "obs_cycles": (1 << 10, 1 << 10),
            "repeats": (1, 1),
        },
    )


def test_bench_writes_speedup_entry_per_kernel(tiny_sizes, tmp_path):
    out = tmp_path / "bench.json"
    results = kbench.run_bench(quick=True, output=out)
    data = json.loads(out.read_text())
    for payload in (results, data):
        assert set(payload["kernels"]) == set(available_kernels())
        for name, row in payload["kernels"].items():
            assert row["speedup"] > 0, name
            assert row["reference_s"] > 0 and row["vectorized_s"] > 0
            assert row["max_abs_diff"] < 1e-6, name
        batch = payload["end_to_end"]["characterize_batch"]
        assert batch["speedup"] > 0
        assert batch["benchmarks"] == 2
        overhead = payload["obs_overhead"]
        assert overhead["off_s"] > 0 and overhead["stripped_s"] > 0
        assert overhead["overhead_pct"] >= 0
        assert overhead["budget_pct"] == kbench.OBS_OVERHEAD_BUDGET_PCT


def test_bench_formats_human_table(tiny_sizes):
    results = kbench.run_bench(quick=True, output=None)
    text = kbench.format_results(results)
    for name in available_kernels():
        assert name in text
    assert "characterize_batch" in text


def test_bench_cli_flags_parse():
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench", "--quick"])
    assert args.command == "bench" and args.quick
    assert not hasattr(args, "kernel_backend")


@pytest.mark.slow
def test_full_bench_meets_speedup_targets(tmp_path):
    """The ISSUE's headline targets: >=10x wavedec, >=5x end-to-end."""
    # Best-of-two attempts guards against a loaded machine skewing one run.
    for attempt in range(2):
        results = kbench.run_bench(
            quick=False, output=tmp_path / "bench.json"
        )
        wavedec = results["kernels"]["wavedec"]["speedup"]
        batch = results["end_to_end"]["characterize_batch"]["speedup"]
        if wavedec >= 10.0 and batch >= 5.0:
            break
    assert wavedec >= 10.0, results["kernels"]["wavedec"]
    assert batch >= 5.0, results["end_to_end"]["characterize_batch"]


@pytest.mark.slow
def test_full_bench_obs_overhead_within_budget(tmp_path):
    """The obs ENABLED=off fast path must cost <5% on a characterize run."""
    from repro.core import calibrated_supply

    network = calibrated_supply(150)
    # Best-of-three guards against scheduler noise skewing one run; the
    # committed BENCH_kernels.json records the canonical number.
    best = float("inf")
    for attempt in range(3):
        row = kbench._bench_obs_overhead(False, network, repeats=3)
        best = min(best, row["overhead_pct"])
        if best < kbench.OBS_OVERHEAD_BUDGET_PCT:
            break
    assert best < kbench.OBS_OVERHEAD_BUDGET_PCT, row
