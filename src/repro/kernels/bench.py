"""Reproducible kernel benchmarks: reference vs. vectorized, timed.

``repro bench`` runs every registered kernel on representative inputs —
synthetic traces for the transforms, simulated workload traces for the
window statistics and monitors, and a whole characterization batch for
the end-to-end number — under both backends, and writes the results to
``BENCH_kernels.json``.  Each timing is the best of several repeats
(minimum wall time is the standard estimator for a noisy machine), and
every kernel row also records the max absolute difference between the
two backends' outputs, so a benchmark run doubles as a coarse
equivalence check.

``--quick`` shrinks sizes and repeats to CI-smoke scale (a few seconds);
the full run sizes inputs to the paper's regime (1M-cycle traces, the
26-benchmark suite) where the headline targets — >= 10x on ``wavedec``,
>= 5x on end-to-end characterization — are measured.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from ..obs import trace as obs
from . import KernelConfig, available_kernels, get_kernel

__all__ = ["run_bench", "format_results", "DEFAULT_OUTPUT"]

#: Default result path, relative to the current directory (repo root).
DEFAULT_OUTPUT = "BENCH_kernels.json"

#: Input sizing per mode: (full, quick).
_SIZES = {
    "wavedec_n": (1 << 20, 1 << 16),
    "stats_cycles": (1 << 17, 1 << 14),
    "gaussian_n": (1 << 16, 1 << 12),
    "convolver_n": (1 << 14, 1 << 12),
    "monitor_n": (1 << 16, 1 << 13),
    "batch_benchmarks": (26, 4),
    "batch_cycles": (1 << 15, 1 << 13),
    "obs_benchmarks": (4, 2),
    "obs_cycles": (1 << 14, 1 << 12),
    "repeats": (5, 2),
}

#: The obs off-path overhead budget: instrumented code with
#: observability disabled must stay within this of fully stripped
#: instrumentation (see ``_bench_obs_overhead``).
OBS_OVERHEAD_BUDGET_PCT = 5.0


def _size(key: str, quick: bool) -> int:
    full, small = _SIZES[key]
    return small if quick else full


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (first call included)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _flatten(result) -> np.ndarray:
    """Any kernel output as one flat float array (for diffing backends)."""
    if isinstance(result, np.ndarray):
        return result.ravel()
    if isinstance(result, (list, tuple)):
        return np.concatenate([np.asarray(part).ravel() for part in result])
    # WindowStats
    return np.concatenate(
        [result.means, result.variances.ravel(), result.correlations.ravel()]
    )


def _time_pair(name: str, call_args, repeats: int) -> dict:
    """Time one kernel under both backends and diff the outputs."""
    args, kwargs = call_args
    ref = get_kernel(name, backend="reference")
    vec = get_kernel(name, backend="vectorized")
    with obs.span(f"bench.{name}", repeats=repeats):
        ref_out = ref(*args, **kwargs)
        vec_out = vec(*args, **kwargs)
        ref_s = _best_of(lambda: ref(*args, **kwargs), repeats)
        vec_s = _best_of(lambda: vec(*args, **kwargs), repeats)
    diff = float(np.max(np.abs(_flatten(ref_out) - _flatten(vec_out)))) \
        if _flatten(ref_out).size else 0.0
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
        "repeats": repeats,
        "max_abs_diff": diff,
    }


def _synthetic_trace(n: int, seed: int = 2004) -> np.ndarray:
    """A current-like trace: DC level, program phases, cycle noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    phases = 8.0 * np.sin(2 * np.pi * t / 4096.0)
    return 40.0 + phases + rng.normal(0.0, 5.0, n)


def _workload_trace(cycles: int):
    from ..uarch import simulate_benchmark

    return simulate_benchmark("gcc", cycles=cycles).current


def _kernel_cases(quick: bool, network) -> dict:
    """Input builders per kernel: name -> (args, kwargs)."""
    from ..core import WaveletVoltageMonitor
    from ..wavelets import WaveletConvolver
    from ..power import impulse_response

    n = _size("wavedec_n", quick)
    trace = _synthetic_trace(n)
    coeffs = get_kernel("wavedec", backend="reference")(trace, "haar")

    stats_trace = _workload_trace(_size("stats_cycles", quick))
    windows = stats_trace[: len(stats_trace) // 256 * 256].reshape(-1, 256)

    g_n = _size("gaussian_n", quick)
    rng = np.random.default_rng(7)
    means = 1.0 - rng.uniform(0.0, 0.06, g_n)
    variances = rng.uniform(0.0, 4e-4, g_n)
    variances[:: 17] = 0.0  # exercise the degenerate branch too

    monitor = WaveletVoltageMonitor(network, terms=13)
    convolver = WaveletConvolver(
        impulse_response(network, monitor.taps), "haar", keep=13
    )
    conv_trace = _synthetic_trace(_size("convolver_n", quick), seed=5)
    mon_trace = _synthetic_trace(_size("monitor_n", quick), seed=6)

    return {
        "wavedec": ((trace, "haar"), {}),
        "waverec": ((coeffs, "haar"), {}),
        "window_stats": ((windows, 8), {}),
        "gaussian_prob_below": ((means, variances, 0.97), {}),
        "convolver_apply": ((convolver, conv_trace), {}),
        "monitor_estimate_trace": ((monitor, mon_trace), {}),
    }


def _bench_characterize_batch(quick: bool, network, repeats: int) -> dict:
    """End-to-end §4.1 characterization of a benchmark batch, per backend."""
    from ..core import WaveletVoltageEstimator
    from ..uarch import simulate_benchmark
    from ..workloads import SPEC2000

    count = _size("batch_benchmarks", quick)
    cycles = _size("batch_cycles", quick)
    names = tuple(sorted(SPEC2000))[:count]
    traces = [
        simulate_benchmark(name, cycles=cycles).current for name in names
    ]
    estimator = WaveletVoltageEstimator(network)

    def run_all():
        return [
            estimator.estimate_fraction_below(trace, 0.97)
            for trace in traces
        ]

    with obs.span(
        "bench.characterize_batch", benchmarks=count, cycles=cycles
    ):
        with KernelConfig(backend="reference"):
            ref_out = run_all()
            ref_s = _best_of(run_all, max(1, repeats - 3))
        with KernelConfig(backend="vectorized"):
            vec_out = run_all()
            vec_s = _best_of(run_all, repeats)
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
        "benchmarks": count,
        "cycles": cycles,
        "max_abs_diff": float(
            np.max(np.abs(np.array(ref_out) - np.array(vec_out)))
        ),
    }


def _bench_obs_overhead(quick: bool, network, repeats: int) -> dict:
    """Cost of the disabled-observability fast path on a characterize run.

    Every instrumentation site pays one module-attribute load plus an
    ``ENABLED`` branch when observability is off.  This measures a small
    characterization batch twice — once on the normal off path, once
    with every obs helper monkeypatched to a bare no-op (the closest
    runnable stand-in for "no instrumentation at all") — and reports the
    relative overhead.  The budget is :data:`OBS_OVERHEAD_BUDGET_PCT`;
    the slow bench test and CI gate on the recorded number.
    """
    from ..core import WaveletVoltageEstimator
    from ..uarch import simulate_benchmark
    from ..workloads import SPEC2000

    count = _size("obs_benchmarks", quick)
    cycles = _size("obs_cycles", quick)
    names = tuple(sorted(SPEC2000))[:count]
    traces = [
        simulate_benchmark(name, cycles=cycles).current for name in names
    ]
    estimator = WaveletVoltageEstimator(network)

    def run_all():
        for trace in traces:
            estimator.estimate_fraction_below(trace, 0.97)

    # the off path: real helpers, ENABLED False
    was_enabled = obs.ENABLED
    obs.ENABLED = False
    try:
        off_s = _best_of(run_all, repeats)
        # the stripped baseline: helpers replaced by bare no-ops (call
        # sites resolve them via module attribute access, so this works
        # without touching any instrumented code)
        null_span = obs._NULL_SPAN
        names_to_stub = (
            "span",
            "event",
            "counter_inc",
            "gauge_set",
            "histogram_observe",
        )
        saved = {name: getattr(obs, name) for name in names_to_stub}
        try:
            obs.span = lambda *a, **k: null_span
            noop = lambda *a, **k: None  # noqa: E731
            obs.event = noop
            obs.counter_inc = noop
            obs.gauge_set = noop
            obs.histogram_observe = noop
            stripped_s = _best_of(run_all, repeats)
        finally:
            for name, fn in saved.items():
                setattr(obs, name, fn)
    finally:
        obs.ENABLED = was_enabled
    overhead_pct = (
        max((off_s - stripped_s) / stripped_s * 100.0, 0.0)
        if stripped_s > 0
        else 0.0
    )
    return {
        "off_s": off_s,
        "stripped_s": stripped_s,
        "overhead_pct": overhead_pct,
        "budget_pct": OBS_OVERHEAD_BUDGET_PCT,
        "benchmarks": count,
        "cycles": cycles,
        "repeats": repeats,
    }


def run_bench(
    quick: bool = False, output: str | Path | None = DEFAULT_OUTPUT
) -> dict:
    """Benchmark every kernel pair plus the end-to-end batch.

    Returns the result dict and, unless ``output`` is ``None``, writes it
    as JSON.  The ``kernels`` section has one entry (with a ``speedup``
    field) per registered kernel — the contract the CI smoke job checks.
    """
    from ..core import calibrated_supply

    network = calibrated_supply(150)
    repeats = _size("repeats", quick)
    cases = _kernel_cases(quick, network)
    missing = set(available_kernels()) - set(cases)
    if missing:
        raise RuntimeError(
            f"no bench case for registered kernels: {sorted(missing)}"
        )
    results = {
        "quick": quick,
        "kernels": {},
        "end_to_end": {},
    }
    for name in available_kernels():
        results["kernels"][name] = _time_pair(name, cases[name], repeats)
    results["end_to_end"]["characterize_batch"] = _bench_characterize_batch(
        quick, network, repeats
    )
    results["obs_overhead"] = _bench_obs_overhead(quick, network, repeats)
    if output is not None:
        Path(output).write_text(json.dumps(results, indent=2) + "\n")
    return results


def format_results(results: dict) -> str:
    """Human-readable table of one :func:`run_bench` result dict."""
    lines = [
        f"kernel benchmarks ({'quick' if results['quick'] else 'full'} mode):",
        f"  {'kernel':<24} {'reference':>11} {'vectorized':>11} "
        f"{'speedup':>8}  {'max diff':>9}",
    ]
    rows = dict(results["kernels"])
    rows.update(results["end_to_end"])
    for name, row in rows.items():
        lines.append(
            f"  {name:<24} {row['reference_s'] * 1e3:>9.2f}ms "
            f"{row['vectorized_s'] * 1e3:>9.2f}ms "
            f"{row['speedup']:>7.1f}x  {row['max_abs_diff']:>9.2e}"
        )
    overhead = results.get("obs_overhead")
    if overhead:
        lines.append(
            f"  obs off-path overhead: {overhead['overhead_pct']:.2f}% "
            f"(budget {overhead['budget_pct']:.0f}%; off "
            f"{overhead['off_s'] * 1e3:.2f}ms vs stripped "
            f"{overhead['stripped_s'] * 1e3:.2f}ms)"
        )
    return "\n".join(lines)
