"""``JobSpec.cost_hint``: a deterministic estimate of a job's cost.

The supervised pool plans its dispatch on these hints, so what matters
is that they rank jobs the way the simulator's work does.  For a
simulated job that work is the cycles it ticks plus the instructions it
commits (fast-forwarded cycles are nearly free); the rank test counts
both exactly from a short simulation of each model.
"""

import pytest

from repro.pipeline import JobSpec, build_scenario_jobs
from repro.store import TraceRef
from repro.uarch.simulator import _run_cycles, _warm_pipeline

#: The ``sweep_cold`` models, costliest first; the last two are close.
RANKED = ("gzip", "mgrid", "gcc", "vpr")
TAIL = ("swim", "mcf")
CYCLES = 16384
WARMUP = 4096


def exact_work(name: str) -> int:
    """Ticked cycles plus committed instructions over warm-up and run."""
    pipe = _warm_pipeline(name, 0)  # caches pre-warmed, nothing run yet
    _run_cycles(pipe, WARMUP + CYCLES)
    return pipe.cycle - pipe.skipped_cycles + pipe.stats.committed


def hint(name: str) -> float:
    return JobSpec(name, cycles=CYCLES, warmup_cycles=WARMUP).cost_hint()


def test_hint_ranks_the_sweep_models_like_their_simulated_work():
    hints = {name: hint(name) for name in RANKED + TAIL}
    work = {name: exact_work(name) for name in RANKED + TAIL}
    for ranking in (hints, work):
        ordered = [ranking[name] for name in RANKED]
        assert ordered == sorted(ordered, reverse=True), ranking
        assert max(ranking[name] for name in TAIL) < ranking[RANKED[-1]]


def test_hint_is_deterministic_and_scales_with_simulated_cycles():
    assert hint("gzip") == hint("gzip")
    short = JobSpec("gzip", cycles=CYCLES - WARMUP, warmup_cycles=2 * WARMUP)
    assert short.cost_hint() == pytest.approx(hint("gzip"))
    assert JobSpec("gzip", cycles=2 * CYCLES, warmup_cycles=2 * WARMUP
                   ).cost_hint() == pytest.approx(2 * hint("gzip"))


def test_store_and_scenario_jobs_cost_their_length():
    ref = TraceRef(
        store="unused", trace_id="t", dtype="float64", cycles=10000,
        sha256="0" * 64, start=1000, stop=4000,
    )
    assert JobSpec.make("gzip", trace=ref).cost_hint() == 3000
    (scenario,) = build_scenario_jobs(["burst-train"], None, cycles=5000)
    assert scenario.cost_hint() == 5000


def test_unknown_benchmarks_weigh_one_per_cycle():
    assert JobSpec("custom", cycles=100, warmup_cycles=20).cost_hint() == 120
