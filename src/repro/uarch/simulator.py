"""Top-level simulation driver: workload in, current trace out (§3.2).

Wraps the pipeline into a one-call API returning a
:class:`SimulationResult` — the per-cycle current trace plus the per-cycle
L2-miss-outstanding flag and run statistics.  A bounded process-level LRU
memo keyed on (benchmark, cycles, seed, warm-up) keeps the 26-benchmark
experiment sweeps from re-simulating the same traces.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from ..obs import trace as obs
from ..workloads.generator import generate, prewarm_caches
from ..workloads.spec import WorkloadProfile, get_profile
from .config import ProcessorConfig, TABLE_1
from .events import RunStatistics
from .isa import Instruction
from .pipeline import Pipeline
from .power_model import WattchPowerModel

__all__ = ["SimulationResult", "Simulator", "simulate_benchmark", "DidtController"]


class DidtController(Protocol):
    """Closed-loop dI/dt controller interface (§5's actuation loop).

    After every cycle the simulator feeds the controller the cycle's
    current draw; the controller answers with the actuation for the *next*
    cycle: whether to stall issue and how many no-ops to inject.
    """

    def update(self, current: float) -> tuple[bool, int]:
        """Observe one cycle; return (stall_issue, inject_noops)."""
        ...


@dataclass
class SimulationResult:
    """Everything a characterization or control experiment consumes."""

    name: str
    current: np.ndarray  # per-cycle amperes
    l2_outstanding: np.ndarray  # per-cycle bool: L1-missing load in flight
    stats: RunStatistics

    @property
    def cycles(self) -> int:
        """Simulated cycle count."""
        return len(self.current)

    @property
    def mean_current(self) -> float:
        """Average amperage over the run."""
        return float(self.current.mean()) if self.cycles else 0.0


def _record_run(result: SimulationResult, pipe: Pipeline) -> None:
    """Fold one finished run's aggregate activity into the obs registry.

    Recorded once per run (never per cycle), so the simulator's hot loop
    carries zero instrumentation overhead.
    """
    s = result.stats
    obs.counter_inc(
        "sim_runs_total", 1, "simulation runs", benchmark=result.name
    )
    obs.counter_inc("sim_cycles_total", s.cycles, "simulated machine cycles")
    obs.counter_inc(
        "sim_skipped_cycles_total",
        pipe.skipped_cycles,
        "quiescent cycles fast-forwarded instead of ticked",
    )
    for kind in (
        "fetched",
        "dispatched",
        "issued",
        "committed",
        "branches",
        "mispredictions",
        "noops_injected",
        "store_forwards",
        "stall_cycles",
        "l1i_misses",
        "l1d_misses",
        "l2_misses",
    ):
        count = getattr(s, kind)
        if count:
            obs.counter_inc(
                "sim_events_total",
                count,
                "pipeline activity by event kind",
                kind=kind,
            )
    obs.gauge_set(
        "sim_ipc", s.ipc, "last run's committed IPC", benchmark=result.name
    )
    obs.gauge_set(
        "sim_mean_current",
        result.mean_current,
        "last run's mean current draw (A)",
        benchmark=result.name,
    )
    # per-funit activity, when the run tracked the power breakdown
    try:
        breakdown = pipe.power_breakdown
    except RuntimeError:
        breakdown = {}
    for unit, amps in breakdown.items():
        obs.gauge_set(
            "sim_funit_current",
            amps,
            "per-functional-unit mean current (A)",
            unit=unit,
            benchmark=result.name,
        )


def _run_cycles(
    pipe: Pipeline, cycles: int, controller: DidtController | None = None,
    target: Callable[[int], int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one cycle loop: run ``pipe`` for up to ``cycles`` cycles.

    Returns the per-cycle current and L2-miss-outstanding flag, cut short
    if the machine drains.  Without a controller, quiescent stretches are
    fast-forwarded (:meth:`Pipeline.fast_forward`) and filled with the idle
    current; a controller observes every cycle, so it gets them all ticked,
    its decisions applied with a one-cycle delay.  A controlled run given
    ``target`` also stops once ``pipe.stats.committed`` reaches the total
    that ``target`` bounds from below: ``target(committed)`` returns a
    bound above ``committed`` or the exact total, blocking until it has
    one.  The loop compares the count with the last bound every cycle and
    asks again only when the count reaches it.
    """
    bound = math.inf if target is None else 0
    current = np.empty(cycles)
    l2_flag = np.empty(cycles, dtype=bool)
    tick = pipe.tick
    n = 0
    while n < cycles:
        if controller is None:
            skipped = pipe.fast_forward(cycles - n)
            if skipped:
                current[n : n + skipped] = pipe.idle_current
                l2_flag[n : n + skipped] = pipe.l2_miss_outstanding
                n += skipped
                if n == cycles:
                    break
        amps = tick()
        current[n] = amps
        l2_flag[n] = pipe.l2_miss_outstanding
        n += 1
        if controller is not None:
            pipe.stall_issue, pipe.inject_noops = controller.update(amps)
            if pipe.stats.committed >= bound:
                bound = target(pipe.stats.committed)
                if pipe.stats.committed >= bound:
                    break
        if pipe.drained:
            break
    return current[:n], l2_flag[:n]


def _warm_pipeline(
    benchmark: str | WorkloadProfile, warmup_cycles: int,
    config: ProcessorConfig = TABLE_1, seed: int | None = None, **options,
) -> Pipeline:
    """A machine with pre-warmed caches, run ``warmup_cycles`` unrecorded
    (the SimPoint interval's preamble), its statistics and breakdown then
    restarted; ``options`` go to :class:`Pipeline`."""
    pipe = Pipeline(config, iter(generate(benchmark, seed)), **options)
    prewarm_caches(pipe.caches, benchmark)
    _run_cycles(pipe, warmup_cycles)
    pipe.stats = RunStatistics()
    pipe.reset_breakdown()
    return pipe


class Simulator:
    """Configurable driver around :class:`~repro.uarch.pipeline.Pipeline`."""

    def __init__(
        self,
        config: ProcessorConfig = TABLE_1,
        power_model: WattchPowerModel | None = None,
    ) -> None:
        self.config = config
        self.power_model = power_model

    def run(
        self,
        stream: Iterable[Instruction] | Iterator[Instruction],
        max_cycles: int,
        name: str = "trace",
        controller: DidtController | None = None,
    ) -> SimulationResult:
        """Simulate until ``max_cycles`` or the stream drains.

        With a ``controller``, its decisions are applied with a one-cycle
        delay (sensor-to-actuator latency), exactly as a hardware monitor
        would act.
        """
        if max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        pipe = Pipeline(self.config, iter(stream), self.power_model)
        with obs.span(
            "uarch.simulate",
            benchmark=name,
            max_cycles=max_cycles,
            controlled=controller is not None,
        ) as span:
            current, l2_flag = _run_cycles(pipe, max_cycles, controller)
            span.set(skipped=pipe.skipped_cycles)
        result = SimulationResult(
            name=name, current=current, l2_outstanding=l2_flag, stats=pipe.stats
        )
        if obs.ENABLED:
            _record_run(result, pipe)
        return result


#: Traces the process-level memo holds before evicting the least recently
#: used; a full-length trace is about 0.6 MB.
MEMO_SIZE = 32
_CACHE: OrderedDict[tuple[str, int, int | None, int], SimulationResult] = (
    OrderedDict()
)


def simulate_benchmark(
    benchmark: str | WorkloadProfile,
    cycles: int = 65536,
    seed: int | None = None,
    config: ProcessorConfig = TABLE_1,
    use_cache: bool = True,
    warmup_cycles: int = 4096,
) -> SimulationResult:
    """Simulate one SPEC2000 workload model and return its trace.

    Caches are pre-warmed with the profile's working sets and the machine
    runs ``warmup_cycles`` before measurement begins, standing in for a
    SimPoint interval's preamble.  For the default configuration the
    ``MEMO_SIZE`` most recently used results are kept per
    (name, cycles, seed, warmup), since the experiment sweeps revisit the
    same traces.
    """
    profile = get_profile(benchmark) if isinstance(benchmark, str) else benchmark
    key = (profile.name, cycles, seed, warmup_cycles)
    cacheable = use_cache and config is TABLE_1
    if cacheable and key in _CACHE:
        obs.counter_inc(
            "sim_memo_hits_total", 1, "in-process simulation memo hits"
        )
        _CACHE.move_to_end(key)
        return _CACHE[key]
    with obs.span(
        "uarch.simulate",
        benchmark=profile.name,
        max_cycles=cycles,
        warmup_cycles=warmup_cycles,
    ) as span:
        pipe = _warm_pipeline(profile, warmup_cycles, config, seed)
        current, l2_flag = _run_cycles(pipe, cycles)
        span.set(skipped=pipe.skipped_cycles)
    result = SimulationResult(
        name=profile.name, current=current, l2_outstanding=l2_flag, stats=pipe.stats
    )
    if obs.ENABLED:
        _record_run(result, pipe)
    if cacheable:
        _CACHE[key] = result
        if len(_CACHE) > MEMO_SIZE:
            _CACHE.popitem(last=False)
            obs.counter_inc(
                "sim_memo_evictions_total",
                1,
                "simulation memo entries evicted (least recently used)",
            )
    return result
