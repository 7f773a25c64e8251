"""High-level batch helpers: suites in, figure-ready results out.

Bridges the declarative executor and the paper-facing result types —
build a suite's worth of :class:`JobSpec`, run it through the pool, and
convert the artifacts back into :class:`~repro.core.TracePrediction` /
:class:`~repro.core.ControlResult` objects the figure code consumes.
"""

from __future__ import annotations

from ..core import TracePrediction
from ..errors import SpecError
from ..power import PowerSupplyNetwork
from ..workloads import SPEC2000, SPEC_FP, SPEC_INT
from .executor import BatchResult, JobOutcome
from .spec import DEFAULT_STAGES, SCENARIO_STAGES, STORE_STAGES, JobSpec
from .stages import control_result_from_artifact

__all__ = [
    "suite_names",
    "build_characterization_jobs",
    "build_control_jobs",
    "build_scenario_jobs",
    "build_store_jobs",
    "prediction_from_outcome",
    "predictions_from",
    "control_results_from",
]

_SUITES = {
    "spec2000": tuple(SPEC2000),
    "int": tuple(SPEC_INT),
    "fp": tuple(SPEC_FP),
}


def suite_names(suite: str) -> tuple[str, ...]:
    """Benchmark names of a named suite (``spec2000``/``int``/``fp``)."""
    try:
        return _SUITES[suite]
    except KeyError:
        raise SpecError(
            f"unknown suite {suite!r}; available: {sorted(_SUITES)}",
            suite=suite,
        ) from None


def build_characterization_jobs(
    names,
    network: PowerSupplyNetwork,
    *,
    cycles: int = 32768,
    threshold: float = 0.97,
    window: int = 256,
    seed: int | None = None,
    warmup_cycles: int = 4096,
    impedance: float | None = None,
    stages: tuple[str, ...] = DEFAULT_STAGES,
) -> list[JobSpec]:
    """The full §4 chain for every benchmark in ``names``."""
    return [
        JobSpec.make(
            name,
            network=network,
            cycles=cycles,
            threshold=threshold,
            window=window,
            seed=seed,
            warmup_cycles=warmup_cycles,
            impedance=impedance,
            stages=stages,
        )
        for name in names
    ]


def build_store_jobs(
    store,
    network: PowerSupplyNetwork,
    *,
    trace_ids=None,
    benchmarks=None,
    threshold: float = 0.97,
    window: int = 256,
    impedance: float | None = None,
    stages: tuple[str, ...] = STORE_STAGES,
) -> list[JobSpec]:
    """The §4 chain fed from a :class:`~repro.store.TraceStore`.

    One job per stored trace (filtered by ``trace_ids`` and/or
    ``benchmarks``), each carrying a :class:`~repro.store.TraceRef`
    instead of re-simulating — workers attach the samples zero-copy.
    Traces ingested with their generator params recorded produce the
    same cache keys as the equivalent ``simulate`` jobs, so a stored
    corpus and a regenerated sweep share downstream artifacts.
    """
    wanted_ids = set(trace_ids) if trace_ids is not None else None
    wanted_benchmarks = set(benchmarks) if benchmarks is not None else None
    specs = []
    for record in store.records():
        if wanted_ids is not None and record.trace_id not in wanted_ids:
            continue
        if (
            wanted_benchmarks is not None
            and record.benchmark not in wanted_benchmarks
        ):
            continue
        if record.cycles == 0:
            continue  # nothing to characterize in an empty trace
        generator = record.generator or {}
        specs.append(
            JobSpec.make(
                record.benchmark,
                network=network,
                cycles=record.cycles,
                threshold=threshold,
                window=window,
                seed=generator.get("seed"),
                warmup_cycles=int(generator.get("warmup_cycles", 0)),
                impedance=impedance,
                stages=stages,
                trace=store.ref(record),
            )
        )
    if not specs:
        raise SpecError(
            f"no matching traces in store {store.root}",
            store=str(store.root),
        )
    return specs


def build_scenario_jobs(
    names,
    network: PowerSupplyNetwork,
    *,
    cycles: int | None = None,
    threshold: float = 0.97,
    window: int = 256,
    seed: int | None = None,
    warmup_cycles: int = 512,
    impedance: float | None = None,
    stages: tuple[str, ...] = SCENARIO_STAGES,
) -> list[JobSpec]:
    """The §4 chain fed from composed stress scenarios.

    ``names`` are catalog scenario names, atomic profile names, or
    schedule expressions (see :func:`repro.scenarios.resolve_scenario`
    — unknown names raise a structured :class:`SpecError` listing the
    valid ones).  Each job carries the scenario's canonical JSON in
    ``params["scenario"]``; the ``scenario`` stage compiles it and the
    rest of the chain (voltage, characterize, caching, obs)
    runs unchanged.  ``cycles=None`` uses each scenario's own default.
    """
    from ..scenarios import resolve_scenario, scenario_param

    specs = []
    for name in names:
        scenario = resolve_scenario(name)
        specs.append(
            JobSpec.make(
                scenario.name,
                network=network,
                cycles=int(cycles if cycles is not None else scenario.cycles),
                threshold=threshold,
                window=window,
                seed=seed,
                warmup_cycles=warmup_cycles,
                impedance=impedance,
                stages=stages,
                params={"scenario": scenario_param(scenario)},
            )
        )
    return specs


def build_control_jobs(
    names,
    network: PowerSupplyNetwork,
    *,
    scheme: str = "wavelet",
    cycles: int = 16384,
    warmup_cycles: int = 4096,
    impedance: float | None = None,
    **params,
) -> list[JobSpec]:
    """Closed-loop §5/§6 control jobs for every benchmark in ``names``."""
    return [
        JobSpec.make(
            name,
            network=network,
            cycles=cycles,
            warmup_cycles=warmup_cycles,
            impedance=impedance,
            stages=("control",),
            params={"scheme": scheme, **params},
        )
        for name in names
    ]


def prediction_from_outcome(outcome: JobOutcome) -> TracePrediction:
    """Recompose Figure 9's estimate-vs-truth pair from artifacts."""
    characterize = outcome.artifacts.get("characterize")
    voltage = outcome.artifacts.get("voltage")
    if characterize is None or voltage is None:
        raise SpecError(
            f"{outcome.spec.label}: prediction needs the 'voltage' and "
            f"'characterize' stages (got {tuple(outcome.artifacts)})",
            job=outcome.spec.label,
        )
    return TracePrediction(
        name=outcome.spec.benchmark,
        threshold=outcome.spec.threshold,
        estimated=characterize["estimated"],
        observed=voltage["observed"],
    )


def predictions_from(batch: BatchResult) -> dict[str, TracePrediction]:
    """Per-benchmark predictions of a characterization batch, in order."""
    return {
        o.spec.benchmark: prediction_from_outcome(o)
        for o in batch.outcomes
        if o.ok
    }


def control_results_from(batch: BatchResult) -> list:
    """Live :class:`ControlResult` objects of a control batch, in order."""
    return [
        control_result_from_artifact(o.artifacts["control"])
        for o in batch.outcomes
        if o.ok
    ]
