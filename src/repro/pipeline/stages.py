"""Stage registry: the pipeline's unit computations.

Each stage wraps one existing entry point — the out-of-order simulator,
the convolution voltage engine, the §4 wavelet-variance estimator, the
§5 closed-loop controllers — behind a uniform signature::

    stage(ctx: StageContext) -> artifact

Artifacts are either a :class:`~repro.uarch.SimulationResult` (``kind
= "result"``, persisted via :mod:`repro.uarch.traceio`) or a JSON-ready
dict of scalars (``kind = "json"``), so every artifact round-trips the
on-disk cache byte-identically.

Cache keys chain: stage *n*'s key hashes its own spec fields together
with stage *n-1*'s key, so editing the characterization threshold
invalidates ``voltage``/``characterize`` entries while the expensive
``simulate`` entry stays valid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ..core import (
    AnalogVoltageSensor,
    ControlResult,
    FullConvolutionMonitor,
    PipelineDampingController,
    ThresholdController,
    WaveletVoltageEstimator,
    WaveletVoltageMonitor,
    run_control_experiment,
)
from ..obs import trace as obs
from ..power import ConvolutionVoltageSimulator
from ..uarch import RunStatistics, SimulationResult, simulate_benchmark
from ..errors import SpecError
from .spec import CACHE_SALT, JobSpec, hash_payload
from .windows import streaming_characterize

__all__ = [
    "Stage",
    "StageContext",
    "available_stages",
    "get_stage",
    "register_stage",
    "stage_cache_keys",
    "control_result_from_artifact",
]


@dataclass(frozen=True)
class Stage:
    """One registered pipeline stage.

    ``key_name`` is the stage's cache-key namespace (default: its own
    name).  Stages that can *substitute* for one another — ``simulate``
    and ``load_trace`` both produce the job's current trace — share one
    namespace, so jobs whose trace identity matches chain to the same
    downstream cache entries regardless of which stage supplied the
    trace.

    ``trace_only`` declares that the stage reads nothing but
    ``ctx.current_trace()`` and the per-process ``_SHARED`` memo, never
    another stage's artifact; the executor may then compute it on a
    helper thread while the trace-only stage before it runs.
    """

    name: str
    func: Callable[["StageContext"], object]
    fields: tuple[str, ...]  # spec fields hashed into this stage's key
    kind: str = "json"  # artifact serialization: "json" | "result"
    key_name: str | None = None
    trace_only: bool = False


_REGISTRY: dict[str, Stage] = {}


def register_stage(
    name: str,
    *,
    fields: tuple[str, ...],
    kind: str = "json",
    key_name: str | None = None,
    trace_only: bool = False,
):
    """Decorator registering a stage function under ``name``."""

    def wrap(func):
        if name in _REGISTRY:
            raise SpecError(f"stage {name!r} already registered")
        if kind not in ("json", "result"):
            raise SpecError(f"unknown artifact kind {kind!r}")
        _REGISTRY[name] = Stage(
            name=name,
            func=func,
            fields=fields,
            kind=kind,
            key_name=key_name,
            trace_only=trace_only,
        )
        return func

    return wrap


def get_stage(name: str) -> Stage:
    """Look up a registered stage."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown stage {name!r}; available: {sorted(_REGISTRY)}",
            stage=name,
        ) from None


def available_stages() -> tuple[str, ...]:
    """Registered stage names, sorted."""
    return tuple(sorted(_REGISTRY))


def stage_cache_keys(spec: JobSpec) -> dict[str, str]:
    """The chained content-address of every stage of a job."""
    keys: dict[str, str] = {}
    prev = ""
    for name in spec.stages:
        stage = get_stage(name)
        payload = {
            "salt": CACHE_SALT,
            "stage": stage.key_name or name,
            "prev": prev,
            "fields": {f: spec.field_value(f) for f in stage.fields},
        }
        prev = hash_payload(payload)
        keys[name] = prev
    return keys


# Process-level memo of the heavy objects every job against one network
# shares, keyed by kind and network: calibrating an estimator costs a
# stressmark-sized simulation (the figure code likewise shared one), and a
# voltage engine keeps its kernel's spectrum from one trace to the next.
_SHARED: dict[tuple, object] = {}


class StageContext:
    """Per-job execution context handed to every stage.

    Lazily builds (and memoizes per process) the shared heavy objects —
    supply network, calibrated estimator, convolution engine — and
    carries the artifacts of already-executed stages in ``artifacts``.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.artifacts: dict[str, object] = {}
        self._current: np.ndarray | None = None

    @property
    def network(self):
        return self.spec.resolve_network()

    @staticmethod
    def _shared(key: tuple, build: Callable[[], object], counter: str, doc: str):
        """``_SHARED[key]``, built (and counted in ``counter``) on a miss."""
        if key not in _SHARED:
            _SHARED[key] = build()
            obs.counter_inc(counter, 1, doc)
        return _SHARED[key]

    @property
    def estimator(self) -> WaveletVoltageEstimator:
        def build():
            with obs.span("pipeline.calibrate", window=self.spec.window):
                return WaveletVoltageEstimator(
                    self.network, window=self.spec.window
                )

        return self._shared(
            ("estimator", self.spec.network, self.spec.window),
            build,
            "pipeline_estimator_builds_total",
            "cold wavelet-estimator calibrations (memo misses)",
        )

    @property
    def voltage_engine(self) -> ConvolutionVoltageSimulator:
        return self._shared(
            ("voltage", self.spec.network),
            lambda: ConvolutionVoltageSimulator(self.network),
            "pipeline_voltage_engine_builds_total",
            "convolution voltage engines built (memo misses)",
        )

    def simulation(self):
        """The upstream simulation artifact (most stages' input)."""
        try:
            return self.artifacts["simulate"]
        except KeyError:
            raise SpecError(
                f"stage chain {self.spec.stages} needs 'simulate' first"
            ) from None

    def current_trace(self) -> np.ndarray:
        """The job's per-cycle current trace, however it is sourced.

        Specs carrying a :class:`~repro.store.TraceRef` resolve it here
        (zero-copy mmap / shared-memory attach, memoized per job — also
        when ``load_trace`` itself was a cache hit); plain specs read
        the upstream simulation artifact.
        """
        if self._current is None:
            if self.spec.trace is not None:
                with obs.span(
                    "store.attach", benchmark=self.spec.benchmark
                ):
                    self._current = self.spec.resolve_trace_ref().resolve()
            elif "scenario" in self.artifacts:
                self._current = self.artifacts["scenario"].current
            else:
                self._current = self.simulation().current
        return self._current


# -- built-in stages ----------------------------------------------------------


@register_stage(
    "simulate",
    fields=("trace_identity",),
    kind="result",
    key_name="trace",
)
def _stage_simulate(ctx: StageContext):
    """Run the Table-1 machine over the workload model (§3.2)."""
    return simulate_benchmark(
        ctx.spec.benchmark,
        cycles=ctx.spec.cycles,
        seed=ctx.spec.seed,
        warmup_cycles=ctx.spec.warmup_cycles,
    )


@register_stage(
    "scenario",
    fields=("trace_identity",),
    kind="result",
    key_name="trace",
)
def _stage_scenario(ctx: StageContext):
    """Compile a composed stress scenario into the job's current trace.

    The spec carries the scenario's canonical JSON in
    ``params["scenario"]`` (see
    :func:`repro.scenarios.scenario_param`); compiling it runs every
    atom span through the Table-1 simulator, superposes cores, and
    applies DVFS envelopes.  The artifact is a synthetic
    :class:`~repro.uarch.SimulationResult` so scenario traces
    round-trip the ``kind = "result"`` cache exactly like simulated
    ones — a cache hit restores the trace for downstream stages.
    """
    from ..scenarios import compile_scenario, scenario_from_param

    spec = ctx.spec
    param = spec.param("scenario")
    if param is None:
        raise SpecError(
            f"job {spec.label} has a 'scenario' stage but no "
            "'scenario' parameter",
            job=spec.label,
        )
    scenario = scenario_from_param(str(param))
    with obs.span(
        "scenario.compile",
        benchmark=spec.benchmark,
        cores=len(scenario.cores),
        cycles=spec.cycles,
    ):
        current = compile_scenario(
            scenario,
            spec.cycles,
            seed=spec.seed,
            warmup_cycles=spec.warmup_cycles,
        )
    return SimulationResult(
        name=spec.benchmark,
        current=current,
        l2_outstanding=np.zeros(current.size, dtype=bool),
        stats=RunStatistics(),
    )


@register_stage("load_trace", fields=("trace_identity",), key_name="trace")
def _stage_load_trace(ctx: StageContext):
    """Resolve the spec's :class:`~repro.store.TraceRef` in place.

    The zero-copy replacement for ``simulate``: the worker attaches the
    stored trace read-only (mmap or shared memory) and downstream stages
    run kernels directly on the view.  The artifact is a small JSON
    descriptor — the samples themselves never enter the cache or the
    job result channel.
    """
    ref = ctx.spec.resolve_trace_ref()
    current = ctx.current_trace()
    if current.size != ref.samples:
        raise SpecError(
            f"trace {ref.trace_id} resolved to {current.size} samples, "
            f"ref promises {ref.samples}",
            trace_id=ref.trace_id,
            store=ref.store,
        )
    return {
        "trace_id": ref.trace_id,
        "store": ref.store,
        "dtype": ref.dtype,
        "samples": int(current.size),
        "sha256": ref.sha256,
    }


@register_stage("voltage", fields=("network", "threshold"), trace_only=True)
def _stage_voltage(ctx: StageContext):
    """Convolution-simulated supply voltage: the §4 ground truth."""
    sim = ctx.voltage_engine
    current = ctx.current_trace()
    voltage = sim.voltage(current)[min(sim.taps, len(current) // 4) :]
    return {
        "observed": float(np.mean(voltage < ctx.spec.threshold)),
        "min_voltage": float(voltage.min()) if voltage.size else None,
        "mean_voltage": float(voltage.mean()) if voltage.size else None,
        "settled_cycles": int(voltage.size),
    }


@register_stage(
    "characterize", fields=("network", "threshold", "window"), trace_only=True
)
def _stage_characterize(ctx: StageContext):
    """The §4.1 wavelet-variance estimate, streamed block by block.

    One pass through the kernel-dispatched batch path yields both the
    below-threshold estimate and the per-level contributions.
    """
    estimator = ctx.estimator
    estimated, count, levels = streaming_characterize(
        estimator, ctx.current_trace(), ctx.spec.threshold
    )
    if obs.ENABLED:
        for lvl, contribution in levels.items():
            obs.gauge_set(
                "characterize_level_contribution",
                contribution,
                "per-scale voltage-variance contribution of the last trace",
                level=str(lvl),
            )
    return {
        "estimated": estimated,
        "windows": count,
        # JSON object keys are strings; keep them strings from the start
        # so cached and fresh artifacts compare equal.
        "level_contributions": {str(lvl): v for lvl, v in levels.items()},
    }


def build_controller(scheme: str, network, spec: JobSpec):
    """Construct a §5/§6 controller from declarative spec params."""
    margin = float(spec.param("margin", 0.012))
    if scheme == "wavelet":
        terms = int(spec.param("terms", 13))
        return ThresholdController(
            WaveletVoltageMonitor(network, terms=terms), network, margin
        )
    if scheme == "fullconv":
        return ThresholdController(
            FullConvolutionMonitor(network), network, margin
        )
    if scheme == "analog":
        delay = int(spec.param("sensor_delay", 2))
        return ThresholdController(
            AnalogVoltageSensor(network, delay=delay), network, margin
        )
    if scheme == "damping":
        kwargs = {"delta": float(spec.param("damping_delta", 6.0))}
        window = spec.param("damping_window")
        if window is not None:
            kwargs["window"] = int(window)
        return PipelineDampingController(network, **kwargs)
    raise SpecError(f"unknown control scheme {scheme!r}", scheme=scheme)


@register_stage(
    "control",
    fields=("benchmark", "cycles", "warmup_cycles", "network", "params"),
)
def _stage_control(ctx: StageContext):
    """One closed-loop control experiment (§5.3 / Table 2)."""
    spec = ctx.spec
    scheme = str(spec.param("scheme", "wavelet"))
    network = ctx.network
    result = run_control_experiment(
        spec.benchmark,
        network,
        lambda: build_controller(scheme, network, spec),
        cycles=spec.cycles,
        warmup_cycles=spec.warmup_cycles,
    )
    return {"scheme": scheme, **asdict(result)}


def control_result_from_artifact(artifact: dict) -> ControlResult:
    """Rebuild the live :class:`ControlResult` from a control artifact."""
    data = {k: v for k, v in artifact.items() if k != "scheme"}
    return ControlResult(**data)
