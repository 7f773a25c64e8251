"""Declarative job model for the batch-characterization pipeline.

A :class:`JobSpec` names everything one unit of work depends on — the
benchmark, the simulated interval, the supply network and the analysis
stages to run — as plain values, never live objects.  That buys three
things at once:

* jobs can cross a process boundary (the executor pickles specs, not
  simulators);
* two specs that describe the same computation hash identically, which
  is what makes the on-disk result cache content-addressed;
* a spec is self-describing, so ``repro pipeline status`` and the cache
  layout stay debuggable with nothing but a JSON viewer.

The supply network travels as its design-facing parameter tuple (the
frozen-dataclass fields of :class:`~repro.power.PowerSupplyNetwork`), so
a worker reconstructs the *exact* network without re-running the
stressmark calibration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields

from .. import __version__
from ..errors import SpecError
from ..power import PowerSupplyNetwork
from ..store.ref import TraceRef
from ..uarch.config import TABLE_1
from ..workloads.spec import SPEC2000, WorkloadProfile

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_SALT",
    "DEFAULT_STAGES",
    "STORE_STAGES",
    "SCENARIO_STAGES",
    "JobSpec",
    "simulation_weight",
    "serialize_network",
    "deserialize_network",
    "trace_identity",
]

#: Bump when artifact layouts change; invalidates every cache entry.
#: v2: characterize artifacts come from the vectorized kernel backend,
#: whose floats can differ from v1's sequential loop in the last ulp.
#: v3: trace-producing stages key on a dtype-explicit trace identity, so
#: a float32 store trace and a float64 regenerated trace never collide
#: (and equivalent ones dedupe across ``simulate``/``load_trace``).
#: v4: the ``scenario`` stage joins the ``trace`` namespace; scenario
#: jobs identify their trace by the canonical-JSON scenario parameter.
CACHE_SCHEMA_VERSION = 4

#: Code-version salt folded into every cache key, so results computed by
#: a different release or schema never alias.
CACHE_SALT = f"repro/{__version__}/pipeline-schema-{CACHE_SCHEMA_VERSION}"

#: The §4 characterization chain (Figure 9's estimate vs. truth).
DEFAULT_STAGES = ("simulate", "voltage", "characterize")

#: The same chain fed from the trace store instead of the simulator.
STORE_STAGES = ("load_trace", "voltage", "characterize")

#: The same chain fed from a compiled stress scenario
#: (:mod:`repro.scenarios`) instead of a single benchmark simulation.
SCENARIO_STAGES = ("scenario", "voltage", "characterize")


#: Fast-forwarded cycles per instruction that a code footprint far beyond
#: the L1 I-cache adds (fetch stalls on refills from L2); fitted to gcc's
#: 512 KB loop nest, the one model whose code does not fit.
ICACHE_SKIP_PER_INST = 0.07


def simulation_weight(profile: WorkloadProfile) -> float:
    """Simulator work per simulated cycle of ``profile`` on the Table 1
    machine, from its phase mix.

    The work of a run is the cycles the simulator ticks plus the
    instructions it commits; the cycles it fast-forwards cost next to
    nothing.  A CPI stack per phase splits each instruction's cycles into
    ticked ones (``1/width``, stretched towards one cycle by the
    dependent-chain share) and skipped ones: the L2 misses of its cold
    accesses, overlapped at most an RUU's worth at a time, and the
    redirect after a mispredicted data-dependent branch (half of the
    50/50 ones).  Phases weigh by their mean length in instructions.
    """
    config = TABLE_1
    total = sum(phase.duration for phase in profile.phases)
    inverse_width = 1 / config.issue_width
    miss_cap = config.memory_latency / config.ruu_size
    ticked = skipped = 0.0
    for phase in profile.phases:
        share = phase.duration / total
        cold = (phase.load_fraction + phase.store_fraction) * phase.cold
        mispredicts = phase.branch_fraction * phase.hard_branch / 2
        ticked += share * (inverse_width + phase.serial * (1 - inverse_width))
        skipped += share * (
            min(cold * config.memory_latency, miss_cap)
            + mispredicts * config.branch_penalty
        )
    overflow = max(0.0, 1 - config.l1i.size_bytes / profile.code_bytes)
    skipped += overflow * ICACHE_SKIP_PER_INST
    return (ticked + 1) / (ticked + skipped)


def serialize_network(network: PowerSupplyNetwork) -> tuple[tuple[str, float], ...]:
    """A network as a sorted, hashable (field, value) tuple."""
    return tuple(
        sorted(
            (f.name, float(getattr(network, f.name)))
            for f in dataclass_fields(network)
        )
    )


def deserialize_network(
    data: tuple[tuple[str, float], ...] | None,
) -> PowerSupplyNetwork:
    """Rebuild the exact network a spec was created with."""
    if data is None:
        raise SpecError("job spec carries no supply network")
    return PowerSupplyNetwork(**dict(data))


@dataclass(frozen=True)
class JobSpec:
    """One benchmark x configuration x analysis-chain unit of work.

    Attributes
    ----------
    benchmark:
        Workload-model name (``repro.workloads.SPEC2000``).
    cycles / seed / warmup_cycles:
        Simulation interval, stream seed and SimPoint-style preamble —
        the full :func:`~repro.uarch.simulate_benchmark` contract.
    window / threshold:
        Characterization window (cycles, power of two) and the voltage
        control point the §4 estimate targets.
    network:
        Serialized supply network (see :func:`serialize_network`), or
        ``None`` for stages that need no supply model.
    impedance:
        Display label only (the paper's "percent of target impedance");
        never hashed — the concrete ``network`` is what matters.
    stages:
        Ordered analysis stages from the registry
        (:mod:`repro.pipeline.stages`).
    params:
        Sorted (name, value) pairs of stage-specific knobs (control
        scheme, monitor terms, margin, ...), JSON-scalar values only.
    trace:
        Serialized :class:`~repro.store.TraceRef` (see
        :meth:`~repro.store.TraceRef.to_spec`), or ``None``.  When set,
        the ``load_trace`` stage resolves the referenced trace by mmap /
        shared-memory attach instead of re-simulating — the zero-copy
        store path (``docs/STORE.md``).
    """

    benchmark: str
    cycles: int = 32768
    seed: int | None = None
    warmup_cycles: int = 4096
    window: int = 256
    threshold: float = 0.97
    network: tuple[tuple[str, float], ...] | None = None
    impedance: float | None = None
    stages: tuple[str, ...] = DEFAULT_STAGES
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    trace: tuple[tuple[str, object], ...] | None = None

    def __post_init__(self) -> None:
        if not self.benchmark:
            raise SpecError("benchmark must be non-empty")
        if self.cycles <= 0:
            raise SpecError("cycles must be positive")
        if self.warmup_cycles < 0:
            raise SpecError("warmup_cycles must be non-negative")
        if not self.stages:
            raise SpecError("a job needs at least one stage")
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate params: {names}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def make(
        cls,
        benchmark: str,
        *,
        network: PowerSupplyNetwork | None = None,
        params: dict[str, object] | None = None,
        trace: "TraceRef | tuple | None" = None,
        **kwargs,
    ) -> "JobSpec":
        """Build a spec from live objects (network, params, TraceRef)."""
        if isinstance(trace, TraceRef):
            trace = trace.to_spec()
        return cls(
            benchmark=benchmark,
            network=serialize_network(network) if network is not None else None,
            params=tuple(sorted((params or {}).items())),
            trace=trace,
            **kwargs,
        )

    # -- access ---------------------------------------------------------------

    def param(self, name: str, default=None):
        """A stage parameter by name, or ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def field_value(self, name: str):
        """A hashable field by name — spec attribute, derived identity,
        else param."""
        if name == "params":
            return list(list(p) for p in self.params)
        if name == "trace":
            return _jsonable(self.trace)
        if name == "trace_identity":
            return trace_identity(self)
        if hasattr(self, name):
            value = getattr(self, name)
            return list(list(p) for p in value) if name == "network" and value else value
        return self.param(name)

    def resolve_network(self) -> PowerSupplyNetwork:
        """The live supply network this spec was built against."""
        return deserialize_network(self.network)

    def resolve_trace_ref(self) -> TraceRef:
        """The live :class:`~repro.store.TraceRef` this spec carries."""
        if self.trace is None:
            raise SpecError(
                f"job {self.label} carries no trace ref", job=self.label
            )
        return TraceRef.from_spec(self.trace)

    # -- identity -------------------------------------------------------------

    def canonical(self) -> dict:
        """The spec as a JSON-ready dict (stable field order via sort)."""
        return {
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "seed": self.seed,
            "warmup_cycles": self.warmup_cycles,
            "window": self.window,
            "threshold": self.threshold,
            "network": self.field_value("network"),
            "stages": list(self.stages),
            "params": self.field_value("params"),
            "trace": self.field_value("trace"),
        }

    def digest(self) -> str:
        """Content hash of the whole spec (includes the code salt)."""
        return hash_payload({"salt": CACHE_SALT, "spec": self.canonical()})

    @property
    def label(self) -> str:
        """Short human label for progress lines."""
        if self.impedance is not None:
            return f"{self.benchmark}@{self.impedance:.0f}%"
        return self.benchmark

    def cost_hint(self) -> float:
        """This job's expected cost relative to the others of its batch.

        The supervised pool plans its dispatch on it.  It comes from the
        spec alone, never from a timing, so the same batch always gets the
        same plan: a store-ref job costs its samples, a scenario job its
        cycles, and a simulated job its simulated cycles (warm-up
        included) times its profile's :func:`simulation_weight`.
        """
        if self.trace is not None:
            return float(self.resolve_trace_ref().samples)
        if self.param("scenario") is not None:
            return float(self.cycles)
        profile = SPEC2000.get(self.benchmark)
        weight = 1.0 if profile is None else simulation_weight(profile)
        return (self.cycles + self.warmup_cycles) * weight

    def obs_attrs(self) -> dict:
        """Span attributes identifying this job in telemetry."""
        return {
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "stages": ",".join(self.stages),
        }


def _jsonable(value):
    """Nested tuples as nested lists, for stable canonical JSON."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def trace_identity(spec: "JobSpec") -> dict:
    """The content identity of the trace a job consumes (dtype-explicit).

    This is the payload the trace-producing stages (``simulate`` and
    ``load_trace``) hash into their shared cache-key namespace:

    * a spec with no :class:`~repro.store.TraceRef` identifies its trace
      by the full simulator invocation, at the simulator's native
      ``float64``;
    * a ref ingested from that same invocation (full trace, generator
      params recorded, ``float64``) produces the *identical* payload —
      so the stored and the regenerated trace address the same
      downstream cache entries;
    * any other ref (external trace, slice, ``float32``) identifies by
      its dtype-explicit content hash and slice, which can never collide
      with a different dtype of the same samples.
    """
    if spec.trace is not None:
        return spec.resolve_trace_ref().identity()
    scenario = spec.param("scenario")
    if scenario is not None:
        # Scenario jobs identify their trace by the scenario's canonical
        # JSON (cores, schedules, offsets, DVFS edges) plus the compile
        # contract — never by the display name, so an edited catalog
        # entry can't alias a stale cache entry.
        return {
            "kind": "scenario",
            "dtype": "float64",
            "scenario": scenario,
            "cycles": spec.cycles,
            "seed": spec.seed,
            "warmup_cycles": spec.warmup_cycles,
        }
    return {
        "kind": "simulate",
        "dtype": "float64",
        "benchmark": spec.benchmark,
        "cycles": spec.cycles,
        "seed": spec.seed,
        "warmup_cycles": spec.warmup_cycles,
    }


def hash_payload(payload: dict) -> str:
    """SHA-256 of a canonical-JSON payload (the cache-key primitive)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
