"""Parallel batch-characterization pipeline with an on-disk result cache.

The execution subsystem behind the paper's 26-benchmark sweeps: a
declarative job model (:class:`JobSpec`), a registry of analysis stages
wrapping the simulator / voltage engine / wavelet estimator /
controllers, a fault-tolerant ``multiprocessing`` executor with
ordered result collection (per-job timeouts, bounded retries with
backoff, worker-crash recovery and checkpoint/resume — see
``docs/ROBUSTNESS.md``), a deterministic fault-injection harness
(:mod:`repro.pipeline.faults`), streaming window iteration for
arbitrarily long traces, and a content-addressed cache so re-running a
figure only recomputes invalidated jobs.

Quickstart::

    from repro.core import calibrated_supply
    from repro.pipeline import BatchOptions, submit
    from repro.pipeline import build_characterization_jobs
    from repro.pipeline import predictions_from

    specs = build_characterization_jobs(
        ("gzip", "mcf"), calibrated_supply(150), cycles=16384
    )
    batch = submit(
        specs, BatchOptions(jobs=2, cache_dir=".repro-cache")
    )
    print(predictions_from(batch))

``submit`` + :class:`BatchOptions` is the one execution entry point.

See ``docs/PIPELINE.md`` for the job model, cache layout and worker
tuning guidance.
"""

from .batch import (
    build_characterization_jobs,
    build_control_jobs,
    build_scenario_jobs,
    build_store_jobs,
    control_results_from,
    prediction_from_outcome,
    predictions_from,
    suite_names,
)
from .cache import CacheStats, ResultCache
from .executor import (
    BatchResult,
    JobOutcome,
    PipelineError,
    PipelineExecutor,
    RetryPolicy,
)
from .faults import FaultDirective, FaultPlan, active_plan, parse_plan
from .spec import (
    CACHE_SALT,
    CACHE_SCHEMA_VERSION,
    DEFAULT_STAGES,
    SCENARIO_STAGES,
    STORE_STAGES,
    JobSpec,
    deserialize_network,
    serialize_network,
    trace_identity,
)
from .submit import BatchOptions, submit
from .stages import (
    Stage,
    StageContext,
    available_stages,
    get_stage,
    register_stage,
    stage_cache_keys,
)
from .windows import (
    as_chunks,
    iter_windows,
    streaming_fraction_below,
    streaming_level_contributions,
)

__all__ = [
    "BatchOptions",
    "BatchResult",
    "CACHE_SALT",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DEFAULT_STAGES",
    "FaultDirective",
    "FaultPlan",
    "JobOutcome",
    "JobSpec",
    "PipelineError",
    "PipelineExecutor",
    "ResultCache",
    "RetryPolicy",
    "SCENARIO_STAGES",
    "STORE_STAGES",
    "Stage",
    "StageContext",
    "active_plan",
    "as_chunks",
    "available_stages",
    "build_characterization_jobs",
    "build_control_jobs",
    "build_scenario_jobs",
    "build_store_jobs",
    "control_results_from",
    "deserialize_network",
    "get_stage",
    "iter_windows",
    "parse_plan",
    "prediction_from_outcome",
    "predictions_from",
    "register_stage",
    "serialize_network",
    "stage_cache_keys",
    "streaming_fraction_below",
    "streaming_level_contributions",
    "submit",
    "suite_names",
    "trace_identity",
]
