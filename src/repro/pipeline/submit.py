"""The single batch-submission entry point: ``submit(specs, options)``.

Every execution knob lives on one frozen :class:`BatchOptions` value,
so the CLI, ``serve/`` and the library cannot drift apart.  Spec
*construction* stays with the builders (``build_characterization_jobs``
and friends) — they describe *what* to compute; :class:`BatchOptions`
describes *how hard and where* to compute it.

``submit`` also owns the one environment bridge the CLI used to set up
by hand: ``options.fault_plan`` is mirrored into ``REPRO_FAULT_PLAN``
for the run (workers read the plan from the environment) and restored
on exit, so nested/serial submits cannot leak state into each other.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

from ..errors import SpecError
from . import faults
from .executor import BatchResult, PipelineExecutor, RetryPolicy

__all__ = ["BatchOptions", "submit"]


@dataclass(frozen=True)
class BatchOptions:
    """How a batch of specs is executed — the whole surface, one value.

    Attributes
    ----------
    jobs:
        Worker processes (1 = inline, no pool; negative = CPU count).
    cache_dir:
        On-disk result cache root, or ``None`` for no cache.
    retries / timeout_s / backoff_s:
        Fault-tolerance shorthand: ``retries`` extra attempts per job,
        an optional per-job wall-clock budget and the base backoff
        delay.  Ignored when an explicit ``policy`` is given.
    policy:
        A full :class:`~repro.pipeline.RetryPolicy`, overriding the
        shorthand fields.
    resume:
        Pre-scan the cache and satisfy fully-cached jobs without
        occupying the pool.
    raise_on_error:
        Raise :class:`~repro.errors.PipelineError` on any failure
        (``False`` degrades to a structured failure report).
    store:
        Trace-store root the batch's specs were built against, recorded
        for provenance (the spec builders consume the live store; the
        executor never touches it).
    fault_plan:
        Fault-injection plan (directive string or named plan) exported
        to ``REPRO_FAULT_PLAN`` for the duration of the run.
    """

    jobs: int = 1
    cache_dir: str | None = None
    retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = 0.1
    policy: RetryPolicy | None = None
    resume: bool = False
    raise_on_error: bool = True
    store: str | None = None
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise SpecError("retries must be non-negative")

    def retry_policy(self) -> RetryPolicy:
        """The effective policy: explicit ``policy`` wins, else the
        shorthand fields build one."""
        if self.policy is not None:
            return self.policy
        return RetryPolicy(
            max_attempts=self.retries + 1,
            timeout_s=self.timeout_s,
            backoff_s=self.backoff_s,
        )

    def with_(self, **changes) -> "BatchOptions":
        """A copy with ``changes`` applied (frozen-dataclass ergonomics)."""
        return replace(self, **changes)


@contextmanager
def _env_var(name: str, value: str):
    """Set ``name`` for the duration, restoring the prior value after."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def submit(specs, options: BatchOptions | None = None, *, progress=None) -> BatchResult:
    """Execute ``specs`` under ``options`` — the one way batches run.

    ``progress``, if given, receives each per-job
    :class:`~repro.pipeline.JobOutcome` as it completes.  Every internal
    caller — CLI, ``serve/``, experiments, benches — routes through
    here, so execution behavior cannot drift between entry points.
    """
    options = options or BatchOptions()
    executor = PipelineExecutor(
        workers=options.jobs,
        cache_dir=options.cache_dir,
        raise_on_error=options.raise_on_error,
        policy=options.retry_policy(),
    )
    plan_env = (
        _env_var(faults.ENV_VAR, options.fault_plan)
        if options.fault_plan is not None
        else nullcontext()
    )
    with plan_env:
        return executor.run(
            specs, progress=progress, resume=options.resume
        )
