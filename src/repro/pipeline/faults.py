"""Deterministic fault injection for the batch pipeline.

Every recovery path of the fault-tolerant executor — retry after a
transient stage exception, timeout-kill-requeue of a hung job, pool
replenishment after a worker crash — is exercised in CI by *making* the
corresponding failure happen at a named point, instead of trusting that
the code would cope if it ever did.

A **fault plan** is a comma-separated list of directives::

    plan      := directive ("," directive)*
    directive := stage ["@" benchmark] ":" action [":" attempts]
    action    := "raise" | "hang" ["(" seconds ")"] | "kill"
    attempts  := "*" | N | N "-" M      (default: 1 — first attempt only)

Examples::

    simulate:raise              # every simulate stage raises on attempt 1
    simulate@gzip:raise:1-2     # gzip's simulate raises on attempts 1 and 2
    voltage@mcf:hang(5):1       # mcf's voltage stage sleeps 5 s on attempt 1
    characterize@vpr:kill       # vpr's characterize SIGKILLs its worker once

Actions fire *instead of* computing the stage (after the cache lookup
misses), keyed on the executor-supplied job attempt number — so "raise
twice then succeed" is simply ``:1-2`` with a retry budget of two, and
the same plan reproduces the same failures on every run, in every
process, with no shared state.  A stage the executor computed ahead on
an overlap helper thread has its result discarded instead.

Activation: the ``REPRO_FAULT_PLAN`` environment variable (which worker
processes inherit) or ``repro pipeline run --inject-faults PLAN``, which
sets it.  ``ci-plan`` is a named alias for the plan the CI fault-smoke
job runs.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass

from ..errors import InjectedFaultError, SpecError
from ..obs import trace as obs

__all__ = [
    "ENV_VAR",
    "NAMED_PLANS",
    "DEFAULT_HANG_S",
    "FaultDirective",
    "FaultPlan",
    "parse_plan",
    "active_plan",
    "apply_fault",
]

ENV_VAR = "REPRO_FAULT_PLAN"

#: A hang with no explicit duration sleeps this long — far beyond any
#: sane per-job timeout, so an unguarded hang is loud, not subtle.
DEFAULT_HANG_S = 3600.0

#: Named plans usable anywhere a plan string is (CLI, env var).
#: ``ci-plan`` is one transient raise, one hang and one worker kill,
#: spread over three different stages/benchmarks of a six-job batch.
NAMED_PLANS = {
    "ci-plan": "simulate@gzip:raise:1,voltage@mcf:hang:1,characterize@vpr:kill:1",
}

_ACTIONS = ("raise", "hang", "kill")

_DIRECTIVE_RE = re.compile(
    r"^(?P<stage>[A-Za-z0-9_.-]+)"
    r"(?:@(?P<benchmark>[A-Za-z0-9_.-]+))?"
    r":(?P<action>raise|hang|kill)"
    r"(?:\((?P<seconds>[0-9.]+)\))?"
    r"(?::(?P<attempts>\*|\d+(?:-\d+)?))?$"
)


@dataclass(frozen=True)
class FaultDirective:
    """One parsed fault: where it fires, what it does, on which attempts."""

    stage: str
    benchmark: str | None  # None = every benchmark
    action: str  # "raise" | "hang" | "kill"
    first_attempt: int = 1
    last_attempt: int = 1  # inclusive; 2**31 for "*"
    hang_s: float = DEFAULT_HANG_S

    def matches(self, stage: str, benchmark: str, attempt: int) -> bool:
        return (
            self.stage == stage
            and (self.benchmark is None or self.benchmark == benchmark)
            and self.first_attempt <= attempt <= self.last_attempt
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, fully-parsed fault plan."""

    text: str
    directives: tuple[FaultDirective, ...]

    def directive_for(
        self, stage: str, benchmark: str, attempt: int
    ) -> FaultDirective | None:
        """The first directive firing at this (stage, benchmark, attempt)."""
        for d in self.directives:
            if d.matches(stage, benchmark, attempt):
                return d
        return None

    @property
    def needs_isolation(self) -> bool:
        """True when the plan can only be survived by a worker process
        (a hang needs a timeout-kill, a kill needs pool replenishment)."""
        return any(d.action in ("hang", "kill") for d in self.directives)


def parse_plan(text: str) -> FaultPlan:
    """Parse a plan string (or named-plan alias) into a :class:`FaultPlan`."""
    raw = text.strip()
    expanded = NAMED_PLANS.get(raw, raw)
    directives = []
    for part in expanded.split(","):
        part = part.strip()
        if not part:
            continue
        m = _DIRECTIVE_RE.match(part)
        if m is None:
            raise SpecError(
                f"bad fault directive {part!r}; expected "
                f"stage[@benchmark]:raise|hang[(seconds)]|kill[:attempts] "
                f"or a named plan ({sorted(NAMED_PLANS)})",
                directive=part,
            )
        action = m["action"]
        if m["seconds"] is not None and action != "hang":
            raise SpecError(
                f"{part!r}: only 'hang' takes a duration", directive=part
            )
        attempts = m["attempts"] or "1"
        if attempts == "*":
            first, last = 1, 2**31
        elif "-" in attempts:
            lo, hi = attempts.split("-")
            first, last = int(lo), int(hi)
        else:
            first = last = int(attempts)
        if first < 1 or last < first:
            raise SpecError(
                f"{part!r}: attempts must be a positive N, N-M or '*'",
                directive=part,
            )
        directives.append(
            FaultDirective(
                stage=m["stage"],
                benchmark=m["benchmark"],
                action=action,
                first_attempt=first,
                last_attempt=last,
                hang_s=float(m["seconds"]) if m["seconds"] else DEFAULT_HANG_S,
            )
        )
    if not directives:
        raise SpecError(f"fault plan {text!r} contains no directives")
    return FaultPlan(text=raw, directives=tuple(directives))


# Parsed-plan memo keyed by the raw env value, so the per-stage lookup
# costs one os.environ read + dict hit when injection is active and a
# single env read when (as always in production) it is not.
_CACHE: dict[str, FaultPlan] = {}


def active_plan() -> FaultPlan | None:
    """The plan named by ``REPRO_FAULT_PLAN``, or ``None``."""
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    plan = _CACHE.get(text)
    if plan is None:
        plan = _CACHE[text] = parse_plan(text)
    return plan


def apply_fault(
    plan: FaultPlan, stage: str, benchmark: str, attempt: int
) -> None:
    """Fire the matching directive, if any, at a stage boundary.

    ``raise`` raises :class:`~repro.errors.InjectedFaultError`; ``hang``
    sleeps the directive's duration (then lets the stage proceed — the
    supervising executor is expected to have killed the job long before);
    ``kill`` SIGKILLs the calling process, exactly like a segfault would.
    """
    d = plan.directive_for(stage, benchmark, attempt)
    if d is None:
        return
    obs.event(
        "fault_injected",
        action=d.action,
        stage=stage,
        benchmark=benchmark,
        attempt=attempt,
    )
    if d.action == "raise":
        raise InjectedFaultError(
            f"injected fault: stage {stage!r} of {benchmark!r} "
            f"raising on attempt {attempt}",
            job=benchmark,
            stage=stage,
            attempt=attempt,
        )
    if d.action == "hang":
        time.sleep(d.hang_s)
        return
    # kill: die the way a native crash would — no cleanup, no excuses.
    os.kill(os.getpid(), 9)
