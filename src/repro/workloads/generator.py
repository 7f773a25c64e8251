"""Dynamic instruction stream generation from a workload profile.

Turns a :class:`~repro.workloads.spec.WorkloadProfile` into the lazy
sequence of :class:`~repro.uarch.isa.Instruction` objects the pipeline
consumes.  All randomness flows from one explicitly-passed
``numpy.random.Generator`` — there is no module-level RNG state anywhere
in this package — so a (benchmark, seed) pair always produces the
identical stream, and parallel pipeline workers simulating different
benchmarks can never perturb each other's draws: every experiment in the
repo is bit-reproducible regardless of worker count or execution order.

``seed`` arguments accept an ``int`` (seeds a fresh generator), an
existing ``numpy.random.Generator`` (used as-is, for callers that manage
streams via ``numpy.random.SeedSequence.spawn``), or ``None`` (the
profile's own seed).

Structure
---------
Code is modeled as *loop regions*: a region materializes a loop body
template (fixed PCs, a fixed op class per slot, fixed branch biases and
targets, a fixed memory region per access slot) and then executes it for a
number of trips.  Re-executing stable templates is what lets the branch
predictor, BTB and I-cache train, exactly as they would on real loops;
region changes and phase changes supply the program's time-varying
behaviour.

Address model
-------------
Three data regions drive the cache hierarchy: a *hot* set sized to live in
the L1 (random touches), a *warm* set walked sequentially so it lives in
the L2 but thrashes the L1, and a *cold* streaming region advancing a full
line per access so every touch misses the L2 — the knob that turns a
profile into an mcf/art-style memory-bound benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..uarch.isa import Instruction, OpClass
from .phases import PhaseScheduler
from .spec import PhaseSpec, WorkloadProfile, get_profile

__all__ = [
    "InstructionGenerator",
    "generate",
    "instruction_stream",
    "prewarm_caches",
]

_LINE = 64
_CODE_BASE = 0x0040_0000
_COLD_CODE_BASE = 0x00C0_0000
_HOT_BASE = 0x1000_0000
_WARM_BASE = 0x2000_0000
_COLD_BASE = 0x4000_0000

# Memory-region tags used by body templates.
_HOT, _WARM, _COLD = 0, 1, 2

# Slots whose address or outcome differs from trip to trip.
_PER_TRIP = (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH)


@dataclass(frozen=True)
class _Slot:
    """One static instruction of a loop body."""

    op: OpClass
    src1: int
    src2: int
    mem_region: int = _HOT  # loads/stores only
    branch_bias: float = 0.0  # conditional branches only
    pattern_period: int = 0  # >0: periodic branch (taken every Nth time)
    target_offset: int = 0  # taken-branch displacement (instructions)

    def __deepcopy__(self, memo) -> _Slot:
        return self  # frozen: a copied stream may share its templates


def _resolve_rng(
    profile: WorkloadProfile,
    seed: int | np.random.Generator | None,
) -> np.random.Generator:
    """One generator per stream: explicit Generator > int seed > profile."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(profile.seed if seed is None else seed)


class InstructionGenerator:
    """Iterator of dynamic instructions for one workload profile.

    The stream is an explicit state machine (the current loop region, its
    trip and the next body slot), not a Python generator, so a stream can
    be deep-copied mid-flight: ``copy.deepcopy`` takes the RNG state with
    it, and the copy yields exactly the instructions the original would.

    When a region is built, the :class:`Instruction` of each of its ALU,
    multiply, divide and FP slots is built once and yielded again on every
    trip (the pipeline never writes an instruction).  Loads, stores and
    branches are instantiated per trip: their address or outcome varies.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.profile = profile
        self._rng = _resolve_rng(profile, seed)
        self._phases = PhaseScheduler(profile.phases, self._rng)
        self._cold_ptr = _COLD_BASE
        self._cold_code_ptr = _COLD_CODE_BASE
        self._warm_ptr = _WARM_BASE
        self._hot_slots = max(1, profile.hot_bytes // 8)
        self._warm_limit = _WARM_BASE + profile.warm_bytes
        self._branch_counters: dict[int, int] = {}
        self._code_slots = max(64, profile.code_bytes // 4)
        # Benchmarks whose phases are all shorter than a loop region are
        # loop-nest codes (mgrid-style): the burst/stall alternation lives
        # *inside* one loop body, so the body is a composite of all phase
        # segments and repeats coherently — that is what concentrates
        # current energy at the loop period (the resonance pump).
        self._composite = all(ph.duration <= 256 for ph in profile.phases)
        # The current loop region.  ``_phase`` is the phase its body was
        # drawn from (None for a composite body, which no phase change
        # interrupts); ``_prebuilt[k]`` is slot k's reused instruction, or
        # None when it is instantiated per trip; ``_k`` is the next slot,
        # ``len(_body)`` the back-edge and -1 "build a new region".
        self._phase: PhaseSpec | None = None
        self._body: list[_Slot] = []
        self._prebuilt: list[Instruction | None] = []
        self._loop_start = 0
        self._trips = 0
        self._trip = 0
        self._k = -1

    # -- template construction -------------------------------------------------

    def _build_body(self, phase: PhaseSpec) -> list[_Slot]:
        """Materialize a loop body for the current phase."""
        rng = self._rng
        max_body = max(6, min(384, int(phase.duration // 2)))
        body_len = int(rng.integers(max(4, max_body // 2), max_body + 1))
        return self._build_segment(phase, body_len)

    def _build_segment(self, phase: PhaseSpec, body_len: int) -> list[_Slot]:
        """``body_len`` static instructions drawn from one phase's mix."""
        rng = self._rng
        slots: list[_Slot] = []
        for _ in range(body_len):
            serial = rng.random() < phase.serial
            src1 = 1 if serial else int(min(rng.geometric(0.25), 16))
            src2 = 0 if rng.random() < 0.5 else int(min(rng.geometric(0.22), 16))
            r = rng.random()
            if r < phase.load_fraction or r < (
                phase.load_fraction + phase.store_fraction
            ):
                is_load = r < phase.load_fraction
                q = rng.random()
                if q < phase.cold:
                    region = _COLD
                    # Streaming accesses are address-independent unless the
                    # phase is serial (pointer chasing, mcf-style), so
                    # misses can overlap (memory-level parallelism).
                    if not serial:
                        src1 = 0
                elif q < phase.cold + phase.warm:
                    region = _WARM
                else:
                    region = _HOT
                slots.append(
                    _Slot(
                        OpClass.LOAD if is_load else OpClass.STORE,
                        src1,
                        src2 if not is_load else 0,
                        mem_region=region,
                    )
                )
                continue
            r -= phase.load_fraction + phase.store_fraction
            if r < phase.branch_fraction:
                kind = rng.random()
                bias = 0.0
                period = 0
                if kind < phase.hard_branch:
                    bias = 0.5  # data-dependent branch: a coin flip
                elif kind < phase.hard_branch + phase.pattern_branch:
                    # Periodic branch: taken every Nth execution.
                    period = int(rng.integers(2, 5))
                else:
                    bias = float(rng.uniform(*phase.easy_bias))
                # Branches hang off a recent compare, so they resolve fast.
                slots.append(
                    _Slot(
                        OpClass.BRANCH,
                        min(src1, 4),
                        0,
                        branch_bias=bias,
                        pattern_period=period,
                        target_offset=int(rng.integers(2, 24)),
                    )
                )
                continue
            if rng.random() < phase.fp_fraction:
                q = rng.random()
                if q < phase.div_fraction:
                    op = OpClass.FPDIV
                elif q < phase.div_fraction + phase.mult_fraction:
                    op = OpClass.FPMULT
                else:
                    op = OpClass.FPALU
            else:
                q = rng.random()
                if q < phase.div_fraction:
                    op = OpClass.IDIV
                elif q < phase.div_fraction + phase.mult_fraction:
                    op = OpClass.IMULT
                else:
                    op = OpClass.IALU
            slots.append(_Slot(op, src1, src2))
        return slots

    # -- dynamic instantiation ---------------------------------------------------

    def _address_for(self, region: int) -> int:
        if region == _COLD:
            self._cold_ptr += _LINE
            return self._cold_ptr
        if region == _WARM:
            # Sequential walk: L2-resident, L1-thrashing once warmed.
            self._warm_ptr += 8
            if self._warm_ptr >= self._warm_limit:
                self._warm_ptr = _WARM_BASE
            return self._warm_ptr
        return _HOT_BASE + 8 * int(self._rng.integers(0, self._hot_slots))

    def _instantiate(self, slot: _Slot, pc: int) -> Instruction:
        """One trip's instance of a load, store or branch slot."""
        if slot.op is OpClass.BRANCH:
            if slot.pattern_period:
                count = self._branch_counters.get(pc, 0)
                self._branch_counters[pc] = count + 1
                taken = count % slot.pattern_period == 0
            else:
                taken = bool(self._rng.random() < slot.branch_bias)
            return Instruction(
                OpClass.BRANCH,
                pc=pc,
                src1_dist=slot.src1,
                addr=pc + 4 * slot.target_offset,
                taken=taken,
            )
        return Instruction(
            slot.op,
            pc=pc,
            src1_dist=slot.src1,
            src2_dist=slot.src2,
            addr=self._address_for(slot.mem_region),
        )

    # -- stream ---------------------------------------------------------------

    def _enter_region(self) -> None:
        """Draw the next loop region: its body, placement and trip count."""
        prof = self.profile
        rng = self._rng
        if self._composite:
            body: list[_Slot] = []
            for ph in prof.phases:
                body.extend(self._build_segment(ph, max(1, int(ph.duration))))
            loop_start = _CODE_BASE + 4 * int(
                rng.integers(0, max(1, self._code_slots - len(body) - 1))
            )
            trips = int(rng.geometric(1.0 / 192.0))
        else:
            self._phase = phase = self._phases.current
            body = self._build_body(phase)
            if rng.random() < prof.cold_code:
                # Excursion into never-before-seen code: I-cache misses.
                self._cold_code_ptr += 4 * len(body) + _LINE
                loop_start = self._cold_code_ptr
                trips = int(rng.integers(1, 4))
            else:
                loop_start = _CODE_BASE + 4 * int(
                    rng.integers(0, self._code_slots - len(body) - 1)
                )
                trips = int(rng.geometric(1.0 / 128.0))
        self._body = body
        self._prebuilt = [
            None
            if slot.op in _PER_TRIP
            else Instruction(
                slot.op,
                pc=loop_start + 4 * k,
                src1_dist=slot.src1,
                src2_dist=slot.src2,
            )
            for k, slot in enumerate(body)
        ]
        self._loop_start = loop_start
        self._trips = trips
        self._trip = 0
        self._k = 0

    def __iter__(self) -> InstructionGenerator:
        return self

    def __next__(self) -> Instruction:
        k = self._k
        if k < 0:
            self._enter_region()
            k = 0
        if k < len(self._body):
            self._k = k + 1
            if self._phase is not None:
                self._phases.advance()
            inst = self._prebuilt[k]
            if inst is None:
                inst = self._instantiate(self._body[k], self._loop_start + 4 * k)
            return inst
        self._trip += 1
        last = self._trip == self._trips
        if last or (
            self._phase is not None and self._phases.current is not self._phase
        ):
            self._k = -1  # the loop ends, or the program moved to a new phase
        else:
            self._k = 0
        # Loop back-edge: tests an induction variable that is long since
        # computed, so it carries no in-flight dependence.  It reads taken
        # unless this was the last trip, even when a phase change ends it.
        return Instruction(
            OpClass.BRANCH,
            pc=self._loop_start + 4 * len(self._body),
            src1_dist=0,
            addr=self._loop_start,
            taken=not last,
        )


def prewarm_caches(hierarchy, profile: WorkloadProfile | str) -> None:
    """Pre-populate the cache hierarchy with the profile's working sets.

    Leaves the state of touching the warm region, then the hot region,
    then the code footprint one line at a time (in that order, so LRU
    leaves the hot set resident in the L1 and the warm set in the L2),
    standing in for the billions of warm-up instructions a real SimPoint
    run would have executed before the measured interval.  The regions
    cover disjoint lines, so every touch misses the L1 and reaches the L2:
    each cache is preloaded in closed form rather than replayed.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    warm = range(_WARM_BASE, _WARM_BASE + profile.warm_bytes, _LINE)
    hot = range(_HOT_BASE, _HOT_BASE + profile.hot_bytes, _LINE)
    code = range(_CODE_BASE, _CODE_BASE + profile.code_bytes, _LINE)
    hierarchy.l1d.preload(warm, hot)
    hierarchy.l1i.preload(code)
    hierarchy.l2.preload(warm, hot, code)
    # Measured statistics start clean.
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        cache.hits = 0
        cache.misses = 0
    hierarchy.memory_accesses = 0


def generate(
    profile: WorkloadProfile | str,
    seed: int | np.random.Generator | None = None,
) -> InstructionGenerator:
    """Build a generator from a profile or a benchmark name."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    return InstructionGenerator(profile, seed)


def instruction_stream(
    profile: WorkloadProfile | str,
    count: int,
    seed: int | np.random.Generator | None = None,
) -> Iterator[Instruction]:
    """A bounded stream of ``count`` instructions."""
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = iter(generate(profile, seed))
    for _ in range(count):
        yield next(gen)
