"""Synthetic models of the 26 SPEC CPU2000 benchmarks.

The paper runs SPEC2000 binaries through Wattch at SimPoint-chosen
simulation points; without the binaries we model each benchmark as a
*workload profile*: an instruction mix, dependency structure, branch
predictability, memory-region mix and a phase schedule, with parameters
set from each benchmark's published qualitative character.  What the
experiments need from a workload is the event structure of its current
draw — which the profile controls through three levers:

* ``cold`` memory traffic (streaming, always missing L2) produces the
  long-stall/burst pattern of the memory-bound benchmarks (swim, lucas,
  mcf, art — Figure 11's nominal-voltage spikes);
* phase alternation at tens-of-cycles periods pumps the 50–200 MHz
  resonance (mgrid, gcc, galgel, apsi — the dI/dt-problematic group of
  Figure 9);
* steady high-ILP compute with few misses yields the near-Gaussian
  current of gzip, mesa, crafty and eon (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PhaseSpec",
    "WorkloadProfile",
    "SPEC2000",
    "SPEC_INT",
    "SPEC_FP",
    "get_profile",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One recurring execution phase of a benchmark.

    Attributes
    ----------
    name:
        Label ("compute", "memory", ...).
    duration:
        Mean phase length in *instructions* (geometric distribution).
    fp_fraction:
        Share of ALU work going to FP units during the phase.
    load_fraction / store_fraction / branch_fraction:
        Instruction-mix shares; the remainder is ALU work.
    mult_fraction / div_fraction:
        Share of the ALU work that is multiply / divide.
    cold / warm:
        Probability that a memory access streams through (misses) L2, or
        hits L2 but misses L1; the rest hit in the L1-resident hot set.
    serial:
        Probability an instruction depends on its immediate predecessor
        (a dependent chain throttles ILP and drops current).
    hard_branch:
        Probability a conditional branch is data-dependent 50/50
        (unpredictable) rather than a biased loop branch.
    pattern_branch:
        Probability a conditional branch follows a short periodic
        taken/not-taken pattern (every-other-iteration work, unrolled
        tails) — trivial for a history-based predictor, hard for a
        bimodal one.
    """

    name: str
    duration: float
    fp_fraction: float = 0.0
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.15
    mult_fraction: float = 0.05
    div_fraction: float = 0.003
    cold: float = 0.0
    warm: float = 0.05
    serial: float = 0.15
    hard_branch: float = 0.05
    pattern_branch: float = 0.0
    easy_bias: tuple[float, float] = (0.93, 0.995)

    def __post_init__(self) -> None:
        mix = self.load_fraction + self.store_fraction + self.branch_fraction
        if mix >= 1.0:
            raise ValueError("load+store+branch must leave room for ALU work")
        for name in (
            "fp_fraction",
            "mult_fraction",
            "div_fraction",
            "cold",
            "warm",
            "serial",
            "hard_branch",
            "pattern_branch",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.cold + self.warm > 1.0:
            raise ValueError("cold + warm cannot exceed 1")
        lo, hi = self.easy_bias
        if not 0.5 <= lo <= hi <= 1.0:
            raise ValueError("easy_bias must satisfy 0.5 <= lo <= hi <= 1")
        if self.duration < 1:
            raise ValueError("duration must be at least one instruction")


@dataclass(frozen=True)
class WorkloadProfile:
    """A complete synthetic benchmark."""

    name: str
    suite: str  # "int" or "fp"
    phases: tuple[PhaseSpec, ...]
    hot_bytes: int = 16 * 1024  # L1-resident working set
    warm_bytes: int = 1024 * 1024  # L2-resident working set
    code_bytes: int = 32 * 1024  # hot code footprint (I-cache behaviour)
    cold_code: float = 0.0  # probability a fetch group jumps to cold code
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError("suite must be 'int' or 'fp'")
        if not self.phases:
            raise ValueError("a profile needs at least one phase")
        if min(self.hot_bytes, self.warm_bytes, self.code_bytes) <= 0:
            raise ValueError("working-set sizes must be positive")


def _compute(duration: float = 4000.0, fp: float = 0.0, **kw) -> PhaseSpec:
    return PhaseSpec("compute", duration, fp_fraction=fp, **kw)


def _memory(duration: float, cold: float, fp: float = 0.0, **kw) -> PhaseSpec:
    kw.setdefault("load_fraction", 0.35)
    kw.setdefault("serial", 0.35)
    return PhaseSpec("memory", duration, fp_fraction=fp, cold=cold, **kw)


def _pulse(duration: float, fp: float = 0.0, **kw) -> PhaseSpec:
    """A short stretch dominated by data-dependent branches.

    Out-of-order execution runs ahead of serial arithmetic chains, so the
    only per-loop event that reliably collapses the current to its floor
    is a branch misprediction: fetch stops, the window drains, and the
    12-cycle redirect empties the machine.  A pulse is therefore a couple
    of 50/50 branches plus the serial work they depend on."""
    kw.setdefault("serial", 0.9)
    kw.setdefault("load_fraction", 0.10)
    kw.setdefault("store_fraction", 0.02)
    kw.setdefault("branch_fraction", 0.55)
    kw.setdefault("mult_fraction", 0.3)
    kw.setdefault("hard_branch", 0.95)
    return PhaseSpec("pulse", duration, fp_fraction=fp, **kw)


def _steady(name: str, suite: str, fp: float, miss: float = 0.001, **kw
            ) -> WorkloadProfile:
    """Low-L2-miss, smoothly executing benchmark (Figure 10's group)."""
    return WorkloadProfile(
        name,
        suite,
        phases=(
            _compute(6000.0, fp, warm=0.01, cold=miss,
                     hard_branch=0.001, easy_bias=(0.995, 0.9998)),
            _compute(3000.0, fp, warm=0.02, cold=miss, serial=0.25,
                     hard_branch=0.001, easy_bias=(0.995, 0.9998)),
        ),
        **kw,
    )


def _membound(name: str, suite: str, fp: float, cold: float,
              serial_mem: float = 0.35, **kw) -> WorkloadProfile:
    """L2-miss-dominated benchmark (Figure 11's group)."""
    return WorkloadProfile(
        name,
        suite,
        phases=(
            _memory(900.0, cold=cold, fp=fp, serial=serial_mem),
            _compute(500.0, fp, warm=0.10, cold=cold / 4),
        ),
        warm_bytes=4 * 1024 * 1024,  # exceeds the 2 MB L2 -> streaming
        **kw,
    )


def _resonant(name: str, suite: str, fp: float, burst: float = 40.0,
              quiet: float = 4.0, **kw) -> WorkloadProfile:
    """Loop-structured benchmark whose burst/stall alternation lands in
    the tens-of-cycles resonance band (the dI/dt stressors of Figure 9).

    ``burst`` independent instructions execute in ~burst/3 cycles; the
    ``quiet`` serial long-latency chain stalls ~4x its length — sized so
    one loop iteration spans roughly the supply's 30-cycle resonant
    period at 3 GHz.
    """
    return WorkloadProfile(
        name,
        suite,
        phases=(
            _compute(burst, fp, serial=0.02, warm=0.02,
                     hard_branch=0.02, easy_bias=(0.97, 0.999)),
            _pulse(quiet, fp),
        ),
        **kw,
    )


SPEC2000: dict[str, WorkloadProfile] = {
    # ---- SPECint2000 ------------------------------------------------------
    "gzip": _steady("gzip", "int", fp=0.0, seed=101),
    "vpr": WorkloadProfile(
        "vpr",
        "int",
        phases=(
            _compute(5000.0, warm=0.04, cold=0.012, serial=0.55,
                     hard_branch=0.005, easy_bias=(0.99, 0.999)),
            _compute(2500.0, warm=0.05, cold=0.012, serial=0.5,
                     hard_branch=0.005, easy_bias=(0.99, 0.999)),
        ),
        seed=102,
    ),
    "gcc": _resonant(
        "gcc", "int", fp=0.0, burst=44.0, quiet=4.0,
        code_bytes=512 * 1024, seed=103,
    ),
    "mcf": _membound("mcf", "int", fp=0.0, cold=0.15, serial_mem=0.6, seed=104),
    "crafty": _steady("crafty", "int", fp=0.0, seed=105),
    "parser": WorkloadProfile(
        "parser",
        "int",
        phases=(
            _compute(3000.0, warm=0.10, serial=0.35, pattern_branch=0.04),
            _memory(1200.0, cold=0.015),
        ),
        seed=106,
    ),
    "eon": _steady("eon", "int", fp=0.15, seed=107),
    "perlbmk": WorkloadProfile(
        "perlbmk",
        "int",
        phases=(
            _compute(4500.0, warm=0.05, hard_branch=0.03,
                     pattern_branch=0.015, easy_bias=(0.98, 0.999)),
            _compute(2000.0, warm=0.08, serial=0.3),
        ),
        code_bytes=256 * 1024,
        cold_code=0.003,
        seed=108,
    ),
    "gap": WorkloadProfile(
        "gap",
        "int",
        phases=(
            _compute(8000.0, warm=0.03, cold=0.03, serial=0.55,
                     hard_branch=0.003, easy_bias=(0.992, 0.9995)),
        ),
        seed=109,
    ),
    "vortex": WorkloadProfile(
        "vortex",
        "int",
        phases=(
            _compute(4000.0, warm=0.05, hard_branch=0.01,
                     pattern_branch=0.06, easy_bias=(0.985, 0.999)),
            _memory(1500.0, cold=0.01),
        ),
        code_bytes=256 * 1024,
        cold_code=0.003,
        seed=110,
    ),
    "bzip2": _steady("bzip2", "int", fp=0.0, miss=0.004, seed=111),
    "twolf": WorkloadProfile(
        "twolf",
        "int",
        phases=(
            _compute(3500.0, warm=0.10, serial=0.35, hard_branch=0.05,
                     pattern_branch=0.06, easy_bias=(0.97, 0.998)),
            _memory(1500.0, cold=0.008),
        ),
        seed=112,
    ),
    # ---- SPECfp2000 -------------------------------------------------------
    "wupwise": WorkloadProfile(
        "wupwise",
        "fp",
        phases=(
            _compute(5000.0, fp=0.55, warm=0.06, mult_fraction=0.25),
            _memory(1500.0, cold=0.02, fp=0.4),
        ),
        seed=201,
    ),
    "swim": _membound("swim", "fp", fp=0.5, cold=0.12, seed=202),
    "mgrid": _resonant("mgrid", "fp", fp=0.55, burst=42.0, quiet=4.0, seed=203),
    "applu": WorkloadProfile(
        "applu",
        "fp",
        phases=(
            _compute(2500.0, fp=0.5, warm=0.10, mult_fraction=0.3),
            _memory(1000.0, cold=0.05, fp=0.4),
        ),
        seed=204,
    ),
    "mesa": _steady("mesa", "fp", fp=0.35, seed=205),
    "galgel": _resonant("galgel", "fp", fp=0.35, burst=38.0, quiet=4.0, seed=206),
    "art": _membound("art", "fp", fp=0.45, cold=0.18, seed=207),
    "equake": WorkloadProfile(
        "equake",
        "fp",
        phases=(
            _memory(2500.0, cold=0.06, fp=0.4, serial=0.5),
            _compute(1200.0, fp=0.45, warm=0.08),
        ),
        warm_bytes=3 * 1024 * 1024,
        seed=208,
    ),
    "facerec": WorkloadProfile(
        "facerec",
        "fp",
        phases=(
            _compute(4000.0, fp=0.5, warm=0.07, mult_fraction=0.3),
            _memory(1200.0, cold=0.02, fp=0.4),
        ),
        seed=209,
    ),
    "ammp": WorkloadProfile(
        "ammp",
        "fp",
        phases=(
            _compute(3000.0, fp=0.5, warm=0.12, serial=0.4),
            _memory(1500.0, cold=0.03, fp=0.4),
        ),
        seed=210,
    ),
    "lucas": _membound("lucas", "fp", fp=0.55, cold=0.10, seed=211),
    "fma3d": WorkloadProfile(
        "fma3d",
        "fp",
        phases=(
            _compute(3500.0, fp=0.5, warm=0.08, mult_fraction=0.25),
            _memory(1400.0, cold=0.025, fp=0.4),
        ),
        code_bytes=256 * 1024,
        cold_code=0.01,
        seed=212,
    ),
    "sixtrack": _steady("sixtrack", "fp", fp=0.55, seed=213),
    "apsi": _resonant("apsi", "fp", fp=0.35, burst=42.0, quiet=4.0, seed=214),
}

SPEC_INT: tuple[str, ...] = tuple(
    n for n, p in SPEC2000.items() if p.suite == "int"
)
SPEC_FP: tuple[str, ...] = tuple(n for n, p in SPEC2000.items() if p.suite == "fp")


def get_profile(name: str) -> WorkloadProfile:
    """Profile lookup with a helpful error."""
    try:
        return SPEC2000[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(SPEC2000)}"
        )
