"""Wattch-style activity-based power accounting.

Per-cycle power is the sum, over microarchitectural structures, of an
access-proportional dynamic term plus a conditional-clocking residual for
idle structures (Wattch's ``cc3`` scheme: gated-off units still draw a
fraction of their active power).  With the paper's Vdd = 1.0 V, one watt is
one ampere, so the model emits per-cycle *current* directly (§3.2).

The absolute numbers are chosen to land in the envelope of a 3 GHz
high-performance core of the era — roughly 13 A fully stalled to ~55 A at
peak issue — because the paper's phenomena depend on the *dynamic range*
and *event structure* of the current, not on its absolute calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from operator import attrgetter

__all__ = ["ActivityCounters", "UnitPower", "WattchPowerModel", "ClockGating"]


class ActivityCounters:
    """Per-cycle activity, reset every cycle by the pipeline."""

    __slots__ = (
        "fetches",
        "icache_accesses",
        "bpred_lookups",
        "decoded",
        "dispatched",
        "issued_ialu",
        "issued_imult",
        "issued_fpalu",
        "issued_fpmult",
        "lsq_issues",
        "dcache_accesses",
        "l2_accesses",
        "memory_accesses",
        "wakeups",
        "completions",
        "regfile_reads",
        "regfile_writes",
        "committed",
        "injected_noops",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (start of cycle)."""
        self.fetches = self.icache_accesses = self.bpred_lookups = 0
        self.decoded = self.dispatched = 0
        self.issued_ialu = self.issued_imult = 0
        self.issued_fpalu = self.issued_fpmult = 0
        self.lsq_issues = self.dcache_accesses = 0
        self.l2_accesses = self.memory_accesses = 0
        self.wakeups = self.completions = 0
        self.regfile_reads = self.regfile_writes = 0
        self.committed = self.injected_noops = 0


class ClockGating(Enum):
    """Conditional-clocking styles (Wattch's cc1/cc3 spectrum)."""

    NONE = "none"  # idle units draw full active power
    CC3 = "cc3"  # idle units draw a fixed fraction (default)
    IDEAL = "ideal"  # idle units draw nothing


@dataclass(frozen=True)
class UnitPower:
    """One structure's power characteristics (amps at Vdd = 1 V)."""

    name: str
    counter: str  # ActivityCounters field (or "" for always-on)
    per_access: float
    idle: float
    max_per_cycle: int  # structural bound, for the NONE gating style


@dataclass
class WattchPowerModel:
    """Maps per-cycle activity to per-cycle current.

    Parameters
    ----------
    gating:
        Conditional-clocking style; ``CC3`` (default) reproduces the
        activity-sensitive behaviour the paper's current traces show.
    idle_fraction:
        Fraction of active power an idle unit draws under ``CC3``.
    """

    gating: ClockGating = ClockGating.CC3
    idle_fraction: float = 0.10
    clock_tree: float = 8.0
    static: float = 3.0
    units: tuple[UnitPower, ...] = field(default_factory=lambda: _DEFAULT_UNITS)

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_fraction <= 1.0:
            raise ValueError("idle_fraction must be in [0, 1]")
        # The per-cycle plan, built once: a (per-access, idle) draw for every
        # unit, then for injected no-ops (4 A each: ALU + window + bus power
        # without doing work), and the getter of the matching counts.  Under
        # NONE every unit is charged its structural maximum every cycle.
        idle_draw = {
            ClockGating.NONE: lambda u: u.per_access * u.max_per_cycle,
            ClockGating.CC3: lambda u: u.idle,
            ClockGating.IDEAL: lambda u: 0.0,
        }[self.gating]
        self._plan = tuple((u.per_access, idle_draw(u)) for u in self.units)
        self._plan += ((4.0, 0.0),)
        if self.gating is ClockGating.NONE:
            full = tuple(u.max_per_cycle for u in self.units)
            self._counts = partial(_full_counts, full)
        else:
            self._counts = attrgetter(
                *(u.counter for u in self.units), "injected_noops"
            )
        self._names = tuple(u.name for u in self.units) + ("noops",)

    def unit_currents(self, activity: ActivityCounters) -> dict[str, float]:
        """Per-structure current draw for one cycle's activity.

        Keys are unit names plus ``clock``, ``static`` and ``noops``; the
        values sum to exactly :meth:`current` (tested).  This is the
        Wattch-style power-breakdown view.
        """
        out = {"clock": self.clock_tree, "static": self.static}
        counts = self._counts(activity)
        for name, (per_access, idle), count in zip(self._names, self._plan, counts):
            out[name] = per_access * count if count > 0 else idle
        return out

    def current(self, activity: ActivityCounters) -> float:
        """Per-cycle current (amperes) for the observed activity."""
        total = self.clock_tree + self.static
        for (per_access, idle), count in zip(self._plan, self._counts(activity)):
            total += per_access * count if count > 0 else idle
        return total

    @property
    def min_current(self) -> float:
        """Fully-stalled current draw (all units idle)."""
        floor = self.clock_tree + self.static
        if self.gating is ClockGating.CC3:
            floor += sum(u.idle for u in self.units)
        elif self.gating is ClockGating.NONE:
            floor += sum(u.per_access * u.max_per_cycle for u in self.units)
        return floor

    @property
    def max_current(self) -> float:
        """Structural peak draw (every unit at full activity, max no-ops)."""
        peak = self.clock_tree + self.static
        peak += sum(u.per_access * u.max_per_cycle for u in self.units)
        return peak


def _full_counts(full: tuple[int, ...], activity: ActivityCounters) -> tuple:
    """Unit counts under ``NONE`` gating: every unit at its maximum."""
    return (*full, activity.injected_noops)


_DEFAULT_UNITS: tuple[UnitPower, ...] = (
    UnitPower("icache", "icache_accesses", 4.0, 0.40, 1),
    UnitPower("bpred", "bpred_lookups", 1.2, 0.12, 4),
    UnitPower("decode_rename", "decoded", 1.4, 0.30, 4),
    UnitPower("window_write", "dispatched", 1.0, 0.20, 4),
    # Window select/read power is folded into the per-FU issue costs.
    UnitPower("ialu", "issued_ialu", 3.6, 0.36, 4),
    UnitPower("imult", "issued_imult", 5.2, 0.20, 1),
    UnitPower("fpalu", "issued_fpalu", 5.2, 0.36, 2),
    UnitPower("fpmult", "issued_fpmult", 6.4, 0.24, 1),
    UnitPower("lsq", "lsq_issues", 1.0, 0.24, 2),
    UnitPower("dcache", "dcache_accesses", 3.2, 0.60, 2),
    UnitPower("l2", "l2_accesses", 9.0, 1.00, 1),
    UnitPower("membus", "memory_accesses", 5.0, 0.20, 1),
    UnitPower("wakeup", "wakeups", 0.60, 0.16, 6),
    UnitPower("resultbus", "completions", 0.70, 0.16, 6),
    UnitPower("regfile_read", "regfile_reads", 0.80, 0.20, 8),
    UnitPower("regfile_write", "regfile_writes", 0.80, 0.20, 6),
    UnitPower("commit", "committed", 0.60, 0.16, 4),
)
