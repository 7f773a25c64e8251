"""On-die power grid: spatial IR-drop analysis (extension).

The paper treats the supply as a single lumped node — correct for the
package-resonance dI/dt problem it studies — but its §3 background (power
distribution design, Blaauw et al.) is inherently spatial: the on-die
grid's sheet resistance makes the voltage sag *differently across the
die*, deepest far from the Vdd pads.  This module adds that early-stage
planning view: a rectangular resistive grid with configurable pads, DC
IR-drop solved by sparse factorization, and a floorplan mapping the
Wattch activity model's per-unit power onto grid regions so a cycle's
activity becomes a voltage map.

It deliberately models the *resistive* (DC) component only; the dynamic
resonance remains the lumped second-order model of
:mod:`repro.power.network` — the two compose by superposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..uarch.power_model import ActivityCounters, WattchPowerModel

__all__ = ["PowerGrid", "Floorplan", "DEFAULT_FLOORPLAN"]


class PowerGrid:
    """A rows x cols resistive mesh fed from Vdd pads.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (one node per tile).
    segment_resistance:
        Resistance of each horizontal/vertical grid segment (ohms).
    pad_nodes:
        ``(row, col)`` positions wired to the Vdd pad ring; defaults to
        the four corners (a deliberately weak network, so gradients are
        visible).  Flip-chip designs would pepper the whole area.
    pad_resistance:
        Resistance from each pad node up to the ideal Vdd (ohms).
    vdd:
        Nominal rail voltage.
    """

    def __init__(
        self,
        rows: int = 8,
        cols: int = 8,
        segment_resistance: float = 2.0e-3,
        pad_nodes: tuple[tuple[int, int], ...] | None = None,
        pad_resistance: float = 1.0e-3,
        vdd: float = 1.0,
    ) -> None:
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2x2 nodes")
        if segment_resistance <= 0 or pad_resistance <= 0:
            raise ValueError("resistances must be positive")
        self.rows = rows
        self.cols = cols
        self.vdd = vdd
        self.segment_resistance = segment_resistance
        self.pad_resistance = pad_resistance
        if pad_nodes is None:
            pad_nodes = (
                (0, 0),
                (0, cols - 1),
                (rows - 1, 0),
                (rows - 1, cols - 1),
            )
        for r, c in pad_nodes:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"pad ({r},{c}) outside the grid")
        self.pad_nodes = tuple(pad_nodes)
        from scipy.sparse.linalg import splu

        self._lu = splu(self._conductance_matrix())

    def _index(self, r: int, c: int) -> int:
        return r * self.cols + c

    def _conductance_matrix(self):
        from scipy.sparse import csc_matrix, lil_matrix

        n = self.rows * self.cols
        g_seg = 1.0 / self.segment_resistance
        g_pad = 1.0 / self.pad_resistance
        m = lil_matrix((n, n))
        for r in range(self.rows):
            for c in range(self.cols):
                i = self._index(r, c)
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < self.rows and cc < self.cols:
                        j = self._index(rr, cc)
                        m[i, i] += g_seg
                        m[j, j] += g_seg
                        m[i, j] -= g_seg
                        m[j, i] -= g_seg
        for r, c in self.pad_nodes:
            i = self._index(r, c)
            m[i, i] += g_pad
        return csc_matrix(m)

    # -- analysis ---------------------------------------------------------------

    def voltage_map(self, current_map: np.ndarray) -> np.ndarray:
        """Per-node voltage for a per-node current-draw map (amperes).

        Solves ``G v_drop = i`` (nodal analysis with the pad rail folded
        into the diagonal), then returns ``vdd - v_drop`` per node.
        """
        i = np.asarray(current_map, dtype=float)
        if i.shape != (self.rows, self.cols):
            raise ValueError(
                f"current map must be {self.rows}x{self.cols}, got {i.shape}"
            )
        if np.any(i < 0):
            raise ValueError("current draws must be non-negative")
        drop = self._lu.solve(i.ravel())
        return self.vdd - drop.reshape(self.rows, self.cols)

    def ir_drop_map(self, current_map: np.ndarray) -> np.ndarray:
        """Per-node IR drop (volts below Vdd)."""
        return self.vdd - self.voltage_map(current_map)

    def worst_node(self, current_map: np.ndarray) -> tuple[int, int, float]:
        """(row, col, drop) of the deepest-sagging node."""
        drop = self.ir_drop_map(current_map)
        r, c = np.unravel_index(int(np.argmax(drop)), drop.shape)
        return int(r), int(c), float(drop[r, c])


@dataclass(frozen=True)
class Floorplan:
    """Maps power-model units onto grid regions.

    ``regions`` assigns each :class:`ActivityCounters` field a rectangle
    ``(r0, r1, c0, c1)`` (half-open) of grid tiles over which that unit's
    power is spread uniformly.  Unassigned power (clock tree, static) is
    spread over the whole die.
    """

    rows: int
    cols: int
    regions: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, (r0, r1, c0, c1) in self.regions.items():
            if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
                raise ValueError(f"region {name!r} outside the {self.rows}x"
                                 f"{self.cols} grid")

    def current_map(
        self, model: WattchPowerModel, activity: ActivityCounters
    ) -> np.ndarray:
        """Spatialize one cycle's activity into a per-tile current map.

        The map always sums to exactly ``model.current(activity)``, so
        grid analyses conserve the lumped model's total.
        """
        out = np.zeros((self.rows, self.cols))
        total = model.current(activity)
        placed = 0.0
        for unit in model.units:
            rect = self.regions.get(unit.counter)
            if rect is None:
                continue
            count = getattr(activity, unit.counter)
            amps = unit.per_access * count if count > 0 else unit.idle
            r0, r1, c0, c1 = rect
            tiles = (r1 - r0) * (c1 - c0)
            out[r0:r1, c0:c1] += amps / tiles
            placed += amps
        # Everything unassigned (clock, static, unmapped units, no-ops)
        # spreads uniformly over the die.
        out += (total - placed) / (self.rows * self.cols)
        return out


#: An 8x8 floorplan in the spirit of a 21264 die photo: front end on top,
#: execution core in the middle, caches at the bottom/right.
DEFAULT_FLOORPLAN = Floorplan(
    rows=8,
    cols=8,
    regions={
        "icache_accesses": (0, 2, 0, 3),
        "bpred_lookups": (0, 1, 3, 5),
        "decoded": (1, 2, 3, 6),
        "dispatched": (2, 3, 2, 6),
        "issued_ialu": (3, 5, 0, 3),
        "issued_imult": (3, 4, 3, 4),
        "issued_fpalu": (3, 5, 4, 7),
        "issued_fpmult": (4, 5, 3, 4),
        "lsq_issues": (5, 6, 2, 5),
        "dcache_accesses": (6, 8, 0, 4),
        "l2_accesses": (6, 8, 4, 8),
        "memory_accesses": (7, 8, 7, 8),
        "regfile_reads": (2, 3, 6, 8),
        "regfile_writes": (3, 4, 6, 8),
        "completions": (4, 5, 7, 8),
        "wakeups": (2, 3, 0, 2),
        "committed": (5, 6, 5, 7),
    },
)
