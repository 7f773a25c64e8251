"""Calibration of per-scale voltage-variance factors (§4.1, steps 3-4).

The offline estimator needs, for every wavelet scale, a *multiplicative
factor* turning that scale's current variance into the voltage variance it
contributes — with the adjacent-coefficient correlation as a second input,
because correlated coefficient runs form pulse trains that build resonance
in the supply network.  The paper derives these factors from "a series of
experiments"; we do the same, executably: drive the supply model with
scale-pure synthetic signals of controlled adjacent correlation, measure
the output voltage variance, and tabulate the ratio.

The factors depend only on the supply network (not on any workload), so
they are computed once per network and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, lfilter

from ..obs import trace as obs
from ..power import ConvolutionVoltageSimulator, PowerSupplyNetwork
from ..wavelets import get_wavelet

__all__ = ["ScaleFactorModel", "calibrate_scale_factors"]

#: Adjacent-correlation grid on which factors are tabulated.
_RHO_GRID = np.array([-0.98, -0.9, -0.7, -0.4, 0.0, 0.4, 0.7, 0.9, 0.98])


def _scale_pure_signals(
    length: int, level: int, rho: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``trials`` signals whose energy lives entirely in one Haar scale.

    Each row is a unit-variance AR(1) sequence (lag-1 correlation ``rho``)
    planted at ``level`` of an otherwise-zero decomposition and inverted in
    closed form: ``d*hi``, scaled by ``lo`` once per finer level, repeated
    over its support — the inverse transform's own products, in its order.
    """
    z = rng.normal(size=(trials, length >> level))
    noise_scale = np.sqrt(max(1.0 - rho * rho, 1e-12))
    z[:, 1:] = lfilter(
        [noise_scale], [1.0, -rho], z[:, 1:], axis=1, zi=rho * z[:, :1]
    )[0]
    haar = get_wavelet("haar")
    x = (z[:, :, None] * haar.dec_hi).reshape(trials, -1)
    for _ in range(level - 1):
        x = x * haar.dec_lo[0]
    return np.repeat(x, 1 << (level - 1), axis=1)


@dataclass(frozen=True)
class ScaleFactorModel:
    """Tabulated voltage-variance factors ``G_j(rho)`` for one network.

    ``factor(level, rho)`` linearly interpolates over the calibration
    grid; outside the grid the edge value is used (correlations beyond
    ±0.9 are indistinguishable from pulse trains at calibration accuracy).
    """

    network: PowerSupplyNetwork
    levels: tuple[int, ...]
    rho_grid: tuple[float, ...]
    table: dict[int, tuple[float, ...]]

    def factor(self, level: int, rho: float = 0.0) -> float:
        """Voltage-variance factor for one scale at one correlation."""
        if level not in self.table:
            raise KeyError(f"level {level} was not calibrated")
        return float(np.interp(rho, self.rho_grid, self.table[level]))

    def factor_array(self, level: int, rhos: np.ndarray) -> np.ndarray:
        """:meth:`factor` for a whole vector of correlations at once.

        Element ``k`` equals ``factor(level, rhos[k])`` exactly — the
        same ``np.interp`` over the same grid — so the batched §4.1
        path reproduces the per-window path bit for bit.
        """
        if level not in self.table:
            raise KeyError(f"level {level} was not calibrated")
        return np.interp(
            np.asarray(rhos, dtype=float), self.rho_grid, self.table[level]
        )

    def peak_level(self) -> int:
        """The scale the supply amplifies the most (at rho = 0)."""
        return max(self.levels, key=lambda lvl: self.factor(lvl, 0.0))

    def ranked_levels(self, rho: float = 0.0) -> list[int]:
        """Scales ordered by decreasing voltage impact.

        The Figure-8 experiment keeps only the top few of these.
        """
        return sorted(self.levels, key=lambda lvl: -self.factor(lvl, rho))


_CACHE: dict[tuple, ScaleFactorModel] = {}


def calibrate_scale_factors(
    network: PowerSupplyNetwork,
    levels: int = 8,
    signal_length: int = 16384,
    trials: int = 4,
    seed: int = 2004,
) -> ScaleFactorModel:
    """Run the calibration experiments for one supply network.

    For every (level, rho) cell: synthesize ``trials`` scale-pure current
    signals as one stack, push the stack through the supply model in one
    FFT convolution, and record the mean ratio of settled voltage variance
    to each signal's wavelet-scale variance.  Linearity of the network
    makes the ratio amplitude-independent.
    """
    # The network itself is the key: its hash and equality cover every
    # field exactly, so no two distinct networks share a factor table.
    key = (network, levels, signal_length, trials, seed)
    if key in _CACHE:
        return _CACHE[key]

    if signal_length & (signal_length - 1):
        raise ValueError("signal_length must be a power of two")
    if levels < 1 or (1 << levels) > signal_length:
        raise ValueError("too many levels for the signal length")

    table: dict[int, tuple[float, ...]] = {}
    with obs.span("core.calibrate", levels=levels, cells=levels * len(_RHO_GRID)):
        rng = np.random.default_rng(seed)
        sim = ConvolutionVoltageSimulator(network)
        settle = min(sim.taps, signal_length // 4)
        for level in range(1, levels + 1):
            row = []
            for rho in _RHO_GRID:
                currents = _scale_pure_signals(signal_length, level, rho, trials, rng)
                droops = fftconvolve(currents, sim.kernel[None, :], axes=1)
                ratios = []
                for current, droop in zip(currents, droops):
                    var_i = float(np.sum(current**2)) / signal_length
                    if var_i > 0:
                        ratios.append(float(droop[settle:signal_length].var()) / var_i)
                row.append(float(np.mean(ratios)))
            table[level] = tuple(row)
    obs.counter_inc("calibrations_total", 1, "cold scale-factor calibrations")
    model = ScaleFactorModel(
        network=network,
        levels=tuple(range(1, levels + 1)),
        rho_grid=tuple(_RHO_GRID),
        table=table,
    )
    _CACHE[key] = model
    return model
