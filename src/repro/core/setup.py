"""Shared experimental setup: the calibrated supply networks.

Every evaluation in the paper runs against supply networks quoted as a
percentage of target impedance, where 100 % is calibrated so that the
worst-case execution sequence exactly fills the ±5 % band (§3.1).  This
module runs that calibration once — stressmark through the simulator,
impedance from the droop — and hands out the 100/125/150/200 % networks
the figures sweep over.  The default base network's result is a
constant, frozen in :mod:`repro.core._frozen_calibration` and looked up
instead of simulated.
"""

from __future__ import annotations

from ..power import PowerSupplyNetwork, calibrate_peak_impedance
from ..uarch import Simulator
from ..workloads import stressmark_stream
from ._frozen_calibration import PEAK_IMPEDANCE

__all__ = ["reference_network", "calibrated_supply", "IMPEDANCE_PERCENTS"]

#: The target-impedance points the paper evaluates (Figures 13 and 15).
IMPEDANCE_PERCENTS = (125.0, 150.0, 200.0)

_CACHE: dict[tuple, float] = {}


def reference_network() -> PowerSupplyNetwork:
    """The uncalibrated base supply model (3 GHz, 100 MHz resonance)."""
    return PowerSupplyNetwork()


def calibrated_supply(
    percent: float = 100.0,
    base: PowerSupplyNetwork | None = None,
    stress_cycles: int = 12288,
) -> PowerSupplyNetwork:
    """A supply network at ``percent`` target impedance.

    The 100 % point comes from executing the dI/dt stressmark on the
    Table-1 machine and finding the peak impedance at which its droop
    exactly reaches ±5 % of Vdd; other percentages scale it.
    """
    net = base or reference_network()
    # Every field of the base network feeds the calibration, so the
    # exact network is the key, as it is for the frozen table.
    key = (net, stress_cycles)
    if key not in _CACHE:
        peak = PEAK_IMPEDANCE.get(key)
        if peak is None:
            peak = _stressmark_peak_impedance(net, stress_cycles)
        _CACHE[key] = peak
    return net.with_peak_impedance(_CACHE[key]).with_scale(percent / 100.0)


def _stressmark_peak_impedance(net: PowerSupplyNetwork, stress_cycles: int) -> float:
    """The 100 % peak impedance of ``net`` by simulating the stressmark."""
    half_period = max(1, int(round(net.resonant_period_cycles / 2)))
    result = Simulator().run(
        stressmark_stream(half_period), stress_cycles, name="stressmark"
    )
    # Skip only the pipeline-fill prefix: the worst excursion often
    # rides on the first cold-miss-aligned burst, and target impedance
    # is defined against the *worst case*, so it must stay in view.
    settled = result.current[1024:]
    return calibrate_peak_impedance(net, settled)
