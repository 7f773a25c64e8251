"""Supply-network sizing helpers (the designer's inverse problems).

The paper frames microarchitectural control as a way to ship a *weaker*
(cheaper) supply network.  These helpers answer the two sizing questions
that framing raises, using the linearity of the model:

* :func:`max_tolerable_impedance` — given representative current traces
  and an emergency budget, the largest peak impedance (in % of target
  impedance) the uncontrolled machine tolerates;
* :func:`impedance_headroom` — given a controller's measured residual
  faults at some impedance, how much further the impedance could rise
  before the budget is exceeded (bisection over closed-loop reruns is
  the caller's job; this gives the open-loop bound to start from).
"""

from __future__ import annotations

import numpy as np

from .network import PowerSupplyNetwork
from .simulate import ConvolutionVoltageSimulator

__all__ = ["exposure_at", "max_tolerable_impedance"]

#: Leading cycles left out of every exposure while the supply settles.
SETTLE = 1024


def exposure_at(
    network: PowerSupplyNetwork,
    traces: dict[str, np.ndarray],
    threshold: float | None = None,
    settle: int = SETTLE,
) -> dict[str, float]:
    """Fraction of cycles outside the limit, per trace, at one impedance.

    ``threshold=None`` uses the fault limit ``v_min``; pass 0.97 for the
    paper's control-point exposure instead.
    """
    limit = network.v_min if threshold is None else threshold
    sim = ConvolutionVoltageSimulator(network)
    out = {}
    for name, trace in traces.items():
        v = sim.voltage(np.asarray(trace, dtype=float))[settle:]
        if v.size == 0:
            raise ValueError(f"trace {name!r} too short for the settle window")
        out[name] = float(np.mean(v < limit))
    return out


def max_tolerable_impedance(
    base: PowerSupplyNetwork,
    traces: dict[str, np.ndarray],
    budget: float = 0.0,
    threshold: float | None = None,
    lo: float = 50.0,
    hi: float = 400.0,
    tolerance: float = 1.0,
    settle: int = SETTLE,
) -> float:
    """Largest impedance percentage keeping every trace within budget.

    ``budget`` is the allowed fraction of cycles below the limit (0 =
    no emergencies at all).  Because droop scales linearly with the
    impedance percentage, exposure is monotone in it and bisection over
    ``[lo, hi]`` percent converges; the result is conservative by
    ``tolerance`` percentage points.

    Raises if even ``lo`` percent already violates the budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if not lo < hi:
        raise ValueError("need lo < hi")

    def ok(percent: float) -> bool:
        net = base.with_scale(percent / 100.0)
        exposure = exposure_at(net, traces, threshold, settle)
        return max(exposure.values()) <= budget

    if not ok(lo):
        raise ValueError(
            f"even {lo:.0f}% target impedance violates the budget"
        )
    if ok(hi):
        return hi
    low, high = lo, hi
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if ok(mid):
            low = mid
        else:
            high = mid
    return low
