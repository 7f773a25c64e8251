"""Baseline dI/dt sensing/control schemes (§6, Table 2).

The paper positions wavelet convolution against three prior proposals:

* **Analog voltage sensing** (Joseph et al., HPCA-9): an on-die analog
  sensor reads the true voltage with some delay — accurate but requires
  mixed-signal design.  Modeled as the exact streaming voltage plus a
  configurable sensing delay.
* **Full convolution** (Grochowski et al., HPCA-8): digitally evaluate
  Eq. 6 with every tap — accurate but hundreds of multiply-adds per
  cycle, hard to build at 1-2 cycle latency.  Modeled exactly.
* **Pipeline damping** (Powell & Vijaykumar, ISCA '03): no voltage
  estimate at all; bound the *current delta* over a window, stalling or
  padding whenever the bound would be violated.  Cheap, but blind to the
  actual voltage — the high-false-positive scheme whose slowdowns reach
  22 %.

All three expose the same interfaces as the wavelet scheme (``observe``
for monitors, ``update`` for controllers) so the Table-2 bench can run
them side by side, and each reports its hardware-cost proxy.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..power import (
    PowerSupplyNetwork,
    StreamingVoltageModel,
    default_tap_count,
    impulse_response,
)

__all__ = [
    "AnalogVoltageSensor",
    "FullConvolutionMonitor",
    "PipelineDampingController",
]


class AnalogVoltageSensor:
    """Ideal analog sensor: the true voltage, ``delay`` cycles late.

    Hardware cost is nil digitally (``ops_per_cycle = 0``) but the design
    burden is the analog circuit itself; the delay models sense-and-
    compare latency, which bounds how tight the control margin can be.
    """

    def __init__(self, network: PowerSupplyNetwork, delay: int = 2) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.network = network
        self.delay = delay
        self._truth = StreamingVoltageModel(network)
        self._queue: deque[float] = deque(
            [network.vdd] * delay, maxlen=max(delay, 1)
        )
        self.ops_per_cycle = 0

    def observe(self, current: float) -> float:
        """Feed one cycle; returns the delayed true voltage."""
        v = self._truth.step(current)
        if self.delay == 0:
            return v
        out = self._queue[0]
        self._queue.append(v)
        return out

    def reset(self) -> None:
        """Clear sensor state."""
        self._truth.reset()
        self._queue = deque([self.network.vdd] * self.delay,
                            maxlen=max(self.delay, 1))


class FullConvolutionMonitor:
    """Grochowski-style digital convolution with every tap.

    Functionally exact over its window; the point of Table 2 is its cost:
    ``taps`` multiply-accumulates every cycle.
    """

    def __init__(self, network: PowerSupplyNetwork, taps: int | None = None) -> None:
        self.network = network
        self.taps = taps or default_tap_count(network)
        self.kernel = impulse_response(network, self.taps)
        self._history = np.zeros(self.taps)
        self.ops_per_cycle = 2 * self.taps - 1  # multiplies + adds

    def observe(self, current: float) -> float:
        """Feed one cycle's current; returns the convolved voltage."""
        self._history[1:] = self._history[:-1]
        self._history[0] = current
        return self.network.vdd - float(np.dot(self._history, self.kernel))

    def reset(self) -> None:
        """Forget the current history."""
        self._history[:] = 0.0


class PipelineDampingController:
    """Powell/Vijaykumar pipeline damping: bound the current slew.

    Tracks current over a short window and intervenes whenever the change
    across the window exceeds ``delta``: a rise is met with an issue
    stall, a fall with no-op padding.  Bounding dI/dt this way needs no
    voltage estimate, but current swings that the supply would have
    tolerated still trigger control — the false-positive problem.

    Implements the controller protocol (``update``) directly.
    """

    def __init__(
        self,
        network: PowerSupplyNetwork,
        delta: float,
        window: int = 8,
        noop_rate: int = 4,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if window < 1:
            raise ValueError("window must be at least one cycle")
        self.network = network
        self.delta = delta
        self.window = window
        self.noop_rate = noop_rate
        self._history: deque[float] = deque(maxlen=window + 1)
        self.stall_decisions = 0
        self.boost_decisions = 0
        self.cycles = 0
        self.ops_per_cycle = 2  # one subtract + one compare

    def update(self, current: float) -> tuple[bool, int]:
        """Observe one cycle; bound the slew on the next."""
        self.cycles += 1
        self._history.append(current)
        if len(self._history) <= self.window:
            return False, 0
        change = self._history[-1] - self._history[0]
        if change > self.delta:
            self.stall_decisions += 1
            return True, 0
        if change < -self.delta:
            self.boost_decisions += 1
            return False, self.noop_rate
        return False, 0

    @property
    def engagement_rate(self) -> float:
        """Fraction of cycles with an intervention."""
        if self.cycles == 0:
            return 0.0
        return (self.stall_decisions + self.boost_decisions) / self.cycles
