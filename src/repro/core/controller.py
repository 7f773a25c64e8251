"""Closed-loop dI/dt control (§5.2-5.3).

A controller watches per-cycle current through a voltage monitor and
actuates the two mechanisms every proposal in the literature uses: stall
instruction issue when the (estimated) voltage nears the low fault level,
and inject no-ops when it nears the high level.  The control experiment
runs a benchmark twice — free-running and controlled — to the same
committed instruction count, giving the slowdown of Figure 15, and tracks
the true voltage (streaming second-order model) to count residual faults
and false-positive control actions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat

from ..obs import trace as obs
from ..power import PowerSupplyNetwork, StreamingVoltageModel
from ..uarch import ProcessorConfig, TABLE_1
from ..uarch.simulator import _run_cycles, _warm_pipeline
from ..workloads.spec import WorkloadProfile, get_profile

__all__ = [
    "ThresholdController",
    "HysteresisController",
    "ControlResult",
    "run_control_experiment",
]


class ThresholdController:
    """Threshold actuation around any voltage monitor (§5.2 step 3).

    Parameters
    ----------
    monitor:
        Object with ``observe(current) -> estimated_voltage``.
    network:
        Supplies the fault band (±5 % of Vdd).
    margin:
        Control-threshold tolerance in volts: the low control point is
        ``v_min + margin`` and the high one ``v_max - margin``.  The
        paper's Figure 15 sweeps this from optimistic (10 mV) to
        conservative; it must exceed the monitor's estimation error for
        control to be safe.
    noop_rate:
        No-ops injected per cycle while boosting.
    """

    def __init__(
        self,
        monitor,
        network: PowerSupplyNetwork,
        margin: float = 0.010,
        noop_rate: int = 4,
    ) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        if noop_rate < 0:
            raise ValueError("noop_rate must be non-negative")
        self.monitor = monitor
        self.network = network
        self.v_low_control = network.v_min + margin
        self.v_high_control = network.v_max - margin
        if self.v_low_control >= self.v_high_control:
            raise ValueError("margin leaves no operating window")
        self.noop_rate = noop_rate
        self.stall_decisions = 0
        self.boost_decisions = 0
        self.cycles = 0

    def update(self, current: float) -> tuple[bool, int]:
        """One control step: observe the cycle, decide the next one."""
        estimate = self.monitor.observe(current)
        self.cycles += 1
        if estimate < self.v_low_control:
            self.stall_decisions += 1
            return True, 0
        if estimate > self.v_high_control:
            self.boost_decisions += 1
            return False, self.noop_rate
        return False, 0

    @property
    def engagement_rate(self) -> float:
        """Fraction of cycles on which the controller intervened."""
        if self.cycles == 0:
            return 0.0
        return (self.stall_decisions + self.boost_decisions) / self.cycles


class HysteresisController(ThresholdController):
    """Threshold control with engage/release hysteresis.

    The plain threshold controller flips its actuation per cycle, which
    can chatter when the estimate hovers at a control point (stall, ease,
    re-stall ...).  This variant latches: once engaged it stays engaged
    until the estimate recovers past a *release* point deeper inside the
    safe band, trading a little extra intervention for far fewer
    engage/disengage transitions — the classic comparator-hysteresis
    trick a hardware implementation would use anyway.
    """

    def __init__(
        self,
        monitor,
        network: PowerSupplyNetwork,
        margin: float = 0.010,
        release: float = 0.006,
        noop_rate: int = 4,
    ) -> None:
        super().__init__(monitor, network, margin, noop_rate)
        if release < 0:
            raise ValueError("release must be non-negative")
        self.v_low_release = self.v_low_control + release
        self.v_high_release = self.v_high_control - release
        if self.v_low_release >= self.v_high_release:
            raise ValueError("release band leaves no operating window")
        self._stalling = False
        self._boosting = False
        self.transitions = 0

    def update(self, current: float) -> tuple[bool, int]:
        """Latched control step."""
        estimate = self.monitor.observe(current)
        self.cycles += 1
        if self._stalling:
            if estimate >= self.v_low_release:
                self._stalling = False
                self.transitions += 1
        elif estimate < self.v_low_control:
            self._stalling = True
            self.transitions += 1
        if self._stalling:
            self.stall_decisions += 1
            return True, 0
        if self._boosting:
            if estimate <= self.v_high_release:
                self._boosting = False
                self.transitions += 1
        elif estimate > self.v_high_control:
            self._boosting = True
            self.transitions += 1
        if self._boosting:
            self.boost_decisions += 1
            return False, self.noop_rate
        return False, 0


@dataclass(frozen=True)
class ControlResult:
    """Outcome of one closed-loop control experiment."""

    name: str
    baseline_cycles: int  # cycles to commit the work, uncontrolled
    controlled_cycles: int  # cycles to commit the same work, controlled
    instructions: int
    baseline_faults: int  # true-voltage fault cycles without control
    controlled_faults: int  # residual fault cycles with control
    stall_cycles: int
    boost_cycles: int
    false_positives: int  # interventions while the true voltage was safe

    @property
    def slowdown(self) -> float:
        """Relative performance loss (Figure 15's y-axis)."""
        if self.baseline_cycles == 0:
            return 0.0
        return self.controlled_cycles / self.baseline_cycles - 1.0

    @property
    def false_positive_rate(self) -> float:
        """Fraction of interventions that were unnecessary (Table 2)."""
        total = self.stall_cycles + self.boost_cycles
        return self.false_positives / total if total else 0.0


class _Recorder:
    """Passes a controller's decisions through, noting each cycle's."""

    def __init__(self, controller) -> None:
        self._update = controller.update
        self.intervened: list[bool] = []

    def update(self, current: float) -> tuple[bool, int]:
        stall, noops = self._update(current)
        self.intervened.append(bool(stall or noops))
        return stall, noops


def _run(pipe, max_cycles, controller=None, target=math.inf):
    """Run a warmed ``pipe``; returns (cycles to its last commit,
    committed, current)."""
    start = pipe.cycle
    current, _ = _run_cycles(pipe, max_cycles, controller, target)
    # Both runs are scored at the cycle of their final commit, so trailing
    # stall cycles after the last useful instruction don't skew the
    # slowdown comparison between runs of identical committed work.
    return max(pipe.last_commit_cycle + 1 - start, 0), pipe.stats.committed, current


def _score(current, network, name, intervened=None, band=(0.0, 0.0)):
    """(faults, false positives) of one run: the true voltage stepped
    through its current trace in cycle order.  A false positive is an
    ``intervened`` cycle whose true voltage lay within ``band``."""
    step = StreamingVoltageModel(network).step
    v_min, v_max = network.v_min, network.v_max
    lo, hi = band
    flags = repeat(False) if intervened is None else intervened
    faults = false_pos = 0
    in_emergency = False
    for n, (amps, acted) in enumerate(zip(current.tolist(), flags), 1):
        v_true = step(amps)
        if v_true < v_min or v_true > v_max:
            faults += 1
            if not in_emergency:
                obs.event(
                    "emergency_onset",
                    benchmark=name,
                    cycle=n,
                    voltage=round(v_true, 6),
                    controlled=intervened is not None,
                )
            in_emergency = True
        else:
            in_emergency = False
        if acted and lo <= v_true <= hi:
            false_pos += 1
    return faults, false_pos


def run_control_experiment(
    benchmark: str | WorkloadProfile,
    network: PowerSupplyNetwork,
    controller_factory,
    cycles: int = 16384,
    config: ProcessorConfig = TABLE_1,
    warmup_cycles: int = 4096,
    safety_band: float = 0.005,
) -> ControlResult:
    """Measure slowdown and fault suppression for one controller.

    Runs uncontrolled for ``cycles`` to fix the work unit (committed
    instructions), then re-runs under control until the same work
    completes (bounded at 4x the cycles).  The machine is warmed up once
    and forked, so both runs start from the same state.  ``controller_factory()`` must
    build a fresh controller, e.g.
    ``lambda: ThresholdController(WaveletVoltageMonitor(net, 13), net)``.

    ``safety_band`` defines false positives: an intervention taken while
    the true voltage was at least that far inside the control band.
    """
    profile = get_profile(benchmark) if isinstance(benchmark, str) else benchmark
    with obs.span("control.experiment", benchmark=profile.name) as span:
        t0 = time.perf_counter()
        # One warm-up serves both runs: the controlled run starts from an
        # exact copy of the machine the free-running one starts from.
        pipe = _warm_pipeline(profile, warmup_cycles, config)
        t1 = time.perf_counter()
        twin = pipe.fork()
        t2 = time.perf_counter()
        base_cycles, base_insts, current = _run(pipe, cycles)
        base_faults, _ = _score(current, network, profile.name)
        del pipe  # the controlled run needs only its twin
        t3 = time.perf_counter()
        controller = controller_factory()
        band = (
            getattr(controller, "v_low_control", network.v_min) + safety_band,
            getattr(controller, "v_high_control", network.v_max) - safety_band,
        )
        recorder = _Recorder(controller)
        ctl_cycles, _, current = _run(twin, 4 * cycles, recorder, base_insts)
        ctl_faults, false_pos = _score(
            current, network, profile.name, recorder.intervened, band
        )
        span.set(
            controller=type(controller).__name__,
            warmup_s=t1 - t0,
            fork_s=t2 - t1,
            baseline_s=t3 - t2,
            controlled_s=time.perf_counter() - t3,
        )
    stalls = getattr(controller, "stall_decisions", 0)
    boosts = getattr(controller, "boost_decisions", 0)
    if obs.ENABLED:
        obs.counter_inc(
            "control_stall_actuations_total",
            stalls,
            "issue-stall actuations taken by controllers",
        )
        obs.counter_inc(
            "control_boost_actuations_total",
            boosts,
            "no-op-injection actuations taken by controllers",
        )
        obs.counter_inc(
            "control_false_positives_total",
            false_pos,
            "interventions taken while the true voltage was safe",
        )
        obs.gauge_set(
            "control_engagement_rate",
            getattr(controller, "engagement_rate", 0.0),
            "fraction of cycles the controller intervened on",
            benchmark=profile.name,
        )
        obs.event(
            "actuation_summary",
            benchmark=profile.name,
            controller=type(controller).__name__,
            stalls=stalls,
            boosts=boosts,
            residual_faults=ctl_faults,
        )
    return ControlResult(
        name=profile.name,
        baseline_cycles=base_cycles,
        controlled_cycles=ctl_cycles,
        instructions=base_insts,
        baseline_faults=base_faults,
        controlled_faults=ctl_faults,
        stall_cycles=stalls,
        boost_cycles=boosts,
        false_positives=false_pos,
    )
