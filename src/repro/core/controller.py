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

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

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


def _cycles_to_last_commit(pipe, start: int) -> int:
    """The length of a run begun at cycle ``start``.

    Both runs are scored at the cycle of their final commit, so trailing
    stall cycles after the last useful instruction don't skew the
    slowdown comparison between runs of identical committed work.
    """
    return max(pipe.last_commit_cycle + 1 - start, 0)


#: Cycles the free-running run goes between reports of its committed count.
_CHUNK = 256
#: Seconds between looks at the free-running child's progress while the
#: controlled run waits on it.
_POLL_S = 0.001


def _free_run(pipe, cycles, progress=None):
    """The free-running run of a warmed ``pipe``: (cycles to its last
    commit, committed, current).

    It goes through the one cycle loop in ``_CHUNK``-cycle pieces, which is
    exact: a fast-forward stops at a piece's end and goes on in the next.
    After each piece the committed count is stored in ``progress``.
    """
    start = pipe.cycle
    current = np.empty(cycles)
    done = 0
    while done < cycles:
        piece, _ = _run_cycles(pipe, min(_CHUNK, cycles - done))
        current[done : done + len(piece)] = piece
        done += len(piece)
        if progress is not None:
            progress.value = pipe.stats.committed
        if pipe.drained:
            break
    return _cycles_to_last_commit(pipe, start), pipe.stats.committed, current[:done]


def _free_run_child(pipe, cycles, progress, conn):
    """A forked child's free-running run, sent back with its own seconds."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends it
    t0 = time.perf_counter()
    outcome = _free_run(pipe, cycles, progress)
    conn.send((*outcome, time.perf_counter() - t0))


def _can_fork() -> bool:
    """Whether the free-running run may go to a child beside the controlled
    one: a ``fork`` start method, a process allowed children (a daemonic
    pool worker is not), a second usable CPU and no other thread alive
    (forking a threaded process can deadlock the child)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and cpus >= 2
        and threading.active_count() == 1
    )


class _Baseline:
    """An experiment's free-running run, as the controlled run sees it.

    Where :func:`_can_fork`, a forked child runs it on its copy-on-write
    image of the warmed machine while this process runs the controlled
    run; :meth:`bound` then blocks only while the controlled run has
    caught up with the child's progress.  Otherwise it runs here, first,
    on ``pipe.fork()``, and :meth:`bound` is exact at once.  Either way
    ``pipe`` is left for the controlled run.
    """

    def __init__(self, name: str, pipe, cycles: int) -> None:
        self.name = name
        self.concurrent = _can_fork()
        self.wait_s = 0.0
        self._child = None
        t0 = time.perf_counter()
        if self.concurrent:
            ctx = multiprocessing.get_context("fork")
            self._progress = ctx.Value("q", 0, lock=False)
            self._conn, child_end = ctx.Pipe(duplex=False)
            self._child = ctx.Process(
                target=_free_run_child,
                args=(pipe, cycles, self._progress, child_end),
                daemon=True,
            )
            self._child.start()
            child_end.close()
            self._result = None
            self.fork_s = time.perf_counter() - t0
        else:
            twin = pipe.fork()
            t1 = time.perf_counter()
            self.fork_s = t1 - t0
            self._result = (*_free_run(twin, cycles), time.perf_counter() - t1)

    def _receive(self, timeout: float | None) -> bool:
        """Wait up to ``timeout`` s for the child's result; True once in."""
        if self._result is None and self._conn.poll(timeout):
            try:
                self._result = self._conn.recv()
            except EOFError:
                self._child.join()
                raise RuntimeError(
                    f"{self.name}: the free-running run's child process "
                    f"exited (code {self._child.exitcode}) without a result"
                ) from None
        return self._result is not None

    def bound(self, committed: int) -> int:
        """A lower bound on the run's committed count: above ``committed``,
        or else the exact count once it is known."""
        if self._result is None:
            t0 = time.perf_counter()
            while (progress := self._progress.value) <= committed:
                if self._receive(_POLL_S):
                    break
            self.wait_s += time.perf_counter() - t0
            if self._result is None:
                return progress
        return self._result[1]

    def result(self):
        """(cycles to its last commit, committed, current, seconds)."""
        if self._result is None:
            t0 = time.perf_counter()
            self._receive(None)
            self.wait_s += time.perf_counter() - t0
        return self._result

    def close(self) -> None:
        """End and reap the child: at once if its result never came."""
        if self._child is not None:
            if self._result is None:
                self._child.kill()
            self._child.join()
            self._child.close()
            self._conn.close()


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
    instructions), and under control until the same work completes
    (bounded at 4x the cycles).  The machine is warmed up once and
    forked, so both runs start from the same state; with a second CPU
    free the free-running run goes on in a child process while the
    controlled run goes on here (see :class:`_Baseline`), with results
    identical to running them one after the other.  The controller is
    built and driven in this process.  ``controller_factory()`` must
    build a fresh controller, e.g.
    ``lambda: ThresholdController(WaveletVoltageMonitor(net, 13), net)``.

    ``safety_band`` defines false positives: an intervention taken while
    the true voltage was at least that far inside the control band.
    """
    profile = get_profile(benchmark) if isinstance(benchmark, str) else benchmark
    with obs.span("control.experiment", benchmark=profile.name) as span:
        t0 = time.perf_counter()
        # One warm-up serves both runs: each starts from an exact copy of
        # the warmed machine.
        pipe = _warm_pipeline(profile, warmup_cycles, config)
        t1 = time.perf_counter()
        baseline = _Baseline(profile.name, pipe, cycles)
        try:
            t2 = time.perf_counter()
            controller = controller_factory()
            band = (
                getattr(controller, "v_low_control", network.v_min) + safety_band,
                getattr(controller, "v_high_control", network.v_max) - safety_band,
            )
            recorder = _Recorder(controller)
            start = pipe.cycle
            ctl_current, _ = _run_cycles(
                pipe, 4 * cycles, recorder, baseline.bound
            )
            ctl_cycles = _cycles_to_last_commit(pipe, start)
            base_cycles, base_insts, base_current, base_s = baseline.result()
        finally:
            baseline.close()
        base_faults, _ = _score(base_current, network, profile.name)
        ctl_faults, false_pos = _score(
            ctl_current, network, profile.name, recorder.intervened, band
        )
        span.set(
            controller=type(controller).__name__,
            concurrent=baseline.concurrent,
            warmup_s=t1 - t0,
            fork_s=baseline.fork_s,
            baseline_s=base_s,
            controlled_s=time.perf_counter() - t2,
            wait_s=baseline.wait_s,
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
