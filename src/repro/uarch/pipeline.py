"""The out-of-order core: fetch → dispatch → issue → writeback → commit.

A trace-driven superscalar model in the SimpleScalar mould (§3.2): a deep
front end feeding an 80-entry RUU and 40-entry LSQ, dependency-driven
dynamic issue onto Table 1's functional units, a combined branch predictor
with the paper's 12-cycle misprediction penalty, and the three-level cache
hierarchy.  Every cycle it tallies microarchitectural activity into the
Wattch power model and emits one per-cycle current sample — the signal all
of the paper's wavelet analyses consume.

Two external control knobs implement the dI/dt actuation mechanisms of §5:
``stall_issue`` (halt instruction issue for a cycle, dropping current) and
``inject_noops`` (issue dummy operations, raising current).

A memory-bound core spends long stretches with every stage waiting on an
outstanding miss or a front-end stall.  :meth:`Pipeline.fast_forward`
steps over such quiescent cycles in one go; each would have drawn the
same idle current, which the driver writes out without ticking.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .branch import BranchTargetBuffer, ReturnAddressStack, make_predictor
from .caches import CacheHierarchy
from .config import ProcessorConfig
from .events import RunStatistics
from .funits import FunctionalUnits
from .isa import Instruction, OpClass
from .power_model import ActivityCounters, WattchPowerModel

__all__ = ["Pipeline"]

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
# Functional-unit op -> index of its issue counter (ialu, imult, fpalu, fpmult).
_FU_COUNTER = {
    OpClass.IALU: 0,
    OpClass.BRANCH: 0,
    OpClass.NOP: 0,
    OpClass.IMULT: 1,
    OpClass.IDIV: 1,
    OpClass.FPALU: 2,
    OpClass.FPMULT: 3,
    OpClass.FPDIV: 3,
}


class _Entry:
    """An RUU slot: one in-flight instruction and its dataflow state."""

    __slots__ = (
        "seq",
        "inst",
        "deps",
        "consumers",
        "issued",
        "completed",
        "mispredicted",
        "deep_load",
    )

    def __init__(self, seq: int, inst: Instruction, mispredicted: bool) -> None:
        self.seq = seq
        self.inst = inst
        self.deps = 0
        self.consumers: list[_Entry] = []
        self.issued = False
        self.completed = False
        self.mispredicted = mispredicted
        self.deep_load = False


class Pipeline:
    """Cycle-accurate core model producing a per-cycle current stream.

    Parameters
    ----------
    config:
        Machine parameters (Table 1 by default).
    stream:
        Iterator of dynamic :class:`Instruction` objects (the workload).
    power_model:
        Activity-to-current mapping; defaults to the Wattch-style model.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        stream: Iterator[Instruction],
        power_model: WattchPowerModel | None = None,
        track_breakdown: bool = False,
    ) -> None:
        self.config = config
        self.power = power_model or WattchPowerModel()
        self._stream = iter(stream)
        self._stream_done = False

        self.caches = CacheHierarchy(config)
        self.predictor = make_predictor(config)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.funits = FunctionalUnits(config)
        self.activity = ActivityCounters()
        self.stats = RunStatistics()

        self.cycle = 0
        self._seq = 0
        self._fetch_stall_until = 0
        self._fetch_blocked = False  # waiting on a mispredicted branch
        self._fetch_buffer: deque[tuple[Instruction, bool]] = deque()
        self._ruu: deque[_Entry] = deque()
        self._lsq_count = 0
        self._pending: dict[int, _Entry] = {}  # seq -> uncompleted entry
        self._ready: list[_Entry] = []
        self._completions: dict[int, list[_Entry]] = {}
        self._mem_outstanding = 0  # loads currently being serviced past L1
        self._pending_stores: dict[int, int] = {}  # addr -> in-flight count
        self._lookahead: Instruction | None = None

        # dI/dt controller hooks (set externally before each tick).
        self.stall_issue = False
        self.inject_noops = 0
        self.last_commit_cycle = -1  # not a RunStatistics field: those are pinned

        # Optional per-unit energy accounting (off by default: hot path).
        self._track_breakdown = track_breakdown
        self._unit_energy: dict[str, float] = {}
        self._breakdown_start = 0

        # The draw of a cycle in which nothing acts, and the number of such
        # cycles fast_forward has stepped over.
        self.idle_current = self.power.current(ActivityCounters())
        self.skipped_cycles = 0

    # -- public api ----------------------------------------------------------

    def tick(self) -> float:
        """Advance one cycle; returns the cycle's current draw in amperes."""
        self.activity.reset()
        ports_left = self._commit(self.config.memory_ports)
        self._writeback()
        if self.stall_issue:
            self.stats.stall_cycles += 1
        else:
            self._issue(ports_left)
        self._dispatch()
        self._fetch()

        if self.inject_noops:
            self.activity.injected_noops = self.inject_noops
            self.stats.noops_injected += self.inject_noops

        current = self.power.current(self.activity)
        if self._track_breakdown:
            for name, amps in self.power.unit_currents(self.activity).items():
                self._unit_energy[name] = (
                    self._unit_energy.get(name, 0.0) + amps
                )
        self.cycle += 1
        self.stats.cycles = self.cycle
        return current

    def fast_forward(self, limit: int) -> int:
        """Step over up to ``limit`` upcoming cycles in which no stage acts.

        A cycle is quiescent when no entry is ready to issue, no completion
        is due, the RUU head has not completed, dispatch is blocked, fetch
        is blocked (mispredict, drained stream or full queue) or stalled
        until ``_fetch_stall_until``, and neither a controller knob nor
        breakdown tracking is on.  Nothing changes such a state but the
        cycle count, so the run stays quiescent until the next completion
        or the end of the fetch stall.  Each skipped cycle draws
        ``idle_current`` and leaves ``l2_miss_outstanding`` as it is.
        Returns the number of cycles skipped (0: the next cycle may act).
        """
        if (
            self._ready
            or self.stall_issue
            or self.inject_noops
            or self._track_breakdown
        ):
            return 0
        ruu = self._ruu
        if ruu and ruu[0].completed:
            return 0
        config = self.config
        buffer = self._fetch_buffer
        if (
            buffer
            and len(ruu) < config.ruu_size
            and not (buffer[0][0].is_mem and self._lsq_count >= config.lsq_size)
        ):
            return 0  # dispatch can act
        end = self.cycle + limit
        if self._completions:
            end = min(end, min(self._completions))
        if not (
            self._fetch_blocked
            or self._stream_done
            or len(buffer) >= config.fetch_queue_size
        ):
            if self.cycle >= self._fetch_stall_until:
                return 0  # fetch can act
            end = min(end, self._fetch_stall_until)
        skipped = end - self.cycle
        if skipped <= 0:
            return 0
        self.activity.reset()
        self.cycle = end
        self.stats.cycles = end
        self.skipped_cycles += skipped
        return skipped

    @property
    def power_breakdown(self) -> dict[str, float]:
        """Mean per-unit current (amps) since construction or the last
        :meth:`reset_breakdown`; needs ``track_breakdown``."""
        if not self._track_breakdown:
            raise RuntimeError("construct the Pipeline with track_breakdown=True")
        cycles = self.cycle - self._breakdown_start
        if cycles == 0:
            return {}
        return {k: v / cycles for k, v in self._unit_energy.items()}

    def reset_breakdown(self) -> None:
        """Restart per-unit accounting from the current cycle (after a
        warm-up, say), so :attr:`power_breakdown` covers only what follows."""
        self._unit_energy = {}
        self._breakdown_start = self.cycle

    @property
    def drained(self) -> bool:
        """True when the stream ended and the machine has emptied."""
        return self._stream_done and not self._ruu and not self._fetch_buffer

    @property
    def branch_recovery(self) -> bool:
        """Is the front end blocked on a mispredicted branch? (§4.3 signal)"""
        return self._fetch_blocked or self.cycle < self._fetch_stall_until

    @property
    def l2_miss_outstanding(self) -> bool:
        """Is any load currently being serviced past the L1? (§4.3 signal)"""
        return self._mem_outstanding > 0

    # -- pipeline stages (in reverse order to avoid same-cycle races) --------

    def _commit(self, ports_left: int) -> int:
        ruu = self._ruu
        width = self.config.commit_width
        committed = lsq_freed = 0
        while committed < width and ruu:
            head = ruu[0]
            if not head.completed:
                break
            inst = head.inst
            if inst.op is _STORE:
                if ports_left == 0:
                    break
                ports_left -= 1
                self._store_writeback(inst.addr)
                remaining = self._pending_stores.get(inst.addr, 1) - 1
                if remaining:
                    self._pending_stores[inst.addr] = remaining
                else:
                    self._pending_stores.pop(inst.addr, None)
            ruu.popleft()
            if inst.is_mem:
                lsq_freed += 1
            committed += 1
        if committed:
            self._lsq_count -= lsq_freed
            self.activity.committed += committed
            self.stats.committed += committed
            self.last_commit_cycle = self.cycle
        return ports_left

    def _store_writeback(self, addr: int) -> None:
        """Retire a store through the write buffer (charges cache energy)."""
        before_l1 = self.caches.l1d.misses
        before_l2 = self.caches.l2.misses
        self.caches.access_data(addr)
        self.activity.dcache_accesses += 1
        self.stats.l1d_accesses += 1
        if self.caches.l1d.misses != before_l1:
            self.stats.l1d_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1

    def _writeback(self) -> None:
        done = self._completions.pop(self.cycle, None)
        if not done:
            return
        pending = self._pending
        ready = self._ready
        wakeups = 0
        for entry in done:
            entry.completed = True
            pending.pop(entry.seq, None)
            if entry.deep_load:
                # An L1-missing load finished being serviced.
                self._mem_outstanding -= 1
            consumers = entry.consumers
            for consumer in consumers:
                consumer.deps -= 1
                if consumer.deps == 0 and not consumer.issued:
                    ready.append(consumer)
            wakeups += len(consumers)
            if entry.mispredicted:
                # Resolution: redirect the front end after the penalty.
                self._fetch_blocked = False
                self._fetch_stall_until = max(
                    self._fetch_stall_until,
                    self.cycle + self.config.branch_penalty,
                )
        activity = self.activity
        activity.completions += len(done)
        activity.regfile_writes += len(done)
        activity.wakeups += wakeups

    def _issue(self, ports_left: int) -> None:
        ready = self._ready
        width = self.config.issue_width
        if not ready or width == 0:
            return
        activity = self.activity
        cycle = self.cycle
        completions = self._completions
        try_issue = self.funits.try_issue
        leftovers: list[_Entry] = []
        fu_issued = [0, 0, 0, 0]
        issued = lsq_issues = forwards = 0
        for i, entry in enumerate(ready):
            if issued >= width:
                leftovers.extend(ready[i:])
                break
            inst = entry.inst
            op = inst.op
            if op is _LOAD:
                if ports_left == 0:
                    leftovers.append(entry)
                    continue
                if inst.addr in self._pending_stores:
                    # Store-to-load forwarding: an in-flight store to the
                    # same address supplies the data from the LSQ in one
                    # cycle, no cache access.
                    latency = 1
                    lsq_issues += 1
                    forwards += 1
                elif self._mem_outstanding >= self.config.mshr_entries:
                    # All miss-status registers busy: the load must wait.
                    leftovers.append(entry)
                    continue
                else:
                    ports_left -= 1
                    latency, deep = self._load_latency(inst.addr)
                    lsq_issues += 1
                    if deep:
                        entry.deep_load = True
                        self._mem_outstanding += 1
            elif op is _STORE:
                # Address generation only; data is written at commit.
                latency = 1
                lsq_issues += 1
            else:
                latency = try_issue(op, cycle)
                if latency is None:
                    leftovers.append(entry)
                    continue
                fu_issued[_FU_COUNTER[op]] += 1
            entry.issued = True
            issued += 1
            when = cycle + latency
            bucket = completions.get(when)
            if bucket is None:
                completions[when] = [entry]
            else:
                bucket.append(entry)
        self._ready = leftovers
        if issued:
            ialu, imult, fpalu, fpmult = fu_issued
            activity.issued_ialu += ialu
            activity.issued_imult += imult
            activity.issued_fpalu += fpalu
            activity.issued_fpmult += fpmult
            activity.lsq_issues += lsq_issues
            activity.regfile_reads += 2 * issued
            self.stats.issued += issued
            self.stats.store_forwards += forwards

    def _load_latency(self, addr: int) -> tuple[int, bool]:
        before_l1 = self.caches.l1d.misses
        before_l2 = self.caches.l2.misses
        latency, _ = self.caches.access_data(addr)
        self.activity.dcache_accesses += 1
        self.stats.l1d_accesses += 1
        deep = self.caches.l1d.misses != before_l1
        if deep:
            self.stats.l1d_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1
            if self.config.prefetch_next_line:
                # Sequential prefetcher: start pulling the next line; the
                # extra traffic costs cache energy but no stall.
                if self.caches.prefetch_data(addr):
                    self.activity.dcache_accesses += 1
                    self.activity.l2_accesses += 1
        return latency, deep

    def _dispatch(self) -> None:
        buffer = self._fetch_buffer
        if not buffer:
            return
        config = self.config
        width = config.decode_width
        ruu = self._ruu
        pending = self._pending
        ready = self._ready
        seq = self._seq
        lsq_count = self._lsq_count
        dispatched = 0
        while dispatched < width and buffer:
            if len(ruu) >= config.ruu_size:
                break
            inst, mispredicted = buffer[0]
            if inst.is_mem and lsq_count >= config.lsq_size:
                break
            buffer.popleft()
            entry = _Entry(seq, inst, mispredicted)
            for dist in (inst.src1_dist, inst.src2_dist):
                if dist > 0:
                    producer = pending.get(seq - dist)
                    if producer is not None and not producer.completed:
                        producer.consumers.append(entry)
                        entry.deps += 1
            ruu.append(entry)
            pending[seq] = entry
            seq += 1
            if inst.is_mem:
                lsq_count += 1
                if inst.op is _STORE:
                    self._pending_stores[inst.addr] = (
                        self._pending_stores.get(inst.addr, 0) + 1
                    )
            if entry.deps == 0:
                ready.append(entry)
            dispatched += 1
        self._seq = seq
        self._lsq_count = lsq_count
        if dispatched:
            self.activity.decoded += dispatched
            self.activity.dispatched += dispatched
            self.stats.dispatched += dispatched

    def _fetch(self) -> None:
        if (
            self._fetch_blocked
            or self.cycle < self._fetch_stall_until
            or self._stream_done
        ):
            return
        if len(self._fetch_buffer) >= self.config.fetch_queue_size:
            return

        first = self._next_instruction()
        if first is None:
            return
        # One I-cache line access per fetch cycle.
        before_l1 = self.caches.l1i.misses
        before_l2 = self.caches.l2.misses
        latency, _ = self.caches.access_instruction(first.pc)
        self.activity.icache_accesses += 1
        if self.caches.l1i.misses != before_l1:
            self.stats.l1i_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1
            # The line is being filled; retry the same instruction later.
            self._fetch_stall_until = self.cycle + latency
            self._unfetch(first)
            return

        buffer = self._fetch_buffer
        limit = min(
            self.config.fetch_width,
            self.config.fetch_queue_size - len(buffer),
        )
        fetched = 0
        inst: Instruction | None = first
        while inst is not None:
            if inst.is_branch:
                mispredicted, stop = self._predict(inst)
            else:
                mispredicted = stop = False
            buffer.append((inst, mispredicted))
            fetched += 1
            if stop or fetched >= limit:
                break
            inst = self._next_instruction()
        self.stats.fetched += fetched

    def _predict(self, branch: Instruction) -> tuple[bool, bool]:
        """Consult the predictors for a fetched branch.

        Returns (mispredicted, stop fetching this cycle).
        """
        self.activity.bpred_lookups += 1
        self.stats.branches += 1
        correct = self.predictor.update(branch.pc, branch.taken)
        if branch.is_call:
            self.ras.push(branch.pc + 4)
        if branch.is_return:
            correct = correct and self.ras.pop() is not None
        stop = False
        if branch.taken:
            target = self.btb.lookup(branch.pc)
            self.btb.update(branch.pc, branch.addr)
            if correct and target is None and not branch.is_return:
                # Right direction, unknown target: one-cycle bubble.
                self._fetch_stall_until = max(
                    self._fetch_stall_until, self.cycle + 2
                )
            stop = True  # taken branches end the fetch group
        if correct:
            return False, stop
        self.stats.mispredictions += 1
        self._fetch_blocked = True
        return True, True

    def _next_instruction(self) -> Instruction | None:
        if self._stream_done:
            return None
        if self._lookahead is not None:
            inst, self._lookahead = self._lookahead, None
            return inst
        try:
            return next(self._stream)
        except StopIteration:
            self._stream_done = True
            return None

    def _unfetch(self, inst: Instruction) -> None:
        """Put an instruction back (I-cache miss before it was consumed)."""
        self._lookahead = inst
