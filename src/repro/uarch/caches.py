"""Cache hierarchy: Table 1's L1 I/D, unified L2 and main memory.

Set-associative caches with true LRU replacement.  The hierarchy returns,
for each access, the total latency and the deepest level that serviced it —
the pipeline charges the latency, and the characterization code uses the
service level to correlate voltage behaviour with L2 misses (§4.3).
"""

from __future__ import annotations

import copy
from enum import IntEnum

from .config import CacheConfig, ProcessorConfig

__all__ = ["ServiceLevel", "Cache", "CacheHierarchy"]


class ServiceLevel(IntEnum):
    """Deepest structure touched by an access."""

    L1 = 1
    L2 = 2
    MEMORY = 3


class Cache:
    """One set-associative cache level with LRU replacement."""

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.config = config
        self.name = name
        self._offset_bits = config.line_bytes.bit_length() - 1
        if config.sets & (config.sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = config.sets - 1
        # Per set: list of tags, most recently used first.
        self._sets: list[list[int]] = [[] for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr >> self._offset_bits
        return line & self._set_mask, line

    def access(self, addr: int) -> bool:
        """Access one address; returns True on hit.  Misses allocate."""
        idx, tag = self._locate(addr)
        tags = self._sets[idx]
        try:
            pos = tags.index(tag)
        except ValueError:
            self.misses += 1
            tags.insert(0, tag)
            del tags[self.config.ways :]
            return False
        if pos:
            tags.insert(0, tags.pop(pos))
        self.hits += 1
        return True

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or counters."""
        idx, tag = self._locate(addr)
        return tag in self._sets[idx]

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio over the run."""
        return self.misses / self.accesses if self.accesses else 0.0

    def preload(self, *spans: range) -> None:
        """Leave the state an in-order access replay of ``spans`` would.

        ``spans`` are address ranges, each stepping by exactly one line,
        covering pairwise disjoint lines, touched in the order given on an
        empty cache.  Every line is then distinct, so each set ends up with
        the last ``ways`` lines that map to it, most recent first.  The
        spans are walked backwards, one line at a time, until every set is
        full or the spans run out; the hit/miss counters are untouched.
        """
        if any(self._sets):
            raise ValueError(f"{self.name}: preload needs an empty cache")
        shift = self._offset_bits
        lines = []  # (first, last) line of each non-empty span, in order
        for span in spans:
            if span.step != self.config.line_bytes:
                raise ValueError(
                    f"{self.name}: preload spans must step by the "
                    f"{self.config.line_bytes}-byte line, not {span.step}"
                )
            if span:
                lines.append((span[0] >> shift, span[-1] >> shift))
        ordered = sorted(lines)
        for (_, prev_last), (first, _) in zip(ordered, ordered[1:]):
            if first <= prev_last:
                raise ValueError(f"{self.name}: preload spans overlap")
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        unfilled = len(sets)
        for first, last in reversed(lines):
            for line in range(last, first - 1, -1):
                tags = sets[line & mask]
                if len(tags) < ways:
                    tags.append(line)
                    if len(tags) == ways:
                        unfilled -= 1
                        if not unfilled:
                            return

    def __deepcopy__(self, memo) -> Cache:
        # The config is frozen and tags are ints, so copying each set's tag
        # list copies the cache (a generic deep copy walks every tag).
        twin = copy.copy(self)
        twin._sets = [tags[:] for tags in self._sets]
        return twin

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        for tags in self._sets:
            tags.clear()


class CacheHierarchy:
    """L1I + L1D backed by a unified L2 backed by main memory."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.memory_accesses = 0
        self.prefetches = 0

    def _through_l2(self, addr: int, l1_latency: int) -> tuple[int, ServiceLevel]:
        if self.l2.access(addr):
            return l1_latency + self.config.l2.latency, ServiceLevel.L2
        self.memory_accesses += 1
        return (
            l1_latency + self.config.l2.latency + self.config.memory_latency,
            ServiceLevel.MEMORY,
        )

    def prefetch_data(self, addr: int) -> bool:
        """Pull ``addr``'s *next* line toward the L1D (sequential prefetch).

        Returns True when the prefetch had to fetch the line (i.e. it was
        not already L1-resident).  Latency is hidden by the prefetcher;
        only the cache state and the prefetch counter change.
        """
        next_line = addr + self.config.l1d.line_bytes
        if self.l1d.probe(next_line):
            return False
        self.l1d.access(next_line)
        self.l2.access(next_line)
        self.prefetches += 1
        return True

    def access_instruction(self, pc: int) -> tuple[int, ServiceLevel]:
        """Instruction fetch: (total latency, deepest level)."""
        if self.l1i.access(pc):
            return self.config.l1i.latency, ServiceLevel.L1
        return self._through_l2(pc, self.config.l1i.latency)

    def access_data(self, addr: int) -> tuple[int, ServiceLevel]:
        """Data access: (total latency, deepest level)."""
        if self.l1d.access(addr):
            return self.config.l1d.latency, ServiceLevel.L1
        return self._through_l2(addr, self.config.l1d.latency)
