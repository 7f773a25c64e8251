"""Instruction model consumed by the pipeline.

The paper's results never depend on Alpha instruction semantics — only on
the *resource usage* of the dynamic instruction stream (which functional
unit, which memory address, whether a branch was taken, and which earlier
instructions it depends on).  An :class:`Instruction` therefore carries
exactly that: an operation class, up to two producer distances, an address
for memory/branch operations, and the actual branch outcome against which
the predictor will be graded.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["OpClass", "Instruction", "MEM_OPS", "FU_LATENCY_FIELD"]


class OpClass(IntEnum):
    """Functional-unit class (matches Table 1's FU inventory)."""

    IALU = 0
    IMULT = 1
    IDIV = 2
    FPALU = 3
    FPMULT = 4
    FPDIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    NOP = 9


MEM_OPS = (OpClass.LOAD, OpClass.STORE)

#: ProcessorConfig attribute holding each class's execution latency.
FU_LATENCY_FIELD = {
    OpClass.IALU: "ialu_latency",
    OpClass.IMULT: "imult_latency",
    OpClass.IDIV: "idiv_latency",
    OpClass.FPALU: "fpalu_latency",
    OpClass.FPMULT: "fpmult_latency",
    OpClass.FPDIV: "fpdiv_latency",
    OpClass.BRANCH: "ialu_latency",
    OpClass.NOP: "ialu_latency",
}


class Instruction:
    """One dynamic instruction.

    Parameters
    ----------
    op:
        Operation class.
    pc:
        Byte address of the instruction (drives I-cache and predictor).
    src1_dist, src2_dist:
        Distances (in dynamic instructions) to the producers of the two
        source operands; 0 means the operand needs no in-flight producer.
    addr:
        Effective address for loads/stores, branch target for branches.
    taken:
        Actual outcome for branches.
    is_call / is_return:
        Drive the return-address stack.

    ``is_mem`` (occupies an LSQ slot) and ``is_branch`` (consults the
    branch predictor) are derived from ``op`` once, at construction.

    The pipeline never writes an ``Instruction``: it only reads one, and
    keeps its own per-flight state in its RUU entries.  So one object may
    stand for every dynamic instance of a static instruction, and a stream
    may yield the same object on every trip of a loop.
    """

    __slots__ = (
        "op",
        "pc",
        "src1_dist",
        "src2_dist",
        "addr",
        "taken",
        "is_call",
        "is_return",
        "is_mem",
        "is_branch",
    )

    def __init__(
        self,
        op: OpClass,
        pc: int = 0,
        src1_dist: int = 0,
        src2_dist: int = 0,
        addr: int = 0,
        taken: bool = False,
        is_call: bool = False,
        is_return: bool = False,
    ) -> None:
        if src1_dist < 0 or src2_dist < 0:
            raise ValueError("dependency distances must be non-negative")
        self.op = op
        self.pc = pc
        self.src1_dist = src1_dist
        self.src2_dist = src2_dist
        self.addr = addr
        self.taken = taken
        self.is_call = is_call
        self.is_return = is_return
        self.is_mem = op in MEM_OPS
        self.is_branch = op is OpClass.BRANCH

    def __deepcopy__(self, memo) -> Instruction:
        return self  # never written (see above), so a copy may share it

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Instruction({self.op.name}, pc={self.pc:#x}, "
            f"deps=({self.src1_dist},{self.src2_dist}))"
        )
