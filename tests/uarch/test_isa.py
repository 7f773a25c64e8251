"""Unit tests for the instruction model."""

import pytest

from repro.uarch import TABLE_1, Instruction, OpClass, Pipeline
from repro.uarch.isa import FU_LATENCY_FIELD, MEM_OPS
from repro.workloads import generate
from repro.workloads.generator import prewarm_caches


class TestInstruction:
    def test_defaults(self):
        inst = Instruction(OpClass.IALU)
        assert inst.pc == 0
        assert inst.src1_dist == 0 and inst.src2_dist == 0
        assert not inst.taken
        assert not inst.is_call and not inst.is_return

    def test_is_mem(self):
        assert Instruction(OpClass.LOAD).is_mem
        assert Instruction(OpClass.STORE).is_mem
        assert not Instruction(OpClass.IALU).is_mem
        assert set(MEM_OPS) == {OpClass.LOAD, OpClass.STORE}

    def test_is_branch(self):
        assert Instruction(OpClass.BRANCH).is_branch
        assert not Instruction(OpClass.FPALU).is_branch

    def test_negative_dependency_rejected(self):
        with pytest.raises(ValueError):
            Instruction(OpClass.IALU, src1_dist=-1)
        with pytest.raises(ValueError):
            Instruction(OpClass.IALU, src2_dist=-2)

    def test_latency_table_covers_non_mem_ops(self):
        covered = set(FU_LATENCY_FIELD)
        everything = set(OpClass)
        assert everything - covered == {OpClass.LOAD, OpClass.STORE}

    def test_repr_mentions_op(self):
        assert "LOAD" in repr(Instruction(OpClass.LOAD, pc=0x400))

    def test_slots_prevent_typos(self):
        inst = Instruction(OpClass.IALU)
        with pytest.raises(AttributeError):
            inst.srcl_dist = 3  # typo'd attribute must not silently stick


class TestInstructionsAreReadOnly:
    """The pipeline never writes an ``Instruction``, so a stream may yield
    one object on every trip of a loop."""

    @pytest.mark.parametrize("name", ["mgrid", "gzip", "mcf"])
    def test_prebuilt_instructions_survive_a_run(self, name):
        gen = generate(name)
        snapshots = []
        enter = gen._enter_region

        def recording_enter():
            enter()
            snapshots.extend(
                (inst, [getattr(inst, s) for s in Instruction.__slots__])
                for inst in gen._prebuilt
                if inst is not None
            )

        gen._enter_region = recording_enter
        pipe = Pipeline(TABLE_1, gen)
        prewarm_caches(pipe.caches, name)
        for _ in range(4096):
            pipe.tick()
        assert snapshots and pipe.stats.committed
        for inst, before in snapshots:
            assert [getattr(inst, s) for s in Instruction.__slots__] == before
