"""A deep-copied instruction stream continues exactly as the original.

``InstructionGenerator`` keeps its position (loop region, trip, body slot,
phase and RNG state) in attributes, so ``copy.deepcopy`` forks a stream
mid-flight.  Each case advances a stream, copies it, draws the original's
next instructions first and then the copy's: the two must agree field for
field, which also shows the copy shares no RNG or counter with the
original.  Copies are taken at an arbitrary point of every SPEC2000 model
and at the states each path of the generator can be in: inside a
composite loop-nest body, right after a phase change cut a loop short,
and inside a cold-code excursion.
"""

import copy

import numpy as np
import pytest

from repro.workloads import generate
from repro.workloads.generator import _COLD_CODE_BASE
from repro.workloads.spec import SPEC2000

FIELDS = ("op", "pc", "src1_dist", "src2_dist", "addr", "taken", "is_call",
          "is_return")
AHEAD = 4000


def fields(inst) -> tuple:
    return tuple(getattr(inst, f) for f in FIELDS)


def assert_lock_step(gen) -> None:
    twin = copy.deepcopy(gen)
    ours = [fields(next(gen)) for _ in range(AHEAD)]
    theirs = [fields(next(twin)) for _ in range(AHEAD)]
    assert ours == theirs


def advance_until(gen, reached, limit=400_000) -> None:
    for _ in range(limit):
        if reached(gen):
            return
        next(gen)
    pytest.fail("the stream never reached the state under test")


@pytest.mark.parametrize("name", sorted(SPEC2000))
def test_copy_continues_every_model(name):
    gen = generate(name)
    for _ in range(2500):
        next(gen)
    assert_lock_step(gen)


@pytest.mark.parametrize("name", ["mgrid", "gcc"])
def test_copy_inside_a_composite_body(name):
    gen = generate(name)
    assert gen._composite
    advance_until(gen, lambda g: g._trip >= 2 and 0 < g._k < len(g._body) // 2)
    assert_lock_step(gen)


@pytest.mark.parametrize("name", ["gzip", "mcf", "swim"])
def test_copy_after_a_phase_change_ended_a_loop(name):
    gen = generate(name)
    assert not gen._composite
    # the back-edge just issued was taken, but the loop ends: its phase is over
    advance_until(gen, lambda g: g._k < 0 and 0 < g._trip < g._trips)
    assert_lock_step(gen)


def test_copy_inside_a_cold_code_excursion():
    gen = generate("fma3d")  # the phased model with the most cold code
    advance_until(gen, lambda g: g._k > 0 and g._loop_start >= _COLD_CODE_BASE)
    assert_lock_step(gen)


def test_copy_is_independent_of_a_shared_generator():
    # a caller-supplied numpy Generator is copied with the stream too
    gen = generate("gzip", np.random.default_rng(5))
    for _ in range(1000):
        next(gen)
    assert_lock_step(gen)
