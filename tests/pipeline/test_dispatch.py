"""Cost-planned dispatch of the supervised pool.

``plan_dispatch`` splits a batch's cost hints evenly over the worker
slots (longest first, to the least-loaded slot) and orders each slot's
queue shortest-first; ``DispatchQueues`` serves an idle slot a requeued
retry first, then its own queue's head, then steals the costliest
unstarted job from the slot with the most planned cost left.  The pool
tests run stub stages that sleep, so which slot runs what is fixed by
the plan, not by how fast the machine is.
"""

import time

import pytest

from repro.obs import load_records, trace
from repro.pipeline import (
    BatchOptions,
    JobSpec,
    RetryPolicy,
    build_characterization_jobs,
    submit,
)
from repro.pipeline import faults
from repro.pipeline.stages import register_stage
from repro.pipeline.supervisor import DispatchQueues, plan_dispatch


@register_stage("t-dispatch", fields=("benchmark", "params"))
def _stage_t_dispatch(ctx):
    time.sleep(float(ctx.spec.param("sleep_s", 0.0)))
    return {"bench": ctx.spec.benchmark}


def stub(name, cost, sleep_s):
    """A job whose hint is ``cost`` (its benchmark is no SPEC model, so
    the hint is its cycle count) and whose stage sleeps ``sleep_s``."""
    return JobSpec.make(
        name,
        cycles=cost,
        warmup_cycles=0,
        stages=("t-dispatch",),
        params={"sleep_s": sleep_s},
    )


def dispatches(path):
    """(slot, job, stolen) of every ``job_dispatch`` event, in order."""
    return [
        (r["attrs"]["slot"], r["attrs"]["job"], r["attrs"]["stolen"])
        for r in load_records(path)
        if r["type"] == "event" and r["name"] == "job_dispatch"
    ]


@pytest.fixture
def recorded(tmp_path):
    path = tmp_path / "obs.jsonl"
    trace.enable("jsonl", str(path))
    yield path
    trace.disable()


class TestPlan:
    def test_sweep_models_split_into_two_equal_halves(self):
        specs = build_characterization_jobs(
            ("mgrid", "gcc", "vpr", "mcf", "gzip", "swim"), None,
            cycles=32768,
        )
        plan = plan_dispatch([s.cost_hint() for s in specs], 2)
        names = [[specs[p].benchmark for p in queue] for queue in plan]
        assert names == [["swim", "vpr", "gzip"], ["mcf", "gcc", "mgrid"]]

    def test_longest_first_to_the_least_loaded_slot(self):
        # 8 -> slot 0; 4, 3, 2 -> slot 1 (each time the lighter); 1 -> 0
        assert plan_dispatch([8, 1, 2, 3, 4], 2) == [[1, 0], [2, 3, 4]]

    def test_each_queue_runs_shortest_first(self):
        assert plan_dispatch([1, 3, 2], 1) == [[0, 2, 1]]

    def test_ties_go_by_submission_index_and_slot_number(self):
        assert plan_dispatch([5, 5, 5, 5], 2) == [[0, 2], [1, 3]]
        assert plan_dispatch([2, 2, 1, 1], 2) == [[2, 0], [3, 1]]

    def test_more_slots_than_jobs_leaves_queues_empty(self):
        assert plan_dispatch([1, 2], 3) == [[1], [0], []]
        assert plan_dispatch([], 2) == [[], []]


class TestQueues:
    def test_own_queue_then_steal_the_costliest(self):
        queues = DispatchQueues({10: 8, 11: 1, 12: 2, 13: 3, 14: 4}, 2)
        assert [queues.take(1) for _ in range(3)] == [
            (12, False), (13, False), (14, False),
        ]
        assert queues.take(1) == (10, True)  # slot 0's costliest
        assert queues.take(0) == (11, False)
        assert queues.take(0) is None
        assert queues.take(1) is None

    def test_steals_from_the_slot_with_most_cost_left(self):
        # slot 0 <- [0]; slot 1 <- [1, 4] (6 left); slot 2 <- [2, 3] (5)
        queues = DispatchQueues({0: 10, 1: 1, 2: 2, 3: 3, 4: 5}, 3)
        assert queues.take(0) == (0, False)
        assert queues.take(0) == (4, True)
        assert queues.take(0) == (3, True)  # slot 1 has 1 left, slot 2 5

    def test_a_requeued_retry_comes_first_on_any_slot(self):
        queues = DispatchQueues({0: 2, 1: 1}, 2)
        assert queues.take(0) == (0, False)
        queues.requeue(0)
        assert queues.take(1) == (0, False)
        assert queues.take(1) == (1, False)


class TestPool:
    def test_an_idle_worker_steals_from_a_busy_slot(self, recorded):
        # planned: slot 0 <- [w], slot 1 <- [x, y, z]; x sleeps long, so
        # slot 0 finishes w and steals z, then y
        specs = [
            stub("w", 6, 0.0),
            stub("x", 1, 0.5),
            stub("y", 2, 0.0),
            stub("z", 3, 0.0),
        ]
        batch = submit(specs, BatchOptions(jobs=2))
        assert [o.spec.benchmark for o in batch.outcomes] == list("wxyz")
        steals = trace.registry().counter("pipeline_steals_total").value()
        trace.disable()
        assert dispatches(recorded) == [
            (0, "w", False),
            (1, "x", False),
            (0, "z", True),
            (0, "y", True),
        ]
        assert steals == 2

    def test_a_replacement_worker_keeps_its_slot(self, recorded, monkeypatch):
        # planned: slot 0 <- [b, c, f], slot 1 <- [a, d, e]; b kills its
        # worker and the replacement carries on with c and f
        monkeypatch.setenv(faults.ENV_VAR, "t-dispatch@b:kill:1")
        specs = [
            stub(name, cost, cost / 20)
            for name, cost in zip("abcdef", (1, 2, 3, 4, 5, 6))
        ]
        batch = submit(
            specs,
            BatchOptions(
                jobs=2,
                raise_on_error=False,
                policy=RetryPolicy(max_attempts=1),
            ),
        )
        assert [o.ok for o in batch.outcomes] == [
            True, False, True, True, True, True,
        ]
        assert batch.outcomes[1].error_kind == "crash"
        trace.disable()
        seen = dispatches(recorded)
        assert [job for slot, job, _ in seen if slot == 0] == list("bcf")
        assert [job for slot, job, _ in seen if slot == 1] == list("ade")
        assert not any(stolen for _, _, stolen in seen)
