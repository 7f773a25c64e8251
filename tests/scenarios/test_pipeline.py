"""Scenario-through-pipeline tests: specs, caching, serve."""

import numpy as np
import pytest

from repro.errors import SpecError
from repro.pipeline import (
    SCENARIO_STAGES,
    BatchOptions,
    build_scenario_jobs,
    prediction_from_outcome,
    stage_cache_keys,
    submit,
    trace_identity,
)
from repro.power import PowerSupplyNetwork
from repro.serve.protocol import RequestError, build_spec, parse_request

CYCLES = 1024
WARMUP = 32


@pytest.fixture(scope="module")
def net():
    return PowerSupplyNetwork()


def jobs_for(net, *names, **kw):
    kw.setdefault("cycles", CYCLES)
    kw.setdefault("seed", 5)
    kw.setdefault("warmup_cycles", WARMUP)
    return build_scenario_jobs(names, net, **kw)


class TestSpecs:
    def test_stages_and_param(self, net):
        (spec,) = jobs_for(net, "quad-core-dvfs")
        assert spec.stages == SCENARIO_STAGES
        assert spec.benchmark == "quad-core-dvfs"
        assert '"cores"' in spec.param("scenario")

    def test_digest_is_stable(self, net):
        a = jobs_for(net, "burst-train")[0].digest()
        b = jobs_for(net, "burst-train")[0].digest()
        assert a == b

    def test_trace_identity_kind(self, net):
        (spec,) = jobs_for(net, "burst-train")
        identity = trace_identity(spec)
        assert identity["kind"] == "scenario"
        assert identity["dtype"] == "float64"
        assert identity["scenario"] == spec.param("scenario")

    def test_different_scenarios_never_share_trace_keys(self, net):
        a, b = jobs_for(net, "burst-train", "memory-storm")
        assert (
            stage_cache_keys(a)["scenario"] != stage_cache_keys(b)["scenario"]
        )

    def test_expression_jobs_key_on_structure_not_name(self, net):
        # Equivalent expressions with different whitespace parse to the
        # same canonical structure, but JobSpec.benchmark strings differ
        # — only the scenario *stage key* (structure hash) must match.
        a = jobs_for(net, "seq(cache-thrash, idle-spike)")[0]
        b = jobs_for(net, "seq( cache-thrash ,idle-spike )")[0]
        assert a.param("scenario") == b.param("scenario")

    def test_unknown_scenario_raises_structured_error(self, net):
        with pytest.raises(SpecError) as err:
            jobs_for(net, "made-up-scenario")
        assert "valid scenarios" in str(err.value)

    def test_default_cycles_come_from_scenario(self, net):
        (spec,) = build_scenario_jobs(["burst-train"], net)
        assert spec.cycles == 32768


class TestExecution:
    def test_second_run_hits_cache(self, net, tmp_path):
        specs = jobs_for(net, "quad-core-dvfs", "burst-train")
        first = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        assert all(o.ok for o in first.outcomes)
        assert all(o.hit_count == 0 for o in first.outcomes)
        second = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        for outcome in second.outcomes:
            assert outcome.ok
            assert set(outcome.cache_hits) == set(SCENARIO_STAGES)
            assert all(outcome.cache_hits.values())

    def test_cached_artifacts_match_fresh(self, net, tmp_path):
        specs = jobs_for(net, "gating-steps")
        first = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        second = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        fa = first.outcomes[0].artifacts["characterize"]
        sa = second.outcomes[0].artifacts["characterize"]
        assert fa == sa

    def test_prediction_from_outcome_works(self, net, tmp_path):
        specs = jobs_for(net, "resonance-sweep")
        batch = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        p = prediction_from_outcome(batch.outcomes[0])
        assert p.name == "resonance-sweep"
        assert 0.0 <= p.estimated <= 1.0
        assert 0.0 <= p.observed <= 1.0

    def test_scenario_trace_round_trips_result_cache(self, net, tmp_path):
        # A cache-hit scenario stage must restore the trace for the
        # voltage stage: compare voltage artifacts fresh vs cached.
        specs = jobs_for(net, "burst-train")
        first = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        second = submit(specs, BatchOptions(jobs=1, cache_dir=str(tmp_path)))
        assert (
            first.outcomes[0].artifacts["voltage"]
            == second.outcomes[0].artifacts["voltage"]
        )


class TestServeProtocol:
    def test_scenario_source_parses(self):
        request = parse_request(
            {"scenario": "quad-core-dvfs", "cycles": CYCLES,
             "warmup_cycles": WARMUP}
        )
        assert request.source == "scenario"
        assert request.scenario == "quad-core-dvfs"

    def test_scenario_builds_spec(self, net):
        request = parse_request(
            {"scenario": "seq(cache-thrash, idle-spike)", "cycles": CYCLES}
        )
        spec = build_spec(
            request, network_for=lambda imp: net, store=None, spool=None
        )
        assert spec.stages == SCENARIO_STAGES
        assert spec.param("scenario") is not None

    def test_unknown_scenario_maps_to_request_error(self):
        with pytest.raises(RequestError) as err:
            parse_request({"scenario": "bogus-scenario"})
        assert "valid scenarios" in str(err.value)
        assert err.value.details.get("valid_scenarios")

    def test_malformed_expression_maps_to_request_error(self):
        with pytest.raises(RequestError) as err:
            parse_request({"scenario": "seq(cache-thrash"})
        assert "parse error" in str(err.value)

    def test_two_sources_rejected(self):
        with pytest.raises(RequestError):
            parse_request({"scenario": "burst-train", "benchmark": "gcc"})

    def test_control_kind_rejects_scenarios(self):
        with pytest.raises(RequestError):
            parse_request({"kind": "control", "scenario": "burst-train"})

    def test_scenario_requests_coalesce_by_digest(self, net):
        a = build_spec(
            parse_request({"scenario": "burst-train", "cycles": CYCLES}),
            network_for=lambda imp: net, store=None, spool=None,
        )
        b = build_spec(
            parse_request({"scenario": "burst-train", "cycles": CYCLES}),
            network_for=lambda imp: net, store=None, spool=None,
        )
        assert a.digest() == b.digest()


class TestObsSpans:
    def test_scenario_stage_emits_compile_span(self, net, tmp_path):
        from repro import obs

        log = tmp_path / "obs.jsonl"
        obs.enable("jsonl", str(log))
        try:
            submit(
                jobs_for(net, "burst-train"),
                BatchOptions(jobs=1, cache_dir=None),
            )
        finally:
            obs.finish()
        text = log.read_text()
        assert "scenario.compile" in text
        assert "stage.scenario" in text


def test_superposed_trace_feeds_batched_kernels(net):
    # Multi-core superposed traces must characterize the same on the
    # production backend as on the reference oracle.
    from repro.kernels import KernelConfig

    specs = build_scenario_jobs(
        ["quad-core-dvfs", "dual-core-aligned"],
        net,
        cycles=CYCLES,
        seed=5,
        warmup_cycles=WARMUP,
    )
    with KernelConfig(backend="vectorized"):
        vectorized = submit(specs, BatchOptions(jobs=1, cache_dir=None))
    with KernelConfig(backend="reference"):
        reference = submit(specs, BatchOptions(jobs=1, cache_dir=None))
    for a, b in zip(vectorized.outcomes, reference.outcomes):
        assert a.artifacts["characterize"]["estimated"] == pytest.approx(
            b.artifacts["characterize"]["estimated"], abs=1e-9
        )
        est = a.artifacts["characterize"]["estimated"]
        assert np.isfinite(est)
