"""One fresh interpreter running one phase of a workload.

``run.py`` spawns this file with ``PYTHONPATH`` pointing at the
checkout's ``src/`` so every run pays the import, calibration and
simulation a ``repro`` user pays on every cold start.  Between the
timed phases (never inside one) it runs the host-speed probe of
``hostspeed.py``.  Usage::

    python3 perfbench/program.py MODE CONFIG_JSON

Modes: ``sweep``, ``store``, ``control``, ``serve`` (the ``repro serve``
CLI with layer wrappers installed) and ``verify`` (reference results for
served requests).  Each mode writes one JSON report to
``config["out"]``; timestamps are
``time.perf_counter()`` readings, which share one monotonic clock with
the spawning process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import probe

T_ENTER = time.perf_counter()


class Phase:
    """The per-process tracing switch: spans when a recorder is set."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.recorder = None
        if cfg.get("trace"):
            from tracing import Recorder

            self.recorder = Recorder(cfg["span_dir"])

    def span(self, name: str, **attrs):
        if self.recorder is None:
            return nullcontext({})
        return self.recorder.span(name, **attrs)

    def import_program(self):
        with self.span("cli.import"):
            import repro.cli
        if self.recorder is not None:
            from tracing import install

            self.recorder.add("cli.interpreter", self.cfg["t_spawn"], T_ENTER)
            install(self.recorder)
        return repro.cli

    def supply(self):
        from repro.core import calibrated_supply

        with self.span("core.setup.calibrated_supply"):
            return calibrated_supply(self.cfg["impedance"])


def _rss() -> dict:
    return {
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }


def _timed_submit(phase: Phase, specs, options) -> dict:
    """One ``submit`` with per-job completion times from its progress hook."""
    from repro.pipeline import submit

    done_at: dict[str, float] = {}

    def progress(outcome) -> None:
        done_at[outcome.spec.label] = time.perf_counter()

    with phase.span("pipeline.submit"):
        t_submit = time.perf_counter()
        batch = submit(specs, options, progress=progress)
        t_done = time.perf_counter()
    outcomes = []
    for outcome in batch.outcomes:
        record = {
            "label": outcome.spec.label,
            "benchmark": outcome.spec.benchmark,
            "ok": outcome.ok,
            "error": outcome.error,
            "cache_hits": sum(outcome.cache_hits.values()),
            "done_at": done_at.get(outcome.spec.label, t_done),
        }
        if outcome.ok and "characterize" in outcome.artifacts:
            record["estimated"] = outcome.artifacts["characterize"]["estimated"]
            record["observed"] = outcome.artifacts["voltage"]["observed"]
        simulated = outcome.artifacts.get("simulate")
        if simulated is not None:
            stats = simulated.stats
            record["stats"] = {
                "cycles": stats.cycles,
                "committed": stats.committed,
                "l2_misses": stats.l2_misses,
                "stall_cycles": stats.stall_cycles,
            }
        if outcome.spec.trace is not None:
            ref = outcome.spec.resolve_trace_ref()
            record["trace_id"] = ref.trace_id
            record["samples"] = ref.samples
        outcomes.append(record)
    return {
        "t_submit": t_submit,
        "t_done": t_done,
        "first_result": min(done_at.values(), default=t_done),
        "outcomes": outcomes,
    }


# -- modes ---------------------------------------------------------------------


def run_sweep(phase: Phase) -> dict:
    """§4 chain over the subset: one cold ``submit`` with a fresh cache."""
    cfg = phase.cfg
    phase.import_program()
    from repro.pipeline import BatchOptions, build_characterization_jobs

    network = phase.supply()
    t_ready = time.perf_counter()
    probes = [probe()]
    specs = build_characterization_jobs(
        cfg["benchmarks"], network, cycles=cfg["cycles"]
    )
    result = _timed_submit(
        phase,
        specs,
        BatchOptions(
            jobs=cfg["jobs"], cache_dir=cfg["cache_dir"], raise_on_error=False
        ),
    )
    probes.append(probe())
    return {"t_enter": T_ENTER, "t_ready": t_ready, "probes": probes, **result}


def synthetic_corpus(seed: int, traces: int, samples: int):
    """Seeded current traces: a slow phase swing, a resonance-band burst
    train and white noise, each trace with its own mix."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.arange(samples)
    corpus = []
    for _ in range(traces):
        base = rng.uniform(30.0, 50.0)
        swing = rng.uniform(2.0, 10.0) * np.sin(
            2 * np.pi * t / rng.uniform(2048.0, 16384.0)
        )
        period = rng.uniform(24.0, 40.0)
        burst = rng.uniform(1.0, 6.0) * np.sign(np.sin(2 * np.pi * t / period))
        noise = rng.normal(0.0, rng.uniform(2.0, 6.0), samples)
        corpus.append((base + swing + burst + noise).astype(np.float32))
    return corpus


def run_store(phase: Phase) -> dict:
    """Ingest a seeded corpus, warm calibration, then rescan it cold."""
    cfg = phase.cfg
    phase.import_program()
    from repro.pipeline import BatchOptions, build_store_jobs
    from repro.store import TraceStore

    network = phase.supply()
    t_gen = time.perf_counter()
    corpus = synthetic_corpus(cfg["seed"], cfg["traces"], cfg["samples"])
    warm_trace = synthetic_corpus(cfg["seed"] + 1, 1, 4 * cfg["window"])[0]
    t_gen_end = time.perf_counter()
    store = TraceStore(cfg["store_dir"], mode="a")
    with phase.span("store.ingest") as record:
        ids = [
            store.ingest(trace, f"synthetic-{i}").trace_id
            for i, trace in enumerate(corpus)
        ]
        record["bytes"] = sum(trace.nbytes for trace in corpus)
    warm_id = store.ingest(warm_trace, "warmup").trace_id
    # Calibration warm-up: one tiny job through the same stage path, so
    # the timed rescans find the estimator already built.
    from repro.pipeline import submit

    with phase.span("pipeline.warmup"):
        submit(build_store_jobs(store, network, trace_ids=[warm_id]))
    t_ready = time.perf_counter()

    specs = build_store_jobs(store, network, trace_ids=ids)
    probes = [probe()]
    reps = []
    measured = 0.0
    while measured < cfg["seconds"] or len(reps) < cfg["min_reps"]:
        cache_dir = f"{cfg['cache_root']}/rep-{len(reps)}"
        rep = _timed_submit(
            phase,
            specs,
            BatchOptions(jobs=1, cache_dir=cache_dir, raise_on_error=False),
        )
        measured += rep["t_done"] - rep["t_submit"]
        reps.append(rep)
        probes.append(probe())

    # Reference results straight from the layer entry points, untraced.
    from repro.core import WaveletVoltageEstimator
    from repro.pipeline.windows import streaming_characterize
    from repro.power import ConvolutionVoltageSimulator

    if phase.recorder is not None:
        phase.recorder.paused = True
    sim = ConvolutionVoltageSimulator(network)
    estimator = WaveletVoltageEstimator(network, window=cfg["window"])
    reference = {}
    for trace_id, trace in zip(ids, corpus):
        voltage = sim.voltage(trace)[min(sim.taps, len(trace) // 4) :]
        estimated, _, _ = streaming_characterize(
            estimator, trace, cfg["threshold"]
        )
        reference[trace_id] = {
            "observed": float((voltage < cfg["threshold"]).mean()),
            "estimated": estimated,
        }
    return {
        "t_enter": T_ENTER,
        "t_ready": t_ready,
        "t_gen": [t_gen, t_gen_end],
        "probes": probes,
        "reps": reps,
        "reference": reference,
    }


def run_control(phase: Phase) -> dict:
    """§5 closed loop: wavelet monitor + threshold controller per benchmark."""
    cfg = phase.cfg
    phase.import_program()
    from repro.core import (
        ThresholdController,
        WaveletVoltageMonitor,
        run_control_experiment,
    )

    network = phase.supply()
    t_ready = time.perf_counter()
    probes = [probe()]
    recorder = phase.recorder
    experiments = []
    for name in cfg["benchmarks"]:
        tally = {"seconds": 0.0, "count": 0}

        def factory():
            controller = ThresholdController(
                WaveletVoltageMonitor(network, terms=cfg["terms"]),
                network,
                cfg["margin"],
            )
            if recorder is not None:
                update = controller.update
                clock = time.perf_counter

                def timed_update(amps):
                    t0 = clock()
                    decision = update(amps)
                    tally["seconds"] += clock() - t0
                    tally["count"] += 1
                    return decision

                controller.update = timed_update
            return controller

        with phase.span("uarch.closed_loop", group=name) as record:
            t0 = time.perf_counter()
            result = run_control_experiment(
                name,
                network,
                factory,
                cycles=cfg["cycles"],
                warmup_cycles=cfg["warmup_cycles"],
            )
            t1 = time.perf_counter()
        if recorder is not None:
            # one accumulated span per job, not one per cycle
            recorder.add(
                "core.controller.update",
                t0,
                t0 + tally["seconds"],
                parent=record["id"],
                group=name,
                count=tally["count"],
            )
        experiments.append(
            {
                "benchmark": name,
                "t_start": t0,
                "t_end": t1,
                "result": {
                    "baseline_cycles": result.baseline_cycles,
                    "controlled_cycles": result.controlled_cycles,
                    "instructions": result.instructions,
                    "baseline_faults": result.baseline_faults,
                    "controlled_faults": result.controlled_faults,
                    "stall_cycles": result.stall_cycles,
                    "boost_cycles": result.boost_cycles,
                    "false_positives": result.false_positives,
                },
            }
        )
        probes.append(probe())
    return {
        "t_enter": T_ENTER,
        "t_ready": t_ready,
        "probes": probes,
        "experiments": experiments,
    }


def run_serve(phase: Phase) -> int:
    """The ``repro serve`` CLI in this process, with layer wrappers."""
    cli = phase.import_program()
    code = cli.main(phase.cfg["argv"])
    if phase.recorder is not None:
        phase.recorder.flush()
    return code


def run_verify(phase: Phase) -> dict:
    """Reference predictions for every distinct served request."""
    cfg = phase.cfg
    from repro.core import calibrated_supply
    from repro.pipeline import (
        BatchOptions,
        build_characterization_jobs,
        prediction_from_outcome,
        submit,
    )

    network = calibrated_supply(cfg["impedance"])
    specs = []
    for request in cfg["requests"]:
        specs += build_characterization_jobs(
            [request["benchmark"]],
            network,
            cycles=request["cycles"],
            seed=request["seed"],
            window=request["window"],
            warmup_cycles=request["warmup_cycles"],
            impedance=cfg["impedance"],
        )
    batch = submit(specs, BatchOptions(jobs=cfg["jobs"]))
    reference = []
    for outcome, request in zip(batch.outcomes, cfg["requests"]):
        prediction = prediction_from_outcome(outcome)
        reference.append(
            {
                "key": request["key"],
                "estimated": prediction.estimated,
                "observed": prediction.observed,
            }
        )
    return {"reference": reference}


MODES = {
    "sweep": run_sweep,
    "store": run_store,
    "control": run_control,
    "verify": run_verify,
}


def main() -> int:
    mode, cfg = sys.argv[1], json.loads(sys.argv[2])
    phase = Phase(cfg)
    if mode == "serve":
        return run_serve(phase)
    report = MODES[mode](phase)
    report.update(_rss())
    Path(cfg["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
