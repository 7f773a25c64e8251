"""With observability off, a characterize job builds no telemetry objects.

Every instrumentation site is gated on ``obs.ENABLED``: ``obs.span``
hands back the shared null span and the event and metric helpers return
at once, so the off path costs one flag test per site.  These tests
count what a simulate → voltage → characterize job constructs while
off; a site that skips the gate builds a ``Span``, emits a record or
creates a metric family, and fails them.
"""

import pytest

from repro import obs
from repro.core import calibrated_supply
from repro.obs import trace
from repro.obs.registry import _Metric
from repro.pipeline import BatchOptions, build_characterization_jobs, submit


@pytest.fixture
def constructed(monkeypatch):
    """Calls to the span, record and metric constructors, by kind."""
    counts = {"span": 0, "record": 0, "metric": 0}

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(trace.Span, "__init__",
                        counting("span", trace.Span.__init__))
    monkeypatch.setattr(trace, "_emit", counting("record", trace._emit))
    monkeypatch.setattr(_Metric, "__init__",
                        counting("metric", _Metric.__init__))
    # a fresh registry, so a metric site that skips the gate creates its
    # family here even when an earlier test already created it
    monkeypatch.setattr(trace, "_REGISTRY", trace.MetricsRegistry())
    return counts


def _characterize_twice(cache_dir) -> None:
    """One job cold (every stage computes and is cached), then warm."""
    specs = build_characterization_jobs(
        ["gzip"], calibrated_supply(150), cycles=2048, seed=2718
    )
    for _ in range(2):
        batch = submit(specs, BatchOptions(jobs=1, cache_dir=str(cache_dir)))
        assert batch.ok


def test_off_path_constructs_nothing(constructed, tmp_path):
    assert not obs.enabled()
    _characterize_twice(tmp_path)
    assert constructed == {"span": 0, "record": 0, "metric": 0}
    assert trace.registry().snapshot() == {}


def test_the_counts_see_an_enabled_run(constructed, tmp_path):
    # the same hooks do count when obs is on, so a zero above is real
    obs.enable("summary")
    try:
        _characterize_twice(tmp_path)
    finally:
        obs.disable()
    assert constructed["span"] > 0
    assert constructed["record"] > 0
    assert constructed["metric"] > 0
