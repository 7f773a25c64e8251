"""The CLI's ``process.import`` span: the package import, timed.

It runs from the top of ``repro/__init__`` to the end of ``repro.cli``'s
import, so it is recorded before observability is on and emitted by
``cli.main`` once the exporter is up; with observability off nothing is
built for it.
"""

import repro
from repro import cli
from repro.obs import load_records, trace

ARGV = ["simulate", "gzip", "--cycles", "2048"]


def test_one_import_span_starts_the_run(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert cli.main(["--obs", "jsonl", "--obs-path", str(log), *ARGV]) == 0
    spans = [r for r in load_records(str(log)) if r["type"] == "span"]
    imports = [r for r in spans if r["name"] == "process.import"]
    assert len(imports) == 1, [r["name"] for r in spans]
    (span,) = imports
    started, ended = repro._IMPORT_STARTED[0], cli._IMPORTED[0]
    assert span["wall_s"] == ended - started >= 0
    assert span["cpu_s"] >= 0
    assert span["attrs"] == {"modules": cli._IMPORTED[2]}
    assert span["attrs"]["modules"] > 0
    assert span["parent_id"] is None
    assert all(span["t"] <= r["t"] for r in spans)


def test_off_builds_nothing(monkeypatch, capsys):
    counts = {"span": 0, "record": 0}

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(trace.Span, "__init__", counting("span", trace.Span.__init__))
    monkeypatch.setattr(trace, "_emit", counting("record", trace._emit))
    assert cli.main(ARGV) == 0
    assert counts == {"span": 0, "record": 0}
