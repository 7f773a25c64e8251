"""Every cold scale-factor calibration is one ``core.calibrate`` span."""

from dataclasses import replace

import pytest

from repro import obs
from repro.core import WaveletVoltageEstimator, calibrate_scale_factors
from repro.core.setup import reference_network

SMALL = dict(levels=3, signal_length=1024, trials=1)


@pytest.fixture
def records():
    obs.enable("summary")
    seen: list[dict] = []
    obs.add_subscriber(seen.append)
    yield seen
    obs.remove_subscriber(seen.append)
    obs.disable()


def calibrate_spans(records):
    return [
        r for r in records if r["type"] == "span" and r["name"] == "core.calibrate"
    ]


def test_one_span_per_cold_calibration(records):
    # A network no other test calibrates, so the first call is a memo miss.
    net = replace(reference_network(), resonant_hz=97.0e6)
    calibrate_scale_factors(net, **SMALL)
    calibrate_scale_factors(net, **SMALL)  # memo hit: no second span
    (span,) = calibrate_spans(records)
    assert span["attrs"] == {"levels": 3, "cells": 27}
    assert obs.registry().counter("calibrations_total").value() == 1


def test_estimator_calibration_is_attributed(records):
    net = replace(reference_network(), resonant_hz=93.0e6)
    WaveletVoltageEstimator(net, window=16)  # a 16-cycle window: 4 levels
    (span,) = calibrate_spans(records)
    assert span["attrs"]["levels"] == 4
    assert span["attrs"]["cells"] == 4 * 9
