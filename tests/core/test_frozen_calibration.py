"""The frozen canonical calibrations equal what the experiments compute.

``repro.core._frozen_calibration`` stands in for two computations on
every cold start: the stressmark peak impedance behind
``calibrated_supply`` and the ``calibrate_scale_factors`` tables of the
canonical supplies.  Each entry is recomputed here through the internal
compute path and compared bit for bit; the lookups must hit for exactly
the networks the public functions hand out.
"""

import pytest

from repro import obs
from repro.core import calibrate_scale_factors, calibrated_supply, calibration, setup
from repro.core._frozen_calibration import PEAK_IMPEDANCE, SCALE_FACTORS


@pytest.mark.parametrize("key", list(PEAK_IMPEDANCE), ids=lambda key: f"z100-{key[1]}")
def test_frozen_peak_impedance_is_computed_value(key):
    assert setup._stressmark_peak_impedance(*key) == PEAK_IMPEDANCE[key]


@pytest.mark.parametrize(
    "key",
    list(SCALE_FACTORS),
    ids=lambda key: f"{key[0].impedance_scale * 100:g}/{key[1]}",
)
def test_frozen_scale_factors_are_computed_values(key):
    assert calibration._compute_scale_factors(*key) == SCALE_FACTORS[key]


def _must_not_compute(*args):
    raise AssertionError("a canonical calibration must be looked up")


def test_default_supply_is_looked_up_not_simulated(monkeypatch):
    monkeypatch.setattr(setup, "_CACHE", {})
    monkeypatch.setattr(setup, "_stressmark_peak_impedance", _must_not_compute)
    assert calibrated_supply(150).peak_impedance == PEAK_IMPEDANCE[
        (setup.reference_network(), 12288)
    ]


@pytest.mark.parametrize("percent", [100, 125, 150, 200])
@pytest.mark.parametrize("levels", [6, 8])
def test_canonical_tables_are_looked_up_not_computed(monkeypatch, percent, levels):
    monkeypatch.setattr(calibration, "_CACHE", {})
    monkeypatch.setattr(calibration, "_compute_scale_factors", _must_not_compute)
    model = calibrate_scale_factors(calibrated_supply(percent), levels)
    assert model.levels == tuple(range(1, levels + 1))


@pytest.fixture
def records(monkeypatch):
    monkeypatch.setattr(calibration, "_CACHE", {})
    obs.enable("summary")
    seen: list[dict] = []
    obs.add_subscriber(seen.append)
    yield seen
    obs.remove_subscriber(seen.append)
    obs.disable()


def test_frozen_lookup_is_not_a_computed_calibration(records):
    network = calibrated_supply(150)
    model = calibrate_scale_factors(network, 6)
    assert model.table == SCALE_FACTORS[(network, 6, 16384, 4, 2004)]
    assert not [r for r in records if r.get("name") == "core.calibrate"]
    assert obs.registry().counter("calibrations_total").value() == 0
