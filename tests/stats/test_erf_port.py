"""The NumPy ``erf`` port is ``scipy.special.erf`` bit for bit.

Every pinned §4.1 prediction passes through it (``normal_cdf``, the
``gaussian_prob_below`` kernel), so the check is exact: element for
element with ``np.array_equal``, never a tolerance.  The seeded inputs
cover both of ``erf``'s branches and both of ``erfc``'s, the underflow
of ``erfc`` and magnitudes down to the subnormals.
"""

import math

import numpy as np
import scipy.special

from repro.stats import normal_cdf
from repro.stats.gaussian import _MAXLOG, _erf

CHUNKS = 10
CHUNK = 1_000_000  # 10**7 inputs in all, a chunk at a time


def _seeded(rng: np.random.Generator, size: int) -> np.ndarray:
    quarter = size // 4
    magnitude = 10.0 ** rng.uniform(-320.0, 1.6, size - 3 * quarter)
    return np.concatenate(
        [
            rng.normal(0.0, 2.0, quarter),
            rng.uniform(-1.5, 1.5, quarter),  # across |x| = 1
            rng.uniform(-30.0, 30.0, quarter),  # across 8 and the underflow
            rng.choice((-1.0, 1.0), magnitude.size) * magnitude,
        ]
    )


def _assert_same(x: np.ndarray) -> None:
    got, want = _erf(x), scipy.special.erf(x)
    bad = np.flatnonzero(~((got == want) | (np.isnan(got) & np.isnan(want))))
    assert bad.size == 0, (bad.size, x[bad[:5]], got[bad[:5]], want[bad[:5]])
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


def test_erf_matches_scipy_on_seeded_inputs():
    rng = np.random.default_rng(20040214)
    for _ in range(CHUNKS):
        _assert_same(_seeded(rng, CHUNK))


def _around(x: float, steps: int = 2) -> list[float]:
    """``x`` and its ``steps`` nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return sorted({*below, *above})


def test_erf_matches_scipy_at_the_edges():
    smallest_normal = float(np.finfo(float).tiny)
    edges = [
        0.0,
        np.inf,
        np.nan,
        5e-324,
        float(np.nextafter(smallest_normal, 0.0)),
        smallest_normal,
        1e-200,
        *_around(1.0),
        *_around(8.0),
        *_around(math.sqrt(_MAXLOG)),  # where erfc underflows, |x| ~ 26.64
        26.6,
        26.7,
        1e154,
        1e300,  # x*x overflows
        float(np.finfo(float).max),
    ]
    x = np.array([*edges, *(-e for e in edges)])
    _assert_same(x)
    assert math.copysign(1.0, _erf(np.array([-0.0]))[0]) == -1.0


def test_erf_keeps_shape_and_takes_empty_input():
    x = np.random.default_rng(1).normal(0.0, 3.0, (3, 4, 5))
    assert np.array_equal(_erf(x), scipy.special.erf(x))
    assert _erf(np.empty(0)).shape == (0,)


def test_normal_cdf_is_the_scipy_formula():
    x = np.random.default_rng(2).normal(0.0, 4.0, 100_000)
    want = 0.5 * (1.0 + scipy.special.erf(x / np.sqrt(2.0)))
    assert np.array_equal(normal_cdf(x), want)
    # a scalar in, a scalar out, as a ufunc gives
    assert np.ndim(normal_cdf(1.25)) == 0
    assert normal_cdf(1.25) == want.dtype.type(
        0.5 * (1.0 + scipy.special.erf(1.25 / np.sqrt(2.0)))
    )
