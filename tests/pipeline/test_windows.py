"""Streaming window iteration and its bit-identity with in-memory paths."""

import numpy as np
import pytest

from repro.core import WaveletVoltageEstimator, calibrated_supply
from repro.pipeline import (
    as_chunks,
    iter_windows,
    streaming_fraction_below,
    streaming_level_contributions,
)
from repro.pipeline.windows import streaming_characterize


def trace(n=4096, seed=3):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(40.0, 6.0, n))


class TestIterWindows:
    def test_matches_reshape_tiling(self):
        t = trace(1024)
        windows = list(iter_windows(t, 256))
        assert len(windows) == 4
        assert np.array_equal(np.concatenate(windows), t)

    def test_trailing_partial_window_dropped(self):
        windows = list(iter_windows(trace(1000), 256))
        assert len(windows) == 3

    def test_chunked_iterable_source_equivalent(self):
        t = trace(2048)
        pieces = [t[:100], t[100:700], t[700:]]
        a = [w.tolist() for w in iter_windows(t, 256)]
        b = [w.tolist() for w in iter_windows(iter(pieces), 256)]
        assert a == b

    def test_chunk_smaller_than_window_still_works(self):
        t = trace(1024)
        a = [w.tolist() for w in iter_windows(t, 256, chunk=64)]
        assert np.array_equal(np.asarray(a).ravel(), t)

    def test_npy_file_is_memory_mapped(self, tmp_path):
        t = trace(1024)
        path = tmp_path / "trace.npy"
        np.save(path, t)
        windows = list(iter_windows(path, 256))
        assert len(windows) == 4
        assert np.array_equal(np.concatenate(windows), t)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            list(iter_windows(trace(64), 0))
        with pytest.raises(ValueError, match="1-D"):
            list(as_chunks(np.zeros((4, 4))))


class TestStreamingAggregates:
    @pytest.fixture(scope="class")
    def estimator(self):
        return WaveletVoltageEstimator(calibrated_supply(150))

    def test_fraction_below_bit_identical(self, estimator):
        t = trace(4096)
        streamed, count = streaming_fraction_below(estimator, t, 0.97)
        assert count == 16
        assert streamed == estimator.estimate_fraction_below(t, 0.97)

    def test_level_contributions_bit_identical(self, estimator):
        t = trace(2048)
        streamed = streaming_level_contributions(estimator, t)
        assert streamed == estimator.level_contributions(t)

    def test_short_trace_rejected(self, estimator):
        with pytest.raises(ValueError, match="shorter than one"):
            streaming_fraction_below(estimator, trace(100), 0.97)

    def test_characterize_matches_both_aggregates_across_blocks(self, estimator):
        # three full chunks and a partial one: four blocks of windows,
        # whose Gaussian step runs as one kernel call
        t = trace(3 * (1 << 16) + 1000)
        estimate, count, levels = streaming_characterize(estimator, t, 0.97)
        assert (estimate, count) == streaming_fraction_below(estimator, t, 0.97)
        assert levels == streaming_level_contributions(estimator, t)

    def test_characterize_rejects_a_short_trace(self, estimator):
        with pytest.raises(ValueError, match="shorter than one"):
            streaming_characterize(estimator, trace(100), 0.97)
