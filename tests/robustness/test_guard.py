"""Tests for the decode-path trace guard."""

import numpy as np
import pytest

from repro.errors import (ConfigurationError, FlatlineSignalError,
                          NonFiniteSignalError, SaturatedSignalError,
                          SignalQualityError)
from repro.robustness.guard import GuardConfig, sanitize_trace
from repro.types import IQTrace


def _noisy_trace(n=4000, seed=0, base=0.5 + 0.3j, noise=0.02):
    rng = np.random.default_rng(seed)
    samples = base + noise * (rng.normal(size=n)
                              + 1j * rng.normal(size=n))
    return IQTrace(samples=samples, sample_rate_hz=2.5e6,
                   allow_nonfinite=True)


class TestCleanPath:
    def test_clean_trace_returned_unchanged_same_object(self):
        trace = _noisy_trace()
        out, health = sanitize_trace(trace)
        assert out is trace
        assert health.verdict == "clean"
        assert health.is_clean
        assert health.n_nonfinite == 0

    def test_clean_path_preserves_derived_caches(self):
        trace = _noisy_trace()
        prefix = trace.prefix_sum()
        out, _ = sanitize_trace(trace)
        assert out.prefix_sum() is prefix


class TestNonFiniteRepair:
    def test_short_gap_interpolated(self):
        trace = _noisy_trace()
        trace.samples[100:110] = np.nan
        out, health = sanitize_trace(trace)
        assert out is not trace
        assert np.all(np.isfinite(out.samples.real))
        assert health.verdict == "degraded"
        assert health.n_interpolated == 10
        assert health.repaired_spans == [(100, 110)]
        # Interpolation bridges the gap between its finite neighbours.
        assert abs(out.samples[105] - trace.samples[99]) < 0.5

    def test_long_run_excised_keeps_longest_region(self):
        trace = _noisy_trace(n=4000)
        trace.samples[1000:1500] = np.nan  # longer than max_interp_gap
        out, health = sanitize_trace(trace)
        assert out.samples.size == 2500          # [1500, 4000)
        assert health.origin_start == 1500
        assert health.n_excised == 1500
        assert health.to_original_index(0) == 1500
        # The sanitized timebase matches the region it came from.
        assert out.start_time_s == pytest.approx(1500 / 2.5e6)

    def test_mostly_nonfinite_rejected_with_fraction(self):
        trace = _noisy_trace(n=1000)
        trace.samples[:800] = np.nan
        with pytest.raises(NonFiniteSignalError) as excinfo:
            sanitize_trace(trace)
        assert excinfo.value.fraction == pytest.approx(0.8)
        assert excinfo.value.health.verdict == "rejected"

    def test_no_usable_region_rejected(self):
        trace = _noisy_trace(n=300)
        # Pepper the trace with runs longer than the interpolation
        # budget so no clean region reaches the minimum usable length.
        for start in range(0, 300, 10):
            trace.samples[start:start + 2] = np.nan
        cfg = GuardConfig(max_interp_gap=1, min_usable_samples=64,
                          max_bad_fraction=0.9)
        with pytest.raises(SignalQualityError):
            sanitize_trace(trace, cfg)

    def test_inf_treated_like_nan(self):
        trace = _noisy_trace()
        trace.samples[50:55] = np.inf
        out, health = sanitize_trace(trace)
        assert np.all(np.isfinite(out.samples.real))
        assert health.n_interpolated == 5


class TestQualityDetection:
    def test_flatline_rejected(self):
        trace = IQTrace(samples=np.full(1000, 0.4 + 0.1j),
                        sample_rate_hz=2.5e6)
        with pytest.raises(FlatlineSignalError):
            sanitize_trace(trace)

    def test_heavy_saturation_rejected(self):
        trace = _noisy_trace(n=2000)
        rail = float(np.abs(trace.samples.real).max())
        trace.samples[200:1800] = rail + 1j * rail
        with pytest.raises(SaturatedSignalError) as excinfo:
            sanitize_trace(trace)
        assert excinfo.value.fraction > 0.5

    def test_light_clipping_flags_degraded(self):
        trace = _noisy_trace(n=4000)
        rail = float(np.abs(trace.samples.real).max()) * 1.5
        trace.samples[100:150] = rail + 1j * rail
        out, health = sanitize_trace(trace)
        assert out is trace  # clipping is reported, not repaired
        assert health.verdict == "degraded"
        assert health.n_clipped > 0

    def test_noiseless_holds_not_mistaken_for_clipping(self):
        # A noiseless synthetic capture legitimately repeats its peak
        # level for whole bit holds; that is not ADC saturation.
        square = np.tile(np.concatenate([np.full(50, 0.6 + 0.2j),
                                         np.full(50, 0.4 + 0.1j)]), 20)
        trace = IQTrace(samples=square, sample_rate_hz=2.5e6)
        out, health = sanitize_trace(trace)
        assert out is trace
        assert health.verdict == "clean"


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_interp_gap": 0},
        {"max_bad_fraction": 0.0},
        {"max_bad_fraction": 1.5},
        {"min_usable_samples": 1},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GuardConfig(**kwargs)
