"""Tests for IQ-differential edge detection (Section 3.1)."""

import numpy as np
import pytest

from repro.core.edges import EdgeDetector, EdgeDetectorConfig
from repro.errors import ConfigurationError, SignalError
from repro.phy.modulation import nrz_waveform
from repro.types import IQTrace


def make_trace(bits, coeff=0.1 + 0.05j, env=0.5 + 0.3j,
               offset=100.0, period=250.0, n=None, noise=0.0, seed=0):
    n = n or int(offset + (len(bits) + 2) * period)
    wave = nrz_waveform(bits, offset, period, n)
    samples = env + coeff * wave
    if noise:
        rng = np.random.default_rng(seed)
        samples = samples + (rng.normal(0, noise / np.sqrt(2), n)
                             + 1j * rng.normal(0, noise / np.sqrt(2),
                                               n))
    return IQTrace(samples=samples, sample_rate_hz=2.5e6)


class TestDetect:
    def test_alternating_bits_all_edges_found(self):
        bits = [1, 0, 1, 0, 1, 0]
        trace = make_trace(bits, noise=0.005)
        edges = EdgeDetector().detect(trace)
        positions = np.array(sorted(e.position for e in edges))
        expected = 100.0 + 250.0 * np.arange(6)
        # Every true transition detected within one edge width; low-
        # magnitude response shoulders may add a few extra detections,
        # which the fold stage later discards as spurious.
        for want in expected:
            assert np.min(np.abs(positions - want)) <= 3
        assert len(edges) <= 12

    def test_constant_bits_single_edge(self):
        trace = make_trace([1, 1, 1, 1], noise=0.005)
        edges = EdgeDetector().detect(trace)
        assert len(edges) == 1

    def test_differential_matches_coefficient(self):
        coeff = 0.12 - 0.07j
        trace = make_trace([1, 0], coeff=coeff, noise=0.002)
        edges = EdgeDetector().detect(trace)
        by_strength = sorted(edges, key=lambda e: -e.strength)[:2]
        rise, fall = sorted(by_strength, key=lambda e: e.position)
        assert abs(rise.differential - coeff) < 0.02
        assert abs(fall.differential + coeff) < 0.02

    def test_background_cancelled(self):
        """A second tag's constant reflection must not shift the
        detected differential (the point of Section 3.1)."""
        coeff = 0.1 + 0.02j
        trace = make_trace([1, 0], coeff=coeff, env=1.5 - 0.8j,
                           noise=0.002)
        edges = EdgeDetector().detect(trace)
        assert abs(edges[0].differential - coeff) < 0.02

    def test_no_edges_in_pure_noise(self):
        rng = np.random.default_rng(1)
        samples = 0.5 + 0.3j + (rng.normal(0, 0.01, 20_000)
                                + 1j * rng.normal(0, 0.01, 20_000))
        trace = IQTrace(samples=samples, sample_rate_hz=2.5e6)
        edges = EdgeDetector().detect(trace)
        assert len(edges) <= 2  # a rare noise spike is acceptable

    def test_duplicate_detections_merged(self):
        """One physical transition yields exactly one edge record."""
        trace = make_trace([1, 0, 1, 0, 1, 0, 1, 0], noise=0.008)
        edges = EdgeDetector().detect(trace)
        positions = np.array([e.position for e in edges])
        assert np.all(np.diff(positions) > 100)

    def test_two_tags_nearby_edges_not_merged(self):
        """Distinct tags' edges a few samples apart stay separate when
        their IQ vectors differ."""
        n = 2000
        wave_a = nrz_waveform([1], 500.0, 1000.0, n)
        wave_b = nrz_waveform([1], 508.0, 1000.0, n)
        samples = 0.5 + (0.1 + 0.02j) * wave_a + (0.02 - 0.1j) * wave_b
        trace = IQTrace(samples=samples, sample_rate_hz=2.5e6)
        edges = EdgeDetector().detect(trace)
        positions = [e.position for e in edges]
        # Both true edges present (an artefact between them is
        # tolerable; the fold rejects unmatched detections later).
        assert any(abs(p - 500) <= 2 for p in positions)
        assert any(abs(p - 508) <= 2 for p in positions)
        assert len(edges) <= 3

    def test_too_short_trace_rejected(self):
        trace = IQTrace(samples=np.ones(5, dtype=complex),
                        sample_rate_hz=1.0)
        with pytest.raises(SignalError):
            EdgeDetector().detect(trace)


class TestRefineDifferentials:
    def test_bounded_by_neighbor_edges(self):
        """The averaging window must stop at the neighbouring edge."""
        n = 3000
        wave = nrz_waveform([1, 0], 1000.0, 500.0, n)
        samples = (0.5 + 0.3j) + (0.1 + 0j) * wave
        trace = IQTrace(samples=samples, sample_rate_hz=2.5e6)
        det = EdgeDetector(EdgeDetectorConfig(max_refine_window=10_000))
        diffs = det.refine_differentials(
            trace, np.array([1000, 1500]),
            bounds=np.array([1000, 1500]))
        assert abs(diffs[0] - 0.1) < 0.01
        assert abs(diffs[1] + 0.1) < 0.01

    def test_empty_positions(self):
        trace = make_trace([1, 0])
        out = EdgeDetector().refine_differentials(trace,
                                                  np.empty(0,
                                                           dtype=int))
        assert out.size == 0

    def test_out_of_bounds_position(self):
        trace = make_trace([1, 0])
        with pytest.raises(SignalError):
            EdgeDetector().refine_differentials(
                trace, np.array([10 ** 9]))


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigurationError):
            EdgeDetectorConfig(guard=-1)
        with pytest.raises(ConfigurationError):
            EdgeDetectorConfig(min_separation=0)
        with pytest.raises(ConfigurationError):
            EdgeDetectorConfig(max_refine_window=0)
