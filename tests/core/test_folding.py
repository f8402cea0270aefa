"""Tests for eye-pattern folding and stream hypothesis search."""

import numpy as np
import pytest

from repro.core.folding import (analog_fold_search,
                                find_stream_hypotheses, fold_histogram)
from repro.errors import ConfigurationError
from repro.types import DetectedEdge


def edges_at(positions):
    return [DetectedEdge(position=int(p), differential=0.1 + 0j)
            for p in positions]


class TestFoldHistogram:
    def test_periodic_positions_peak(self):
        positions = 40.0 + 250.0 * np.arange(30)
        counts, width = fold_histogram(positions, 250.0, 3.0)
        assert counts.max() == 30

    def test_bin_width_tiles_period(self):
        _, width = fold_histogram(np.array([1.0]), 250.0, 3.0)
        assert (250.0 / width) == pytest.approx(round(250.0 / width))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fold_histogram(np.array([1.0]), 0.0, 3.0)


class TestFindStreamHypotheses:
    def test_single_stream_recovered(self):
        positions = 40.0 + 250.0 * np.arange(20)
        hyps = find_stream_hypotheses(edges_at(positions), [250.0])
        assert len(hyps) == 1
        assert hyps[0].period_samples == 250.0
        assert len(hyps[0].edge_indices) == 20
        assert hyps[0].offset_samples == pytest.approx(40.0, abs=3)

    def test_two_streams_different_offsets(self):
        a = 40.0 + 250.0 * np.arange(20)
        b = 150.0 + 250.0 * np.arange(20)
        hyps = find_stream_hypotheses(edges_at(np.concatenate([a, b])),
                                      [250.0])
        assert len(hyps) == 2
        offsets = sorted(h.offset_samples % 250 for h in hyps)
        assert offsets[0] == pytest.approx(40.0, abs=3)
        assert offsets[1] == pytest.approx(150.0, abs=3)

    def test_spurious_edges_unclaimed(self):
        stream = 40.0 + 250.0 * np.arange(20)
        rng = np.random.default_rng(0)
        noise = rng.uniform(0, 5000, 8)
        hyps = find_stream_hypotheses(
            edges_at(np.concatenate([stream, noise])), [250.0])
        claimed = set()
        for h in hyps:
            claimed.update(h.edge_indices)
        # Most stream edges claimed; most noise edges not.
        assert len(claimed & set(range(20))) >= 18
        assert len(claimed & set(range(20, 28))) <= 3

    def test_too_few_edges_no_stream(self):
        positions = 40.0 + 250.0 * np.arange(3)
        hyps = find_stream_hypotheses(edges_at(positions), [250.0])
        assert hyps == []

    def test_drifting_stream_tracked(self):
        """A 200 ppm period error must not break matching."""
        period = 250.0 * (1 + 200e-6)
        positions = 40.0 + period * np.arange(80)
        hyps = find_stream_hypotheses(edges_at(positions), [250.0])
        assert len(hyps) == 1
        assert len(hyps[0].edge_indices) >= 75

    def test_slow_tag_not_aliased_as_fast(self):
        """Edges at 2x the period must not register at the fast rate
        (the consecutive-edge test of Section 3.2)."""
        positions = 40.0 + 500.0 * np.arange(12)  # a 500-period tag
        hyps = find_stream_hypotheses(edges_at(positions),
                                      [250.0, 500.0])
        assert len(hyps) == 1
        assert hyps[0].period_samples == pytest.approx(500.0,
                                                       rel=5e-4)

    def test_fast_rate_claimed_before_slow(self):
        positions = 40.0 + 250.0 * np.arange(40)
        hyps = find_stream_hypotheses(edges_at(positions),
                                      [250.0, 500.0])
        periods = [h.period_samples for h in hyps]
        assert any(abs(p - 250.0) < 0.2 for p in periods)
        # The fast stream claims its edges; no leftover slow stream of
        # meaningful size should exist.
        fast = next(h for h in hyps
                    if abs(h.period_samples - 250.0) < 0.2)
        assert len(fast.edge_indices) >= 38

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            find_stream_hypotheses([], [])
        with pytest.raises(ConfigurationError):
            find_stream_hypotheses(edges_at([1]), [-5.0])


class TestAnalogFoldSearch:
    def test_finds_buried_stream(self):
        """Periodic energy below any per-edge threshold still folds up."""
        rng = np.random.default_rng(0)
        n = 50_000
        energy = rng.exponential(1.0, n)  # noise energy floor
        grid = (137 + 250 * np.arange(n // 250)).astype(int)
        for pos in grid:
            energy[pos - 1: pos + 2] += 2.0  # weak periodic bump
        hyps = analog_fold_search(energy, [250.0])
        assert len(hyps) == 1
        assert hyps[0].offset_samples % 250 == pytest.approx(137, abs=4)

    def test_no_stream_in_noise(self):
        rng = np.random.default_rng(1)
        energy = rng.exponential(1.0, 30_000)
        assert analog_fold_search(energy, [250.0]) == []

    def test_short_trace_skipped(self):
        energy = np.ones(100)
        assert analog_fold_search(energy, [250.0]) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            analog_fold_search(np.empty(0), [250.0])
        with pytest.raises(ConfigurationError):
            analog_fold_search(np.ones(5000), [0.0])
