"""Additional folding tests: drift grids, windows, config edges."""

import numpy as np
import pytest

from repro.core.folding import (FoldingConfig, _circular_peak_offsets,
                                analog_fold_search,
                                find_stream_hypotheses)
from repro.types import DetectedEdge


def edges_at(positions):
    return [DetectedEdge(position=int(p), differential=0.1 + 0j)
            for p in positions]


class TestDriftGrid:
    def test_slow_stream_with_heavy_drift_found(self):
        """At slow rates the ppm phase walk spans many samples per
        bit; the drift-corrected fold must still seed the stream."""
        period = 25_000.0 * (1 + 150e-6)
        positions = 1000.0 + period * np.arange(14)
        hyps = find_stream_hypotheses(edges_at(positions), [25_000.0])
        assert len(hyps) == 1
        assert len(hyps[0].edge_indices) >= 12

    def test_fast_stream_period_not_perturbed(self):
        """With no real drift, the seeded period stays nominal (the
        drift grid is gated off for fast short traces)."""
        positions = 40.0 + 250.0 * np.arange(30)
        hyps = find_stream_hypotheses(edges_at(positions), [250.0])
        assert hyps[0].period_samples == 250.0

    def test_two_slow_streams_both_found_under_drift(self):
        pa = 25_000.0 * (1 + 120e-6)
        pb = 25_000.0 * (1 - 120e-6)
        a = 1000.0 + pa * np.arange(14)
        b = 9000.0 + pb * np.arange(14)
        hyps = find_stream_hypotheses(
            edges_at(np.concatenate([a, b])), [25_000.0])
        assert len(hyps) == 2


class TestFoldWindow:
    def test_late_edges_still_claimed_by_tracker(self):
        """The fold seeds from the early window, but matching covers
        the whole trace."""
        positions = 40.0 + 250.0 * np.arange(300)  # 75k samples long
        hyps = find_stream_hypotheses(edges_at(positions), [250.0])
        assert len(hyps) == 1
        assert len(hyps[0].edge_indices) >= 295

    def test_custom_window_config(self):
        positions = 40.0 + 250.0 * np.arange(50)
        cfg = FoldingConfig(fold_window_periods=10.0)
        hyps = find_stream_hypotheses(edges_at(positions), [250.0],
                                      cfg)
        assert len(hyps) == 1


class TestAnalogFoldDrift:
    def test_buried_drifting_stream_found(self):
        rng = np.random.default_rng(5)
        n = 60_000
        energy = rng.exponential(1.0, n)
        period = 250.0 * (1 + 180e-6)
        k = 0
        while 137 + k * period < n - 2:
            pos = int(137 + k * period)
            energy[pos - 1: pos + 2] += 2.5
            k += 1
        hyps = analog_fold_search(energy, [250.0])
        assert len(hyps) == 1
        assert hyps[0].period_samples == pytest.approx(period,
                                                       abs=0.08)


class TestConfigEdges:
    def test_duplicate_candidate_periods_deduped(self):
        positions = 40.0 + 250.0 * np.arange(20)
        hyps = find_stream_hypotheses(edges_at(positions),
                                      [250.0, 250.0, 250.0])
        assert len(hyps) == 1


class TestCircularPeakOffsets:
    """Direct tests of the fold-histogram peak extractor."""

    def test_boundary_straddling_peak_wraps_to_zero(self):
        """A cluster split across the histogram seam (last and first
        bins) must report one offset near phase 0, not one near the
        period."""
        counts = np.zeros(10, dtype=np.int64)
        counts[9] = 3
        counts[0] = 3
        offsets = _circular_peak_offsets(counts, bin_width=4.0,
                                         min_count=4, span_bins=1)
        assert len(offsets) == 1
        period = counts.size * 4.0
        # Within one bin of the seam, measured circularly.
        dist = min(offsets[0], period - offsets[0])
        assert dist <= 4.0

    def test_offsets_stay_in_period_range(self):
        """The +0.5 bin-centre shift can push a seam centroid to
        exactly n_bins; the returned offset must stay in [0, period)."""
        counts = np.zeros(8, dtype=np.int64)
        counts[7] = 5
        counts[0] = 5
        (offset,) = _circular_peak_offsets(counts, bin_width=2.0,
                                           min_count=4, span_bins=1)
        assert 0.0 <= offset < counts.size * 2.0

    def test_wide_span_merges_drift_smear(self):
        """span_bins > 1 sums a wider circular window, so a stream
        whose drift smears its edges over three bins still registers
        as a single peak at the smear's centroid."""
        counts = np.zeros(20, dtype=np.int64)
        counts[4] = 2
        counts[5] = 6
        counts[6] = 2
        offsets = _circular_peak_offsets(counts, bin_width=3.0,
                                         min_count=8, span_bins=2)
        assert len(offsets) == 1
        assert offsets[0] == pytest.approx((5 + 0.5) * 3.0, abs=3.0)

    def test_narrow_span_splits_what_wide_span_merges(self):
        """The same smeared histogram read with span_bins=1 cannot
        gather enough counts in one window to clear the minimum."""
        counts = np.zeros(20, dtype=np.int64)
        counts[4] = 2
        counts[5] = 6
        counts[6] = 2
        assert _circular_peak_offsets(counts, bin_width=3.0,
                                      min_count=11, span_bins=1) == []

    def test_two_separated_peaks_both_reported(self):
        counts = np.zeros(24, dtype=np.int64)
        counts[3] = 7
        counts[15] = 5
        offsets = sorted(_circular_peak_offsets(counts, bin_width=1.0,
                                                min_count=4,
                                                span_bins=1))
        assert len(offsets) == 2
        assert offsets[0] == pytest.approx(3.5, abs=1.0)
        assert offsets[1] == pytest.approx(15.5, abs=1.0)

    def test_suppression_window_removes_peak_shoulder(self):
        """A single wide cluster must not be double-counted as two
        adjacent peaks: the non-overlap suppression zeroes the window
        around an extracted maximum."""
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 6
        counts[8] = 6
        offsets = _circular_peak_offsets(counts, bin_width=2.0,
                                         min_count=5, span_bins=1)
        assert len(offsets) == 1

    def test_empty_histogram(self):
        assert _circular_peak_offsets(np.zeros(0, dtype=np.int64),
                                      bin_width=2.0, min_count=1) == []
