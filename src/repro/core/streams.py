"""Stream timing refinement and grid differential extraction.

A :class:`~repro.types.StreamHypothesis` from the fold search carries a
coarse (offset, period).  :func:`track_stream` fits the stream's true
timing — including the tag's ppm clock drift — by least squares over its
matched edges, and :func:`read_grid_differentials` then measures the IQ
differential at *every* bit boundary of the refined grid, bounded by
neighbouring edges so other tags' transitions never leak into the
averaging windows (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, DecodeError
from ..types import DetectedEdge, IQTrace, StreamHypothesis
from .edges import EdgeDetector


@dataclass
class StreamTrack:
    """Refined timing of one stream: ``position(k) = offset + k*period``.

    ``offset_samples`` refers to grid slot 0, the first bit boundary of
    the stream (the edge where the tag's first preamble bit begins).
    """

    offset_samples: float
    period_samples: float
    n_slots: int
    edge_slots: List[int] = field(default_factory=list)
    edge_indices: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.period_samples <= 0:
            raise ConfigurationError("period must be positive")
        if self.n_slots < 1:
            raise ConfigurationError("track needs at least one slot")

    def grid_positions(self) -> np.ndarray:
        """Sample positions of every bit boundary in the track."""
        return (self.offset_samples
                + np.arange(self.n_slots) * self.period_samples)


def track_stream(hypothesis: StreamHypothesis,
                 edges: Sequence[DetectedEdge],
                 n_samples: int,
                 min_edges_for_fit: int = 3) -> StreamTrack:
    """Fit the stream's exact timing from its matched edges.

    Least-squares fit of edge positions against integer grid indices
    recovers both the true offset and the drifted period (a 150 ppm
    crystal shifts late edges by several samples over an epoch — enough
    to matter, little enough that the fold already matched the edges).
    The grid is extended backwards to slot 0 nearest the trace start and
    forwards to the end of the trace so trailing constant bits are still
    read.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if not hypothesis.edge_indices:
        raise DecodeError("hypothesis has no matched edges to fit")
    positions = np.array([edges[i].position
                          for i in hypothesis.edge_indices],
                         dtype=np.float64)
    order = np.argsort(positions)
    positions = positions[order]
    sorted_indices = [hypothesis.edge_indices[int(i)] for i in order]

    period = hypothesis.period_samples
    base = positions[0]
    k = np.round((positions - base) / period)
    if positions.size >= min_edges_for_fit and np.ptp(k) > 0:
        slope, intercept = np.polyfit(k, positions, 1)
        if not 0.9 * period <= slope <= 1.1 * period:
            # Degenerate fit (e.g. all edges in two adjacent slots with
            # noise): keep the nominal period.
            slope, intercept = period, base
        period_fit, offset_fit = float(slope), float(intercept)
    else:
        period_fit, offset_fit = float(period), float(base)

    # Extend the grid back toward the trace start: the first matched
    # edge might not be the stream's very first boundary (a missed or
    # claimed edge), but a laissez-faire stream cannot begin before
    # sample 0.
    k_back = int(np.floor(offset_fit / period_fit))
    offset0 = offset_fit - k_back * period_fit
    n_slots = int(np.floor((n_samples - 1 - offset0) / period_fit)) + 1
    if n_slots < 1:
        raise DecodeError("refined grid has no slots inside the trace")
    # np.rint rounds half-to-even exactly like builtin round(), so the
    # vectorized form consumes no per-edge Python round-trips.
    edge_slots = np.rint((positions - offset0)
                         / period_fit).astype(np.int64).tolist()
    return StreamTrack(
        offset_samples=offset0,
        period_samples=period_fit,
        n_slots=n_slots,
        edge_slots=edge_slots,
        edge_indices=sorted_indices,
    )


def edge_position_array(
        all_edges: Sequence[DetectedEdge]) -> np.ndarray:
    """Sorted unique edge positions, ready for window bounding.

    Computed once per epoch and shared across every stream
    hypothesis's differential extraction (the edge list never changes
    after detection), instead of being rebuilt from a Python set per
    call.
    """
    return np.unique(np.fromiter(
        (e.position for e in all_edges), dtype=np.int64,
        count=len(all_edges)))


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d`` of two int arrays without the hash-unique pass.

    Concatenate-sort-dedup produces the identical sorted unique array;
    on the small position arrays of the extraction hot path it is
    measurably cheaper than :func:`np.union1d`.
    """
    merged = np.concatenate([a, b])
    merged.sort()
    if merged.size <= 1:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def read_grid_differentials(trace: IQTrace, track: StreamTrack,
                            all_edges: Sequence[DetectedEdge],
                            detector: Optional[EdgeDetector] = None,
                            guard_override: Optional[int] = None,
                            window_override: Optional[int] = None,
                            edge_positions: Optional[np.ndarray] = None
                            ) -> np.ndarray:
    """IQ differential vector at every bit boundary of the track.

    Slots where the tag held its state produce near-zero differentials;
    rise/fall slots produce +/- the tag's edge vector; collided slots
    produce lattice combinations.  Windows are bounded by *all* detected
    edges (any tag), so the background cancellation of Section 3.1
    holds even under heavy concurrency.

    ``edge_positions`` is an optional pre-sorted unique position array
    (see :func:`edge_position_array`) replacing the per-call rebuild
    from ``all_edges``.
    """
    det = detector or EdgeDetector()
    if guard_override is not None or window_override is not None:
        cfg = det.config
        det = EdgeDetector(replace(
            cfg,
            guard=cfg.guard if guard_override is None
            else guard_override,
            max_refine_window=cfg.max_refine_window
            if window_override is None else window_override))
    grid = np.minimum(np.maximum(
        np.rint(track.grid_positions()).astype(np.int64), 0),
        len(trace) - 1)
    if edge_positions is None:
        edge_positions = edge_position_array(all_edges)
    bounds = sorted_union(edge_positions, grid)
    return det.refine_differentials(trace, grid, bounds=bounds)


def track_from_analog(hypothesis: StreamHypothesis,
                      diff_energy: np.ndarray,
                      search_radius: int = 4,
                      strength_factor: float = 3.0) -> StreamTrack:
    """Build a stream track from an analog fold hypothesis.

    The fold gives a coarse (offset, period).  Each predicted boundary
    is snapped to the local maximum of the differential-energy sweep
    within ``search_radius``; boundaries whose energy clearly exceeds
    the noise floor become anchor points for a least-squares refit of
    the grid, which absorbs residual drift the fold's period grid did
    not capture.
    """
    energy = np.asarray(diff_energy, dtype=np.float64)
    n = energy.size
    if n == 0:
        raise ConfigurationError("diff_energy must not be empty")
    offset = hypothesis.offset_samples % hypothesis.period_samples
    period = hypothesis.period_samples
    n_slots = int(np.floor((n - 1 - offset) / period)) + 1
    if n_slots < 2:
        raise DecodeError("analog hypothesis grid has too few slots")
    floor = float(np.median(energy))
    ks: List[float] = []
    ps: List[float] = []
    for k in range(n_slots):
        predicted = offset + k * period
        lo = max(int(predicted) - search_radius, 0)
        hi = min(int(predicted) + search_radius + 1, n)
        if hi <= lo:
            continue
        local = energy[lo:hi]
        peak = int(np.argmax(local))
        if local[peak] > strength_factor * floor:
            ks.append(float(k))
            ps.append(float(lo + peak))
    if len(ks) >= 3 and np.ptp(ks) > 0:
        slope, intercept = np.polyfit(ks, ps, 1)
        if 0.9 * period <= slope <= 1.1 * period:
            period, offset = float(slope), float(intercept)
    k_back = int(np.floor(offset / period))
    offset0 = offset - k_back * period
    n_slots = int(np.floor((n - 1 - offset0) / period)) + 1
    if n_slots < 1:
        raise DecodeError("refined analog grid has no slots")
    return StreamTrack(offset_samples=offset0, period_samples=period,
                       n_slots=n_slots)
