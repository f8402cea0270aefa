"""Reliable edge detection on the combined IQ signal (Section 3.1).

Amplitude-only edge detection is brittle because the "background" — the
sum of every other tag's reflection — is large and constantly changing.
The paper's fix is to work with the complex IQ *differential*
``dS(t) = S(t+) - S(t-)``: averaging a window of samples after the
candidate edge and subtracting a window before it cancels everything
that did not change at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import constants
from ..errors import ConfigurationError, SignalError
from ..types import DetectedEdge, IQTrace
from ..utils.dsp import find_peaks_above
from .kernels import KERNELS


#: Samples averaged on each side of a candidate edge for the coarse
#: detection sweep.
DIFF_WINDOW = 4
#: Scales the median differential magnitude into a detection threshold
#: — edges are sparse, so the median tracks the noise floor.
THRESHOLD_FACTOR = 5.0
#: The threshold never drops below this fraction of the strongest
#: differential.
RELATIVE_FLOOR = 0.05
#: Duplicate detections of one transition closer than this (samples)
#: merge (see :func:`_merge_similar`).
MERGE_RADIUS = constants.EDGE_WIDTH_SAMPLES + 1


@dataclass(frozen=True)
class EdgeDetectorConfig:
    """Tuning of the edge detector.

    ``guard`` excludes the transition itself (about one edge width);
    ``min_separation`` is the closest two detected edges may sit.
    ``max_refine_window`` caps the window used when re-estimating each
    edge's differential bounded by its neighbouring edges.
    """

    guard: int = constants.EDGE_WIDTH_SAMPLES
    min_separation: int = constants.EDGE_WIDTH_SAMPLES
    max_refine_window: int = 40

    def __post_init__(self) -> None:
        if self.guard < 0:
            raise ConfigurationError("guard must be >= 0")
        if self.min_separation < 1:
            raise ConfigurationError("min_separation must be >= 1")
        if self.max_refine_window < 1:
            raise ConfigurationError("max_refine_window must be >= 1")


def refine_window_bounds(pos: np.ndarray, limits: np.ndarray, n: int,
                         guard: int, max_w: int):
    """Neighbour-bounded averaging windows for differential extraction.

    For each position, the before/after windows are clipped at the
    nearest bounding edge in ``limits`` (sorted) so averaging never
    straddles another tag's transition, capped at ``max_w`` samples
    and guarded by ``guard`` samples around the transition itself.
    Degenerate windows (no clean room before/after) fall back to a
    single sample next to the guard band, substituted in place so the
    whole extraction stays one prefix-sum gather over all positions.

    Returns ``(lo_b, hi_b, lo_a, hi_a)`` — every window non-empty.
    This planning step is shared by the per-stream
    :meth:`EdgeDetector.refine_differentials` path and the epoch
    driver's SoA-batched extraction, so both produce bit-identical
    windows.
    """
    # Nearest bounding edges strictly before / after each position.
    idx = np.searchsorted(limits, pos, side="left")
    prev_edge = np.where(idx > 0, limits[np.maximum(idx - 1, 0)], -1)
    same = limits[np.minimum(idx, limits.size - 1)] == pos
    nxt = idx + same.astype(np.int64)
    next_edge = np.where(nxt < limits.size,
                         limits[np.minimum(nxt, limits.size - 1)], n)
    # Guard against unsorted duplicate hits.
    prev_edge = np.where(prev_edge >= pos, -1, prev_edge)
    next_edge = np.where(next_edge <= pos, n, next_edge)

    # minimum/maximum chains in place of np.clip: same values, less
    # dispatch overhead on these small int arrays.
    lo_b = np.minimum(np.maximum(np.maximum(prev_edge + guard + 1,
                                            pos - guard - max_w), 0), n)
    hi_b = np.minimum(np.maximum(pos - guard, 0), n)
    lo_a = np.minimum(np.maximum(pos + guard + 1, 0), n)
    hi_a = np.minimum(np.maximum(np.minimum(next_edge - guard,
                                            pos + guard + 1 + max_w),
                                 0), n)

    bad_b = hi_b <= lo_b
    if np.any(bad_b):
        lo_b = np.where(bad_b, np.maximum(pos - guard - 1, 0), lo_b)
        hi_b = np.where(bad_b, np.maximum(pos - guard, lo_b + 1),
                        hi_b)
    bad_a = hi_a <= lo_a
    if np.any(bad_a):
        hi_a = np.where(bad_a, np.minimum(pos + guard + 2, n), hi_a)
        lo_a = np.where(bad_a, np.minimum(pos + guard + 1, hi_a - 1),
                        lo_a)
    return lo_b, hi_b, lo_a, hi_a


class EdgeDetector:
    """Extracts :class:`DetectedEdge` records from an IQ trace."""

    def __init__(self, config: Optional[EdgeDetectorConfig] = None):
        self.config = config or EdgeDetectorConfig()

    def differential_magnitude(self, trace: IQTrace) -> np.ndarray:
        """|dS(t)| sweep used for coarse edge localization.

        For each sample t this is the magnitude of
        ``mean(s[t+g .. t+g+w]) - mean(s[t-g-w .. t-g])`` computed with
        prefix sums, so the whole sweep is O(n).
        """
        cfg = self.config
        s = trace.samples
        n = s.size
        w, g = DIFF_WINDOW, max(cfg.guard // 2, 1)
        if n < 2 * (w + g) + 1:
            raise SignalError(
                f"trace of {n} samples is too short for edge detection "
                f"with window {w} and guard {g}")
        return trace.cached(("diff_magnitude", w, g),
                            lambda: self._magnitude_sweep(trace, w, g))

    def _magnitude_sweep(self, trace: IQTrace, w: int,
                         g: int) -> np.ndarray:
        n = trace.samples.size
        csum = trace.prefix_sum()
        t = np.arange(n)
        lo_b = np.clip(t - g - w, 0, n)
        hi_b = np.clip(t - g, 0, n)
        lo_a = np.clip(t + g, 0, n)
        hi_a = np.clip(t + g + w, 0, n)
        len_b = np.maximum(hi_b - lo_b, 1)
        len_a = np.maximum(hi_a - lo_a, 1)
        before = (csum[hi_b] - csum[lo_b]) / len_b
        after = (csum[hi_a] - csum[lo_a]) / len_a
        return np.abs(after - before)

    def detect(self, trace: IQTrace) -> List[DetectedEdge]:
        """Find edges and estimate each one's IQ differential vector.

        The refinement stage recomputes every differential with
        averaging windows bounded by the *neighbouring* edges, per the
        paper: "we use a set of points between the previous edge to the
        current edge as candidates for t+ ... and take the average".
        """
        cfg = self.config
        # The sweep is memoised on the trace; copy before masking.
        magnitude = self.differential_magnitude(trace).copy()
        # The first/last few samples only have clipped averaging
        # windows; their differentials are artefacts, not edges.
        margin = DIFF_WINDOW + max(cfg.guard, 1)
        magnitude[:margin] = 0.0
        magnitude[-margin:] = 0.0
        threshold = max(float(np.median(magnitude)) * THRESHOLD_FACTOR,
                        RELATIVE_FLOOR * float(np.max(magnitude)))
        positions = find_peaks_above(magnitude, threshold,
                                     cfg.min_separation)
        if positions.size == 0:
            return []
        differentials = self.refine_differentials(trace, positions)
        positions, differentials = _merge_similar(
            positions, differentials, magnitude, MERGE_RADIUS)
        return [DetectedEdge(position=int(pos), differential=complex(diff))
                for pos, diff in zip(positions, differentials)]

    def refine_differentials(self, trace: IQTrace,
                             positions: np.ndarray,
                             bounds: Optional[np.ndarray] = None
                             ) -> np.ndarray:
        """Differential vectors at ``positions`` with neighbour-bounded
        windows.

        ``bounds`` optionally supplies the full set of edge positions to
        bound windows by (defaults to ``positions`` themselves) — the
        grid reader passes the global edge list here so a window never
        straddles another tag's transition.
        """
        cfg = self.config
        s = trace.samples
        n = s.size
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.empty(0, dtype=np.complex128)
        if np.any((pos < 0) | (pos >= n)):
            raise SignalError("edge positions out of trace bounds")
        limits = np.sort(np.asarray(
            positions if bounds is None else bounds, dtype=np.int64))
        csum = trace.prefix_sum()
        lo_b, hi_b, lo_a, hi_a = refine_window_bounds(
            pos, limits, n, cfg.guard, cfg.max_refine_window)
        return KERNELS.edge_differentials(csum, lo_b, hi_b, lo_a, hi_a)


def _merge_similar(positions: np.ndarray, differentials: np.ndarray,
                   magnitude: np.ndarray, merge_radius: int,
                   similarity: float = 0.95,
                   magnitude_ratio: float = 2.5):
    """Collapse duplicate detections of the *same* transition.

    The |dS| sweep has a plateau around every real transition, so the
    peak finder can fire two or three times per edge; such duplicates
    carry nearly identical differential vectors.  Nearby detections
    whose vectors agree (normalized inner product above ``similarity``)
    are replaced by their magnitude-weighted centroid.  Nearby
    detections with *different* vectors are distinct tags' edges in a
    dense pack and are kept apart.
    """
    if merge_radius <= 0 or positions.size <= 1:
        return positions, differentials
    order = np.argsort(positions)
    pos = np.asarray(positions, dtype=np.int64)[order]
    diffs = np.asarray(differentials, dtype=np.complex128)[order]
    n = pos.size
    # The scan only ever compares *adjacent* sorted detections, so the
    # whole grouping reduces to a chain mask over consecutive pairs: a
    # pair chains when it is close, coherent, and comparable in
    # magnitude; group boundaries are the broken links.
    mag = np.abs(diffs)
    denom = mag[:-1] * mag[1:]
    coherence = np.divide(
        np.abs((np.conj(diffs[:-1]) * diffs[1:]).real),
        denom, out=np.zeros(n - 1), where=denom > 0)
    ratio = np.maximum(mag[:-1], mag[1:]) \
        / np.maximum(np.minimum(mag[:-1], mag[1:]), 1e-30)
    chain = ((pos[1:] - pos[:-1] <= merge_radius)
             & (coherence >= similarity)
             & (ratio <= magnitude_ratio))
    starts = np.concatenate([[0], np.flatnonzero(~chain) + 1])
    ends = np.concatenate([starts[1:], [n]])
    weights_all = magnitude[pos].astype(np.float64)
    totals = np.add.reduceat(weights_all, starts)
    weighted = np.add.reduceat(pos * weights_all, starts)
    mids = pos[starts + (ends - starts) // 2]
    out_pos = np.where(
        totals > 0,
        np.round(weighted / np.maximum(totals, 1e-300)).astype(np.int64),
        mids)
    # Keep the strongest member's differential for the merged edge; the
    # caller re-reads grid differentials later anyway.  A stable sort on
    # (group, -weight) puts each group's first-strongest member at the
    # group's start, matching argmax's first-max tie-break.
    group_ids = np.concatenate([[0], np.cumsum(~chain)])
    strongest = np.lexsort((-weights_all, group_ids))[starts]
    return (out_pos, diffs[strongest])

