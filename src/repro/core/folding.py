"""Eye-pattern folding: separating edges into streams (Section 3.2).

Tags transmit periodically at a multiple of the base rate starting at a
random offset, so all edges of one stream satisfy
``position = offset + k * period`` (within clock drift).  Folding the
detected edge positions modulo each candidate period produces sharp
peaks at stream offsets — the paper's "eye pattern" — while spurious
edges spread uniformly and are rejected.

Rate ambiguity is resolved by processing candidate rates fastest-first
and letting accepted streams *claim* their edges: a slow tag's edges
would fold into a single bin at a faster period too, but claiming
removes genuine fast streams before slow folds run, and the
consecutive-edge test (the alternating preamble guarantees back-to-back
edges at the true rate) rejects the slow-tag-as-fast-stream alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import constants
from ..errors import ConfigurationError
from ..types import DetectedEdge, StreamHypothesis


#: Fold-histogram resolution, about one edge width.
BIN_WIDTH_SAMPLES = float(constants.EDGE_WIDTH_SAMPLES)
#: Fewest folded edges that make a stream.
MIN_EDGES = 5
#: How far an edge may sit from the stream grid and still be claimed
#: (covers residual drift between consecutive edges plus edge-position
#: quantization).
MATCH_TOLERANCE_SAMPLES = constants.EDGE_WIDTH_SAMPLES + 1.0
#: Half-width, in bins, of the circular window a fold peak is summed
#: over.
PEAK_SPAN_BINS = 1
#: Drift corrections tried per candidate period.  The phase walk of a
#: tag's constant ppm error is period * ppm per bit — several samples
#: per bit at slow rates — so the fold searches a small grid of
#: corrected periods and keeps the sharpest peak.
MAX_DRIFT_PPM = 250.0
N_DRIFT_STEPS = 11


@dataclass(frozen=True)
class FoldingConfig:
    """Tuning of the stream search."""

    #: Fold only edges from the first N bit periods when seeding a
    #: stream's phase: over long traces a tag's ppm clock drift walks
    #: its phase across many samples, smearing a whole-trace fold into
    #: uselessness, while the progressive tracker has no trouble
    #: following the drift once seeded near the stream's start.
    fold_window_periods: float = 80.0


def fold_histogram(positions: np.ndarray, period: float,
                   bin_width: float) -> Tuple[np.ndarray, float]:
    """Fold ``positions`` modulo ``period``; returns (counts, bin_width).

    The actual bin width is adjusted so an integral number of bins tiles
    the period.
    """
    if period <= 0:
        raise ConfigurationError("period must be positive")
    n_bins = max(int(round(period / bin_width)), 1)
    actual_width = period / n_bins
    phases = np.mod(np.asarray(positions, dtype=np.float64), period)
    idx = np.minimum((phases / actual_width).astype(np.int64), n_bins - 1)
    return np.bincount(idx, minlength=n_bins), actual_width


def _circular_peak_offsets(counts: np.ndarray, bin_width: float,
                           min_count: int, span_bins: int = 1
                           ) -> List[float]:
    """Offsets (sample units) of local count clusters in a fold histogram.

    Sums counts over a short circular window so one stream whose edges
    straddle two bins (drift smear) still registers as a single peak,
    then greedily extracts maxima with non-overlap suppression.
    """
    n_bins = counts.size
    if n_bins == 0:
        return []
    # Circular windowed sum via one gather: window[i] =
    # sum(counts[(i+s) % n] for s in -span..span), identical to the
    # np.roll accumulation it replaces without the per-shift copies.
    shifts = np.arange(-span_bins, span_bins + 1)
    idx = (np.arange(n_bins)[None, :] + shifts[:, None]) % n_bins
    window = counts[idx].sum(axis=0, dtype=np.int64)
    offsets: List[float] = []
    remaining = window.astype(np.int64).copy()
    suppress = 2 * span_bins + 1
    while True:
        best = int(np.argmax(remaining))
        if remaining[best] < min_count:
            break
        # Centroid of counts around the peak for sub-bin offset accuracy.
        idx = np.arange(best - span_bins, best + span_bins + 1)
        local = counts[np.mod(idx, n_bins)]
        if local.sum() == 0:
            remaining[best] = 0
            continue
        centroid = float(np.sum(idx * local) / local.sum())
        # The +0.5 bin-centre shift can push a boundary-straddling
        # peak's centroid to exactly n_bins; keep offsets in [0, period)
        # by wrapping after the shift.
        offsets.append(((centroid + 0.5) % n_bins) * bin_width)
        lo = best - suppress
        hi = best + suppress + 1
        wrap = np.mod(np.arange(lo, hi), n_bins)
        remaining[wrap] = 0
    return offsets


def find_stream_hypotheses(
        edges: Sequence[DetectedEdge],
        candidate_periods: Sequence[float],
        config: Optional[FoldingConfig] = None) -> List[StreamHypothesis]:
    """Search for streams across candidate bit periods (samples).

    ``candidate_periods`` should be sorted by the caller in the order
    the search should claim edges (shortest period = fastest rate
    first); this function enforces that ordering itself for safety.
    Returns hypotheses with coarse offsets; each accepted hypothesis has
    claimed its edges so later (slower) folds do not see them.
    """
    cfg = config or FoldingConfig()
    if not candidate_periods:
        raise ConfigurationError("need at least one candidate period")
    positions = np.array([e.position for e in edges], dtype=np.float64)
    available = np.ones(positions.size, dtype=bool)
    return _search_streams(positions, available, candidate_periods, cfg)


def _search_streams(positions: np.ndarray, available: np.ndarray,
                    candidate_periods: Sequence[float],
                    cfg: FoldingConfig) -> List[StreamHypothesis]:
    """The cold fold sweep over ``candidate_periods``.

    Mutates ``available`` in place (claimed edges go False), so a
    caller that pre-claimed edges via the warm path hands the remainder
    straight to this search.
    """
    hypotheses: List[StreamHypothesis] = []

    # A non-positive period sorts first, so validating inside the single
    # pass still raises before any edge claiming happens.
    for period in sorted(set(candidate_periods)):
        if period <= 0:
            raise ConfigurationError("candidate periods must be positive")
        # Extras (collision partners sharing a grid slot) are claimed
        # only while this rate is being searched; a slower tag whose
        # edges happen to coincide with a fast stream's grid must stay
        # visible to the slower folds.
        rate_extras: List[int] = []
        _sweep_rate(positions, available, period, cfg, rate_extras,
                    hypotheses)
        if rate_extras:
            available[np.asarray(rate_extras, dtype=np.int64)] = True
    return hypotheses


def _sweep_rate(positions: np.ndarray, available: np.ndarray,
                period: float, cfg: FoldingConfig,
                rate_extras: List[int],
                hypotheses: List[StreamHypothesis]) -> None:
    """Cold fold loop at one candidate rate: claim streams until dry.

    Appends accepted hypotheses and the indices of their extra
    (slot-sharing) edges; the caller releases ``rate_extras`` once the
    whole rate — warm and cold passes alike — is done with them.
    """
    # Re-fold after every accepted stream: two tags whose offsets
    # differ by only a few samples merge into a single fold peak,
    # and the second tag only becomes visible once the first has
    # claimed its edges.
    window_end = cfg.fold_window_periods * period
    # The drift search only pays off when a tag's ppm clock error
    # walks its phase across more than one fold bin within the
    # seed window (slow rates / long windows); for short fast-rate
    # windows it would just add noise to the period estimate.
    visible_bits = min(cfg.fold_window_periods,
                       (positions.max() / period + 1.0)
                       if positions.size else 1.0)
    walk = period * MAX_DRIFT_PPM * 1e-6 * visible_bits
    if walk > 3.0 * BIN_WIDTH_SAMPLES:
        drifts = np.linspace(-MAX_DRIFT_PPM, MAX_DRIFT_PPM,
                             N_DRIFT_STEPS) * 1e-6
        drifts = drifts[np.argsort(np.abs(drifts),
                                   kind="stable")]
    else:
        drifts = np.array([0.0])
    while True:
        live = np.flatnonzero(available
                              & (positions < window_end))
        if live.size < MIN_EDGES:
            break
        # Search a drift grid: the corrected period whose fold
        # peaks sharpest seeds both the phase and the initial
        # period estimate handed to the tracker.
        best_fold = None
        for drift in drifts:
            p_corr = period * (1.0 + drift)
            counts, bin_width = fold_histogram(
                positions[live], p_corr, BIN_WIDTH_SAMPLES)
            peak = int(counts.max())
            if best_fold is None or peak > best_fold[0]:
                best_fold = (peak, counts, bin_width, p_corr)
        _, counts, bin_width, p_corr = best_fold
        accepted_any = False
        for offset in _circular_peak_offsets(counts, bin_width,
                                             MIN_EDGES, PEAK_SPAN_BINS):
            core, extras = _match_edges(positions, available, offset,
                                        p_corr, MATCH_TOLERANCE_SAMPLES)
            if core.size < MIN_EDGES:
                continue
            if not _has_consecutive(positions[core], offset, p_corr):
                continue
            available[core] = False
            available[extras] = False
            rate_extras.extend(int(i) for i in extras)
            matched = np.concatenate([core, extras])
            # Anchor the grid phase at the earliest matched edge so
            # the tracker starts where drift has accumulated least.
            first_pos = float(np.min(positions[core]))
            hypotheses.append(StreamHypothesis(
                offset_samples=first_pos % p_corr,
                period_samples=float(p_corr),
                score=float(core.size),
                edge_indices=[int(i) for i in matched]))
            accepted_any = True
            break  # re-fold the remaining edges before continuing
        if not accepted_any:
            break


def find_stream_hypotheses_warm(
        edges: Sequence[DetectedEdge],
        candidate_periods: Sequence[float],
        warm_hints: Sequence[Tuple[float, float]],
        config: Optional[FoldingConfig] = None
        ) -> Tuple[List[StreamHypothesis], List[Optional[int]], int, int]:
    """Stream search with cached (rate, offset) hypotheses tried first.

    ``warm_hints`` holds one ``(period_samples, offset_phase)`` pair per
    tracked stream from the previous epoch.  The warm phase replays the
    cold per-rate loop — fold the live edges, try the peak offsets in
    strength order, accept the first that passes the gates, re-fold —
    but each iteration folds exactly once at a cached *fitted* period
    (already drift-corrected by last epoch's least-squares track)
    instead of sweeping the drift grid, and the iteration budget is the
    hint count.  Because the structure matches the cold loop, the edge
    partition converges to the cold one on stable streams; the hint
    phase itself is *not* trusted (the comparator re-randomizes it
    every carrier-on).  After the hints at a rate run dry, the cold
    sweep continues *at that same rate* before the rate's collision
    extras are released — exactly the cold ordering — so tags that
    appeared mid-session are still acquired without re-searching edges
    the warm pass already attributed to collisions.

    Returns ``(hypotheses, sources, n_hits, n_misses)`` where
    ``sources[i]`` is the index of the hint whose period seeded
    hypothesis ``i`` (``None`` for cold finds) — an association *hint*
    for the tracker matcher, not a verified identity.
    """
    cfg = config or FoldingConfig()
    if not candidate_periods:
        raise ConfigurationError("need at least one candidate period")
    positions = np.array([e.position for e in edges], dtype=np.float64)
    available = np.ones(positions.size, dtype=bool)
    hypotheses: List[StreamHypothesis] = []
    sources: List[Optional[int]] = []
    n_hits = 0
    n_misses = 0

    # Group hints by the nearest candidate rate so edge claiming runs
    # fastest-rate-first and extras release per rate, like the cold
    # sweep.
    rates = sorted(set(p for p in candidate_periods if p > 0))
    if len(rates) != len(set(candidate_periods)):
        raise ConfigurationError("candidate periods must be positive")
    # A cached period can only deviate from its candidate rate by the
    # clock-drift budget plus track-fit noise (collision mixture fits
    # skew the most); anything farther is a stale tracker of a junk
    # stream, and folding at its period would mis-claim real streams'
    # edges into fresh junk.
    period_slack = max(3e-6 * MAX_DRIFT_PPM, 5e-4)
    by_rate: Dict[float, List[int]] = {rate: [] for rate in rates}
    for hint_idx, (period, _phase) in enumerate(warm_hints):
        if period <= 0:
            n_misses += 1
            continue
        nearest = min(rates, key=lambda r: abs(r - period))
        if abs(nearest - period) / nearest > period_slack:
            n_misses += 1  # tracker period no longer near any rate
            continue
        by_rate[nearest].append(hint_idx)

    for rate in rates:
        rate_extras: List[int] = []
        for hint_idx in by_rate[rate]:
            period = warm_hints[hint_idx][0]
            window_end = cfg.fold_window_periods * period
            live = np.flatnonzero(available & (positions < window_end))
            if live.size < MIN_EDGES:
                # Claiming only shrinks the live set; no later hint at
                # this rate can see more edges.
                n_misses += 1
                break
            counts, bin_width = fold_histogram(positions[live], period,
                                               BIN_WIDTH_SAMPLES)
            hit = False
            for offset in _circular_peak_offsets(counts, bin_width,
                                                 MIN_EDGES, PEAK_SPAN_BINS):
                core, extras = _match_edges(
                    positions, available, offset, period,
                    MATCH_TOLERANCE_SAMPLES)
                if core.size < MIN_EDGES:
                    continue
                if not _has_consecutive(positions[core], offset,
                                        period):
                    continue
                available[core] = False
                available[extras] = False
                rate_extras.extend(int(i) for i in extras)
                matched = np.concatenate([core, extras])
                first_pos = float(np.min(positions[core]))
                hypotheses.append(StreamHypothesis(
                    offset_samples=first_pos % period,
                    period_samples=float(period),
                    score=float(core.size),
                    edge_indices=[int(i) for i in matched]))
                sources.append(hint_idx)
                hit = True
                break
            if hit:
                n_hits += 1
            else:
                # The peak list only depends on the remaining edges, so
                # once no peak passes the gates, later hint folds at
                # (near-identical) periods cannot succeed either; hand
                # the remainder to the cold sweep.
                n_misses += 1
                break
        # Cold sweep at this same rate while the warm pass's collision
        # extras are still claimed: releasing them first would let the
        # sweep re-fold edges already attributed to a collision and
        # hallucinate duplicate streams the cold path never produces.
        n_before = len(hypotheses)
        _sweep_rate(positions, available, rate, cfg, rate_extras,
                    hypotheses)
        sources.extend([None] * (len(hypotheses) - n_before))
        # Mirror the cold per-rate extras release: collision partners
        # at this rate stay visible to the slower folds that follow.
        if rate_extras:
            available[np.asarray(sorted(set(rate_extras)),
                                 dtype=np.int64)] = True

    return hypotheses, sources, n_hits, n_misses


def _match_edges(positions: np.ndarray, available: np.ndarray,
                 offset: float, period: float,
                 tolerance: float):
    """Available edges on the stream grid: (core, extras) index arrays.

    ``core`` holds the best-aligned edge per grid slot (these drive the
    timing fit and are permanently claimed); ``extras`` are additional
    edges sharing a slot — collision partners at this rate, or a slower
    tag's coincident edges, which the caller releases again before
    folding slower rates.

    The stream grid is tracked progressively: the running offset
    estimate follows matched edges so slow clock drift does not
    accumulate past the tolerance (Section 4.1's 200 ppm budget).
    """
    order = np.argsort(positions)
    # Availability is read-only here, so restricting the scan to the
    # available edges up front is exact (the loop would skip the rest
    # anyway) and trims the scalar loop to the live population.
    live = order[available[order]]
    est_offset = float(offset)
    period_est = float(period)
    matched: List[int] = []
    ks: List[float] = []
    ps: List[float] = []
    extra: List[int] = []
    residuals: dict = {}  # grid slot -> (index into ks/ps, |residual|)
    # Running moments for the periodic least-squares refresh, updated
    # incrementally on every append/swap instead of re-scanning the
    # matched set (which made the refresh quadratic in stream length).
    s_k = s_p = s_kk = s_kp = 0.0
    for i, pos in zip(live.tolist(), positions[live].tolist()):
        k = round((pos - est_offset) / period_est)
        predicted = est_offset + k * period_est
        residual = abs(pos - predicted)
        if residual > tolerance:
            continue
        slot = int(k)
        track_updated = False
        if slot in residuals:
            # All edges within tolerance of the slot are claimed (a
            # colliding tag's edge must not be left to seed a junk
            # stream), but only the best-aligned edge per slot drives
            # the timing fit.
            prev_idx, prev_res = residuals[slot]
            if residual < prev_res:
                # Index-based swap: the demoted previous slot holder
                # becomes the extra, in O(1) — no list removal.
                extra.append(matched[prev_idx])
                matched[prev_idx] = i
                delta = pos - ps[prev_idx]
                s_p += delta
                s_kp += ks[prev_idx] * delta
                ps[prev_idx] = pos
                residuals[slot] = (prev_idx, residual)
                track_updated = True
            else:
                extra.append(i)
        else:
            residuals[slot] = (len(matched), residual)
            matched.append(i)
            kf = float(k)
            ks.append(kf)
            ps.append(pos)
            s_k += kf
            s_p += pos
            s_kk += kf * kf
            s_kp += kf * pos
            track_updated = True
        if not track_updated:
            continue
        if len(matched) >= 3 and len(matched) % 4 == 0:
            # Periodic least-squares refresh of (offset, period),
            # closed-form: slot indices are distinct so the normal
            # equations never degenerate, and this avoids a full
            # lstsq per refresh.
            n_fit = len(ks)
            mean_k = s_k / n_fit
            mean_p = s_p / n_fit
            skk = s_kk - n_fit * mean_k * mean_k
            skp = s_kp - n_fit * mean_k * mean_p
            new_period = skp / skk
            new_offset = mean_p - new_period * mean_k
            # Only accept a sane refit (guards against collinear noise).
            if abs(new_period - period) < 0.05 * period:
                period_est, est_offset = new_period, new_offset
        else:
            # Exponentially track the offset to absorb drift.
            est_offset += 0.25 * (pos - predicted)
    return (np.asarray(sorted(set(matched)), dtype=np.int64),
            np.asarray(sorted(set(extra) - set(matched)),
                       dtype=np.int64))


def _has_consecutive(matched_positions: np.ndarray, offset: float,
                     period: float) -> bool:
    """True when at least two matched edges sit on adjacent grid slots.

    Every genuine stream starts with an alternating preamble, so
    consecutive-slot edges always exist at the true rate; an aliased
    slower tag can only produce edges >= 2 slots apart.
    """
    if matched_positions.size < 2:
        return False
    k = np.round((np.sort(matched_positions) - offset) / period)
    return bool(np.any(np.diff(k) == 1))


def analog_fold_search(diff_energy: np.ndarray,
                       candidate_periods: Sequence[float],
                       max_drift_ppm: float = 250.0,
                       n_drift_steps: int = 9,
                       min_peak_ratio: float = 2.0) -> List[StreamHypothesis]:
    """Low-SNR stream search by folding the analog differential energy.

    Section 3.2's eye pattern in its original analog form: the
    squared differential sweep ``|dS(t)|^2`` is summed at every offset
    modulo each candidate period, so a stream whose individual edges
    are below the detection threshold still accumulates a visible fold
    peak.  A small grid of period corrections absorbs tag clock drift
    (which would otherwise smear the peak over many bins).

    Returns hypotheses with empty ``edge_indices``; the caller builds
    the stream track directly from (offset, period).
    """
    energy = np.asarray(diff_energy, dtype=np.float64)
    if energy.ndim != 1 or energy.size == 0:
        raise ConfigurationError("diff_energy must be a non-empty 1-D "
                                 "array")
    if n_drift_steps < 1:
        raise ConfigurationError("need at least one drift step")
    hypotheses: List[StreamHypothesis] = []
    t = np.arange(energy.size, dtype=np.float64)
    drifts = np.linspace(-max_drift_ppm, max_drift_ppm, n_drift_steps) \
        * 1e-6
    # Smooth over an edge width so the peak is stable.  The kernel is
    # the same for every (period, drift); build it exactly once.
    kernel = np.ones(constants.EDGE_WIDTH_SAMPLES) \
        / constants.EDGE_WIDTH_SAMPLES
    for period in sorted(set(candidate_periods)):
        if period <= 0:
            raise ConfigurationError("candidate periods must be positive")
        if energy.size < 4 * period:
            continue  # need a few folds for any averaging gain
        p_all = period * (1.0 + drifts)
        n_bins_all = np.round(p_all).astype(np.int64)
        # Scores for every drift, computed as one batched refold per
        # unique bin count (the ±ppm corrections nearly always share a
        # single bin count, so this is one refold per period in
        # practice instead of one per drift).
        ratios = np.empty(p_all.size, dtype=np.float64)
        peaks = np.empty(p_all.size, dtype=np.int64)
        for n_bins in np.unique(n_bins_all):
            rows = np.flatnonzero(n_bins_all == n_bins)
            smooth = _batched_fold_rows(energy, t, p_all[rows],
                                        int(n_bins), kernel)
            peaks[rows] = np.argmax(smooth, axis=1)
            peak_vals = smooth[np.arange(rows.size), peaks[rows]]
            medians = np.maximum(np.median(smooth, axis=1), 1e-30)
            ratios[rows] = peak_vals / medians
        best_row = int(np.argmax(ratios))
        if ratios[best_row] < min_peak_ratio:
            continue
        hypotheses.append(StreamHypothesis(
            offset_samples=float(peaks[best_row]),
            period_samples=float(p_all[best_row]),
            score=float(ratios[best_row]),
            edge_indices=[]))
    return hypotheses


def _batched_fold_rows(energy: np.ndarray, t: np.ndarray,
                       periods: np.ndarray, n_bins: int,
                       kernel: np.ndarray) -> np.ndarray:
    """Fold ``energy`` modulo each period at once; smoothed (D, n_bins).

    Each row is the per-bin mean of the analog differential energy
    folded at one drift-corrected period, smoothed circularly over an
    edge width — the inner loop body of :func:`analog_fold_search`,
    batched across the whole drift grid with a single ``bincount``.
    """
    n_rows = periods.size
    bins = np.mod(t[None, :], periods[:, None]).astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    bins += (np.arange(n_rows) * n_bins)[:, None]
    flat = bins.ravel()
    weights = np.broadcast_to(energy, (n_rows, energy.size)).ravel()
    total = n_rows * n_bins
    folded = np.bincount(flat, weights=weights, minlength=total)
    counts = np.maximum(np.bincount(flat, minlength=total), 1)
    folded = (folded / counts).reshape(n_rows, n_bins)
    # Two-sample circular pad + "same" convolution, trimmed back —
    # identical alignment to the serial np.convolve formulation.
    padded = np.concatenate([folded[:, -2:], folded, folded[:, :2]],
                            axis=1)
    return _convolve_same_rows(padded, kernel)[:, 2:-2]


def _convolve_same_rows(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Row-wise ``np.convolve(row, kernel, mode="same")`` for 2-D ``x``."""
    k = kernel.size
    if k == 1:
        return x * kernel[0]
    padded = np.pad(x, ((0, 0), (k - 1, k - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)
    full = windows @ kernel[::-1]
    start = (k - 1) // 2
    return full[:, start:start + x.shape[1]]
