"""Stateful session decoding: warm-start caches across epochs.

The paper's premise (Section 3.2, Figure 4) is that tags transmit
*continuously and blindly* at a stable (rate, offset) pair set by
slow-drifting comparator/capacitor physics, and that a tag's IQ-plane
geometry — its channel coefficient, hence its differential clusters and
collision lattice basis — changes on the timescale of physical motion,
not of epochs.  A cold decoder re-derives all of that every epoch; a
*session* decoder carries it forward:

* :class:`StreamTracker` persists one stream's (rate, offset)
  hypothesis, k-means centroids, collision arity, and recovered lattice
  basis (e1, e2);
* :class:`SessionState` matches trackers to fresh streams with
  drift-tolerant period/phase/geometry tests, invalidates cached state
  whenever it stops explaining the data (fit-error blowup, repeated
  misses), and evicts trackers for streams that left the session;
* :class:`~repro.core.session_decoder.SessionDecoder` (in its own
  module, lazily re-exported here) is the user-facing wrapper: an
  :class:`~repro.core.pipeline.LFDecoder` plus a session state threaded
  through every ``decode_epoch`` call.

Warm state is advisory only: every consumer verifies it against the
fresh capture (single-fold check, warm-Lloyd inertia guard, lattice
error threshold) and falls back to the cold path on mismatch, so a
stale cache costs one extra check — never a wrong decode.

This module sits *below* :mod:`repro.core.pipeline` in the import
graph (the stage modules' typing refers to the tracker/state classes
here); it must not import the pipeline at module scope —
``tools/check_import_cycles.py`` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .clustering import KMeansResult
from .collision import scatter_planarity
from .separation import _LATTICE_A, _LATTICE_B, BASIS_TOLERANCE
# Canonical home of the counter keys and the merge semantics is the
# stats layer; re-exported here for compatibility.
from .stages.stats import CACHE_STAT_KEYS, StatsAccumulator


#: Relative period mismatch under which a tracker may claim a fresh
#: stream (covers per-epoch estimation noise on top of the tag's fixed
#: ppm drift).
PERIOD_TOLERANCE = 1.5e-3
#: Offset-phase proximity, in samples, that identifies a stream whose
#: phase is stable (consecutive chunks of one capture).
PHASE_TOLERANCE_SAMPLES = 8.0
#: Relative IQ edge-vector distance used when the phase re-randomized
#: between epochs (the comparator re-fires per carrier-on, Section 3.2)
#: and only the channel geometry remains as identity.
GEOMETRY_TOLERANCE = 0.35
#: A warm k-means fit whose per-point inertia exceeds the cached fit's
#: by this factor no longer explains the data: redo cold.
INERTIA_BLOWUP = 4.0
#: Hard cap on live trackers (stalest evicted first).
MAX_TRACKERS = 256


@dataclass(frozen=True)
class SessionConfig:
    """Tuning of cross-epoch stream tracking."""

    #: Consecutive unmatched epochs before a tracker is evicted.
    max_misses: int = 2
    #: Warm-fit invalidations (without an intervening warm success)
    #: before a tracker is quarantined back to the cold path.  A cache
    #: entry that keeps failing its own verification is worse than no
    #: cache: every epoch pays the warm attempt *and* the cold redo.
    max_invalidations: int = 3

    def __post_init__(self) -> None:
        if self.max_misses < 1:
            raise ConfigurationError("max_misses must be >= 1")
        if self.max_invalidations < 1:
            raise ConfigurationError("max_invalidations must be >= 1")


@dataclass
class StreamTracker:
    """Persistent decoder state for one tracked stream.

    A "stream" is one fold-grid hypothesis: a single tag, or a pair of
    tags whose grids collided this epoch (``arity == 2``, in which case
    ``basis`` carries the recovered parallelogram).
    """

    period_samples: float
    offset_phase: float
    edge_vector: complex = 0j
    arity: int = 1
    #: IQ-plane k-means centroids of the collision detector's fits,
    #: keyed by cluster count (3 and 9).
    centroids: Dict[int, np.ndarray] = field(default_factory=dict)
    inertia_pp: Dict[int, float] = field(default_factory=dict)
    #: 1-D projection centroids of the multilevel check, keyed by k.
    proj_centroids: Dict[int, np.ndarray] = field(default_factory=dict)
    proj_inertia_pp: Dict[int, float] = field(default_factory=dict)
    #: Nine wide-guard centroids the separation basis was fitted on.
    collision_centroids: Optional[np.ndarray] = None
    basis: Optional[Tuple[complex, complex]] = None
    #: Resolved frame polarity of the (sign-pinned) projection axis —
    #: channel geometry, so it survives the per-epoch offset
    #: re-randomization and seeds the anchor stage's polarity search.
    flipped: Optional[bool] = None
    epochs_seen: int = 0
    misses: int = 0
    last_epoch: int = -1
    #: Transient per-epoch flag, reset by ``SessionState.begin_epoch``.
    matched: bool = False
    #: Consecutive warm-fit invalidations without a warm success.
    invalidations: int = 0
    #: Quarantined trackers are invisible to matching, fold hints and
    #: pair synthesis — the stream decodes cold and re-seeds a fresh
    #: tracker; the quarantined entry is dropped at epoch end.
    quarantined: bool = False

    def centroid_hints(self) -> Optional[Dict[int, np.ndarray]]:
        return dict(self.centroids) if self.centroids else None

    def proj_hints(self) -> Optional[Dict[int, np.ndarray]]:
        return dict(self.proj_centroids) if self.proj_centroids else None


def edge_signature(differentials: np.ndarray) -> complex:
    """Sign-ambiguous identity vector of a stream's differentials.

    The principal direction of the strong (edge) differentials scaled
    by their median magnitude — for a single tag this is (+/-) its edge
    vector ``e``, a function of the tag-reader channel alone and hence
    stable across epochs even though the comparator re-randomizes the
    stream's phase each carrier-on.
    """
    d = np.asarray(differentials, dtype=np.complex128).ravel()
    if d.size == 0:
        return 0j
    mags = np.abs(d)
    peak = float(mags.max())
    if peak <= 0:
        return 0j
    strong = d[mags > 0.5 * peak]
    if strong.size == 0:
        return 0j
    x = np.stack([strong.real, strong.imag])
    _, eigvecs = np.linalg.eigh(x @ x.T / strong.size)
    u = eigvecs[:, -1]
    proj = strong.real * u[0] + strong.imag * u[1]
    scale = float(np.median(np.abs(proj)))
    return complex(scale * u[0], scale * u[1])


def _signature_distance(a: complex, b: complex) -> float:
    """Relative distance between sign-ambiguous signatures."""
    ref = max(abs(a), abs(b))
    if ref <= 0:
        return float("inf")
    return min(abs(a - b), abs(a + b)) / ref


class SessionState:
    """Tracker collection plus per-epoch cache accounting."""

    def __init__(self, config: Optional[SessionConfig] = None):
        self.config = config or SessionConfig()
        self.trackers: List[StreamTracker] = []
        self.epoch_count = 0
        #: Session-lifetime totals of the per-epoch cache counters.
        self.totals: Dict[str, int] = {key: 0 for key in CACHE_STAT_KEYS}
        #: Session-lifetime totals of the per-epoch fidelity-gate
        #: counters (see :mod:`repro.core.fidelity`).
        self.fidelity_totals: Dict[str, int] = {}
        #: Trackers quarantined back to the cold path so far.
        self.n_quarantined = 0
        #: Trackers behind this epoch's ``warm_hints`` (index-aligned).
        self._hint_trackers: List[StreamTracker] = []
        #: Global sample position of the current epoch's first sample.
        #: Zero for independent epochs; chunked decoding of one long
        #: capture sets it per chunk so offset phases stay comparable
        #: across chunk boundaries (the tag keeps toggling through
        #: them, so its global phase is the stable identity there).
        self.sample_offset = 0.0
        self._phase_identity = False

    @property
    def n_trackers(self) -> int:
        return len(self.trackers)

    # -- epoch lifecycle --------------------------------------------------

    def begin_epoch(self, sample_offset: float = 0.0) -> None:
        self.sample_offset = float(sample_offset)
        # Offset phase identifies a stream only while the capture is
        # continuous: every independent epoch re-randomizes offsets
        # (comparator re-fire, Section 3.2), so a cross-epoch phase
        # coincidence is spurious — and acting on one hands the wrong
        # tracker's cache to a stream.  A non-zero sample offset is
        # exactly the "later chunk of one capture" case.
        self._phase_identity = self.sample_offset != 0.0
        for tracker in self.trackers:
            tracker.matched = False
        self._hint_trackers = [t for t in self.trackers
                               if t.misses == 0 and not t.quarantined]

    def end_epoch(self, cache_stats: Dict[str, int],
                  fidelity_stats: Optional[Dict[str, int]] = None
                  ) -> None:
        """Miss accounting + eviction, then fold counters into totals."""
        survivors: List[StreamTracker] = []
        for tracker in self.trackers:
            if tracker.quarantined:
                # Back to the cold path: the stream (if still present)
                # re-seeded a fresh tracker via ``observe`` this epoch.
                continue
            if tracker.matched:
                tracker.misses = 0
                survivors.append(tracker)
            else:
                tracker.misses += 1
                if tracker.misses < self.config.max_misses:
                    survivors.append(tracker)
        if len(survivors) > MAX_TRACKERS:
            survivors.sort(key=lambda t: (t.misses, -t.last_epoch))
            survivors = survivors[:MAX_TRACKERS]
        self.trackers = survivors
        self.epoch_count += 1
        StatsAccumulator.merge_counts(self.totals, cache_stats)
        if fidelity_stats:
            StatsAccumulator.merge_counts(self.fidelity_totals,
                                          fidelity_stats)

    # -- warm hints for the fold search -----------------------------------

    def warm_hints(self) -> List[Tuple[float, float]]:
        """(period, offset_phase) pairs for the warm fold check.

        Only trackers seen last epoch contribute: the warm fold claims
        the strongest remaining peak per iteration regardless of hint
        identity, so the hint count is a fold *budget* and should track
        the number of streams actually present, not the eviction
        backlog.
        """
        return [(t.period_samples, t.offset_phase)
                for t in self._hint_trackers]

    def hint_tracker(self, hint_index: Optional[int]
                     ) -> Optional[StreamTracker]:
        if hint_index is None or not \
                0 <= hint_index < len(self._hint_trackers):
            return None
        return self._hint_trackers[hint_index]

    # -- tracker matching -------------------------------------------------

    def match(self, period_samples: float, offset_samples: float,
              differentials: np.ndarray,
              preferred: Optional[StreamTracker] = None
              ) -> Optional[StreamTracker]:
        """Find the tracker that explains a fresh stream, if any.

        The period must agree to within :data:`PERIOD_TOLERANCE`
        (drift-tolerant: the tag's ppm error is already folded into the
        cached period); identity is then confirmed by either a stable
        offset phase (chunked captures) or — since the comparator
        re-randomizes the phase every carrier-on — by the IQ edge
        signature, which only depends on the channel.
        """
        phase = (offset_samples + self.sample_offset) % period_samples
        sig = edge_signature(differentials)

        def _score(tracker: StreamTracker) -> Optional[float]:
            if tracker.matched or tracker.quarantined:
                return None
            rel = abs(tracker.period_samples - period_samples) \
                / period_samples
            if rel > PERIOD_TOLERANCE:
                return None
            if self._phase_identity:
                gap = abs(phase - tracker.offset_phase)
                gap = min(gap, period_samples - gap)
                if gap <= PHASE_TOLERANCE_SAMPLES:
                    return gap / PHASE_TOLERANCE_SAMPLES * 1e-3
            if tracker.arity >= 2:
                # A collision tracker's identity is its *pairing*, and
                # pairings re-randomize with the offsets each epoch:
                # only a stable phase (same capture, chunked decode)
                # can re-identify it.  Its combined-lattice geometry
                # matching a fresh stream across epochs is always
                # spurious.
                return None
            dist = _signature_distance(sig, tracker.edge_vector)
            if dist <= GEOMETRY_TOLERANCE:
                return dist
            return None

        if preferred is not None:
            score = _score(preferred)
            if score is not None:
                preferred.matched = True
                return preferred
        best: Optional[StreamTracker] = None
        best_score = float("inf")
        for tracker in self.trackers:
            score = _score(tracker)
            if score is not None and score < best_score:
                best, best_score = tracker, score
        if best is not None:
            best.matched = True
        return best

    # -- cross-stream collision synthesis ---------------------------------

    def synthesize_pair(self, differentials: np.ndarray
                        ) -> Optional[Tuple[StreamTracker,
                                            StreamTracker]]:
        """Explain a two-dimensional stream as a collision of two
        *known* tags.

        Collision pairings re-randomize every epoch (offsets re-draw),
        so a fresh collision never matches a cached collision tracker —
        but its lattice basis is just the two constituents' edge
        vectors, and those are cached in the singles' trackers.  Scores
        every unmatched single-tag pair's 9-point lattice against the
        differentials; a pair that explains them within
        :data:`~repro.core.separation.BASIS_TOLERANCE` of the edge
        scale is returned for a fully warm two-way separation.
        Collinear scatters (plain singles) are rejected up front.
        """
        d = np.asarray(differentials, dtype=np.complex128).ravel()
        if d.size < 9 or scatter_planarity(d) < 0.02:
            return None
        cands = [t for t in self.trackers
                 if not t.matched and not t.quarantined
                 and t.arity == 1 and abs(t.edge_vector) > 0]
        if len(cands) < 2:
            return None
        vectors = np.array([t.edge_vector for t in cands])
        ii, jj = np.triu_indices(vectors.size, k=1)
        lattices = (_LATTICE_A[None, :] * vectors[ii, None]
                    + _LATTICE_B[None, :] * vectors[jj, None])
        sample = d if d.size <= 64 else d[:: d.size // 64][:64]
        dist = np.abs(sample[None, None, :] - lattices[:, :, None])
        # Symmetric chamfer error: every differential must sit near a
        # lattice point AND every lattice point must have support in
        # the data — the reverse direction is what rejects a wrong
        # pair whose mixed corners nothing ever visits (the greedy
        # one-to-one check inside the separator would reject it later,
        # after the expensive extraction already ran).
        forward = dist.min(axis=1).mean(axis=1)
        reverse = dist.min(axis=2).mean(axis=1)
        errors = np.maximum(forward, reverse)
        best = int(np.argmin(errors))
        a, b = cands[ii[best]], cands[jj[best]]
        scale = max(abs(a.edge_vector), abs(b.edge_vector))
        if scale <= 0 or errors[best] > BASIS_TOLERANCE * scale:
            return None
        return a, b

    def consume_pair(self, a: StreamTracker, b: StreamTracker) -> None:
        """Mark both constituents of a synthesized collision as seen.

        They produced no single streams this epoch (their edges are in
        the collision), but the tags are present and their channel
        identity must survive the collision for later epochs.
        """
        for tracker in (a, b):
            tracker.matched = True
            tracker.misses = 0
            tracker.last_epoch = self.epoch_count

    # -- state updates ----------------------------------------------------

    def observe(self, tracker: Optional[StreamTracker],
                period_samples: float, offset_samples: float,
                differentials: np.ndarray,
                fits: Optional[Dict[int, KMeansResult]] = None,
                proj_fits: Optional[Dict[int, KMeansResult]] = None,
                arity: int = 1,
                basis: Optional[Tuple[complex, complex]] = None,
                collision_centroids: Optional[np.ndarray] = None,
                flipped: Optional[bool] = None
                ) -> StreamTracker:
        """Refresh (or create) a tracker from this epoch's decode.

        Called only for streams that decoded successfully — a stream
        that failed the header gate leaves no cache entry, so nothing
        warm-starts from garbage.
        """
        phase = (offset_samples + self.sample_offset) % period_samples
        sig = edge_signature(differentials)
        if tracker is None:
            # A stream no unmatched tracker claimed is either genuinely
            # new or a ghost copy of a stream already tracked this
            # epoch (the residual re-detections _dedup_streams drops).
            # Ghosts must not spawn trackers: their hints would bloat
            # the next epoch's warm fold and steal the real stream's
            # edges.
            dup = self._find_matched_duplicate(period_samples, phase,
                                               sig)
            if dup is not None:
                return dup
            tracker = StreamTracker(period_samples=period_samples,
                                    offset_phase=phase)
            self.trackers.append(tracker)
        tracker.period_samples = period_samples
        tracker.offset_phase = phase
        tracker.edge_vector = sig
        tracker.arity = arity
        if fits:
            for k, fit in fits.items():
                tracker.centroids[k] = np.array(fit.centroids)
                tracker.inertia_pp[k] = fit.inertia \
                    / max(fit.labels.size, 1)
        if proj_fits:
            for k, fit in proj_fits.items():
                tracker.proj_centroids[k] = np.array(fit.centroids)
                tracker.proj_inertia_pp[k] = fit.inertia \
                    / max(fit.labels.size, 1)
        if arity >= 2:
            tracker.basis = basis
            if collision_centroids is not None:
                tracker.collision_centroids = \
                    np.array(collision_centroids)
        else:
            tracker.basis = None
            tracker.collision_centroids = None
            if flipped is not None:
                tracker.flipped = flipped
        tracker.matched = True
        tracker.misses = 0
        tracker.epochs_seen += 1
        tracker.last_epoch = self.epoch_count
        return tracker

    def _find_matched_duplicate(self, period_samples: float,
                                phase: float, sig: complex
                                ) -> Optional[StreamTracker]:
        """Tracker already matched this epoch that this stream copies.

        Duplicate means same period, *and* same phase *and* geometry —
        a residual re-detection of an already-decoded stream, not a
        distinct tag that merely shares timing.
        """
        for tracker in self.trackers:
            if not tracker.matched or tracker.quarantined:
                continue
            rel = abs(tracker.period_samples - period_samples) \
                / period_samples
            if rel > PERIOD_TOLERANCE:
                continue
            gap = abs(phase - tracker.offset_phase)
            gap = min(gap, period_samples - gap)
            if gap > PHASE_TOLERANCE_SAMPLES:
                continue
            if _signature_distance(sig, tracker.edge_vector) \
                    <= GEOMETRY_TOLERANCE:
                return tracker
        return None

    def note_invalidation(self, tracker: StreamTracker) -> None:
        """Record a warm-fit blowup against ``tracker``.

        After ``max_invalidations`` consecutive blowups the tracker is
        quarantined: it stops feeding hints, matching or pair synthesis,
        the stream decodes cold (re-seeding a fresh tracker), and the
        stale entry is dropped at epoch end.
        """
        tracker.invalidations += 1
        if not tracker.quarantined and \
                tracker.invalidations >= self.config.max_invalidations:
            tracker.quarantined = True
            self.n_quarantined += 1

    def note_warm_success(self, tracker: StreamTracker) -> None:
        """A warm fit passed verification: the cache explains the data."""
        tracker.invalidations = 0

    def warm_fit_blown(self, cached_inertia_pp: Dict[int, float],
                       fits: Dict[int, KMeansResult],
                       keys: Optional[Sequence[int]] = None) -> bool:
        """True when a warm fit stopped explaining the data.

        Compares a warm fit's per-point inertia against the cached fit
        it was seeded from; a blowup means the stream moved (or the
        tracker matched the wrong stream) and the cold path must rerun.
        Only the structurally meaningful cluster counts in ``keys`` are
        guarded (default: all cached ones) — an overfit count's inertia
        is noise-dominated and its ratio meaninglessly unstable.
        """
        for k, fit in fits.items():
            if keys is not None and k not in keys:
                continue
            cached = cached_inertia_pp.get(k)
            if cached is None:
                continue
            per_point = fit.inertia / max(fit.labels.size, 1)
            floor = max(cached, 1e-18)
            if per_point > INERTIA_BLOWUP * floor:
                return True
        return False
