"""The shared decode context, the Stage protocol, and the stage runner.

The paper's decoder is a chain of stages (Fig. 3): edge detection →
eye-pattern folding → collision detection → parallelogram separation →
Viterbi → anchor.  Each stage is a module in this package implementing
the small :class:`Stage` protocol — a ``name`` plus ``run(ctx)`` over
one shared :class:`DecodeContext` that carries the trace, the decoder
configuration, the fidelity policy, the (optional) session warm-start
state and a single :class:`~repro.core.stages.stats.StatsAccumulator`.

:class:`StageRunner` applies the cross-cutting concerns uniformly so
stage modules contain only paper logic:

* **timing** — epoch-level stages with a ``timing_key`` are timed into
  that stage bucket by the runner; per-stream stages time their hot
  sub-blocks themselves (the ``extract`` / ``detect`` / ``separate`` /
  ``viterbi`` buckets accumulate across every stream hypothesis, which
  a whole-stage timer could not reproduce);
* **fault confinement** — a per-stream stage that raises degrades only
  its own stream hypothesis into a :class:`~repro.types.StreamFault`;
  the remaining hypotheses still decode;
* **observability** — :class:`StageObserver` callbacks fire around
  every stage invocation and on every confined fault.  Observers are
  read-only taps: attaching one must not change decode output (pinned
  by the golden-digest equivalence tests).

This module sits below ``session.py`` and ``pipeline.py`` in the
import graph and must not import either at runtime (typing-only
imports are fine); ``tools/check_import_cycles.py`` enforces this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Protocol,
                    Sequence, Tuple, runtime_checkable)

import numpy as np

from ...errors import ConfigurationError, DecodeError
from ...types import (DecodedStream, DetectedEdge, EpochResult,
                      IQTrace, StreamFault, StreamHypothesis)
from ..clustering import SUBSAMPLE_SEED, KMeansResult
from ..collision import CollisionReport
from ..folding import MAX_DRIFT_PPM
from ..streams import StreamTrack
from .stats import StatsAccumulator

if TYPE_CHECKING:  # typing only — no runtime import cycle
    from ..edges import EdgeDetector
    from ..fidelity import FidelityPolicy
    from ..session import SessionState, StreamTracker
    from ..viterbi import ViterbiDecoder

#: Cap on the bit-period-scaled differential averaging window
#: (``LFDecoderConfig.refine_window_fraction``): keeps dense traces
#: tractable.
REFINE_WINDOW_CAP = 2000


@dataclass
class StreamScope:
    """Mutable per-stream state threaded through the stream stages.

    One scope lives for the decode of one fold-grid hypothesis; the
    stream-level stages (tracking → collision → separation → anchor)
    read and refine it in order.  ``done`` short-circuits the rest of
    the chain once a stage fully resolved the stream (e.g. a two-way
    separation that produced both colliders).
    """

    hypothesis: StreamHypothesis
    #: Warm-fold hint index that produced the hypothesis (None = cold).
    source: Optional[int] = None
    #: Tracker suggested by the fold hint, tried first when matching.
    preferred: Optional["StreamTracker"] = None
    track: Optional[StreamTrack] = None
    diffs: Optional[np.ndarray] = None
    tracker: Optional["StreamTracker"] = None
    #: Warm trust is per-stream and revocable: the first warm fit that
    #: stops explaining the data drops the stream onto the cold path.
    trusted: bool = False
    fast_single: bool = False
    fits: Dict[int, KMeansResult] = field(default_factory=dict)
    report: Optional[CollisionReport] = None
    observations: Optional[np.ndarray] = None
    proj_scale: float = 0.0
    proj_fits: Dict[int, KMeansResult] = field(default_factory=dict)
    multilevel: Optional[bool] = None
    #: Decoded output of this hypothesis (0, 1 or 2 streams).
    streams: List[DecodedStream] = field(default_factory=list)
    done: bool = False

    def finish(self, streams: Sequence[DecodedStream]) -> None:
        """Resolve the stream with ``streams`` and stop the chain."""
        self.streams = list(streams)
        self.done = True


class DecodeContext:
    """Everything one epoch's decode reads and writes, in one object.

    The context replaces the N keyword arguments that used to be
    re-threaded through ``pipeline.py`` / ``session.py`` /
    ``engine.py``: stages receive the capture (``trace``), the decoder
    configuration, shared helpers (edge detector, Viterbi decoder,
    RNGs), the optional session warm-start state, the unified
    :class:`StatsAccumulator`, and the :class:`EpochResult` being
    assembled.
    """

    def __init__(self, trace: IQTrace, config,
                 rng: np.random.Generator,
                 edge_detector: "EdgeDetector",
                 viterbi: "ViterbiDecoder",
                 fidelity: "FidelityPolicy",
                 stats: StatsAccumulator,
                 session: Optional["SessionState"] = None,
                 sample_offset: float = 0.0):
        self.trace = trace
        self.config = config
        self.rng = rng
        self.edge_detector = edge_detector
        self.viterbi = viterbi
        self.fidelity = fidelity
        self.stats = stats
        self.session = session
        self.sample_offset = sample_offset
        self.result = EpochResult(duration_s=trace.duration_s)
        #: The runner executing this context's decode — set by the
        #: decoder before the epoch starts.  Epoch-level driver stages
        #: use it to push stream hypotheses through the stream chain.
        self.runner: Optional["StageRunner"] = None
        #: Epoch-level short-circuit (guard rejection, zero edges).
        self.done = False
        #: Sorted unique edge positions of the epoch, filled by the
        #: stream driver's batched extraction pre-pass and reused by
        #: every later re-extraction (the edge list is immutable once
        #: detection ran).
        self.edge_positions: Optional[np.ndarray] = None
        # -- inter-stage working state --------------------------------
        self.edges: List[DetectedEdge] = []
        self.hypotheses: List[StreamHypothesis] = []
        self.sources: List[Optional[int]] = []
        #: Scope of the stream hypothesis currently being decoded.
        self.stream: Optional[StreamScope] = None
        #: Resolved projection polarity of the last assembled stream
        #: (exposed for the session cache; channel geometry).
        self.last_flipped: Optional[bool] = None

    # -- derived helpers ---------------------------------------------------

    def candidate_periods(self) -> List[float]:
        """Candidate bit periods in samples, shortest (fastest) first."""
        fs = self.config.profile.sample_rate_hz
        return sorted(fs / rate
                      for rate in set(self.config.candidate_bitrates_bps))

    def period_cacheable(self, period_samples: float) -> bool:
        """Whether a fitted period is plausible enough to track.

        A real stream's fitted period sits within the clock-drift
        budget of a candidate rate (plus margin for collision mixture
        fits, which skew the most).  Junk hypotheses assembled from
        claim residue fit exotic periods — caching those would seed
        next epoch's warm fold with self-perpetuating garbage.
        """
        slack = max(3e-6 * MAX_DRIFT_PPM, 5e-4)
        return any(abs(period_samples - cand) / cand <= slack
                   for cand in self.candidate_periods())

    def refine_window(self, track: StreamTrack) -> int:
        """Averaging window for this stream's differentials."""
        cfg = self.config
        base = self.edge_detector.config.max_refine_window
        scaled = int(track.period_samples * cfg.refine_window_fraction)
        return max(base, min(scaled, REFINE_WINDOW_CAP))

    def track_rng(self, track: StreamTrack) -> np.random.Generator:
        """Deterministic per-track generator for adaptive decision fits.

        The multilevel check and the collinear split sit on marginal
        k-means fits whose outcome can depend on the initialization
        draw.  Under the shared decoder RNG that draw depends on the
        entire path history — a warm (session) decode and a cold decode
        of the *same physical stream* reach it with different generator
        states and can resolve a borderline split differently, breaking
        the warm-bits == cold-bits invariant.  Seeding from the track's
        quantized timing makes those fits a function of the stream
        alone.  The offset quantum (16 samples) absorbs the sub-sample
        jitter between warm and cold track estimates.
        """
        return np.random.default_rng(
            (SUBSAMPLE_SEED,
             int(round(track.period_samples)),
             int(round(track.offset_samples / 16.0))))

    def bump(self, key: str) -> None:
        """Increment a warm-cache counter (no-op for cold decodes)."""
        self.stats.bump(key)


@runtime_checkable
class Stage(Protocol):
    """One composable unit of the decode pipeline.

    ``run`` mutates the shared :class:`DecodeContext` (and, for
    stream-level stages, ``ctx.stream``); it returns nothing.
    ``timing_key`` names the ``stage_timings`` bucket the runner times
    the whole invocation into — ``None`` for stages that time their
    own hot sub-blocks at finer grain.
    """

    name: str
    timing_key: Optional[str]

    def run(self, ctx: DecodeContext) -> None: ...


class StageObserver:
    """Read-only callback interface around stage execution.

    Subclass and override what you need; the default implementation
    ignores everything, so observers stay forward-compatible when new
    hooks are added.  Observers must not mutate the context — they are
    the seam tracing/metrics (and tests pinning observation as
    zero-cost) plug into.
    """

    def on_stage_start(self, stage: "Stage",
                       ctx: DecodeContext) -> None:
        """Called before ``stage.run`` (epoch- and stream-level)."""

    def on_stage_end(self, stage: "Stage", ctx: DecodeContext,
                     elapsed_s: float) -> None:
        """Called after ``stage.run`` returned (not on exceptions)."""

    def on_stream_fault(self, fault: StreamFault,
                        ctx: DecodeContext) -> None:
        """Called when a stream hypothesis is confined to a fault."""


def stream_fault(hypothesis, stage: str, exc: BaseException,
                 expected: bool) -> StreamFault:
    """A :class:`StreamFault` record for an abandoned hypothesis."""
    return StreamFault(
        offset_samples=float(getattr(hypothesis, "offset_samples", 0.0)),
        period_samples=float(getattr(hypothesis, "period_samples", 0.0)),
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        expected=expected)


class StageRunner:
    """Executes stage lists over a context, uniformly.

    The runner owns the three cross-cutting behaviours every stage
    would otherwise re-implement: per-stage timing (for stages that
    declare a ``timing_key``), observer dispatch, and — for the
    stream-level chain — fault confinement, so one mis-modeled stream
    degrades into a :class:`StreamFault` instead of aborting the epoch.
    """

    def __init__(self, epoch_stages: Sequence[Stage],
                 stream_stages: Sequence[Stage],
                 observers: Sequence[StageObserver] = ()):
        self.epoch_stages: Tuple[Stage, ...] = tuple(epoch_stages)
        self.stream_stages: Tuple[Stage, ...] = tuple(stream_stages)
        self.observers: List[StageObserver] = list(observers)

    def _run_stage(self, stage: Stage, ctx: DecodeContext) -> None:
        observers = self.observers
        if not observers:
            if stage.timing_key is not None:
                with ctx.stats.stage(stage.timing_key):
                    stage.run(ctx)
            else:
                stage.run(ctx)
            return
        for observer in observers:
            observer.on_stage_start(stage, ctx)
        start = time.perf_counter()
        if stage.timing_key is not None:
            with ctx.stats.stage(stage.timing_key):
                stage.run(ctx)
        else:
            stage.run(ctx)
        elapsed = time.perf_counter() - start
        for observer in observers:
            observer.on_stage_end(stage, ctx, elapsed)

    def run_epoch(self, ctx: DecodeContext) -> DecodeContext:
        """Run the epoch-level stage list (stops when ``ctx.done``)."""
        for stage in self.epoch_stages:
            if ctx.done:
                break
            self._run_stage(stage, ctx)
        return ctx

    def run_stream(self, ctx: DecodeContext,
                   scope: StreamScope) -> List[DecodedStream]:
        """Decode one stream hypothesis through the stream stages.

        Exceptions are confined to the hypothesis: routine gate
        failures (``DecodeError`` / ``ConfigurationError``) record an
        *expected* fault, anything else an unexpected one — either
        way the epoch's remaining hypotheses still decode.
        """
        ctx.stream = scope
        try:
            for stage in self.stream_stages:
                if scope.done:
                    break
                self._run_stage(stage, ctx)
        except (DecodeError, ConfigurationError) as exc:
            # Routine abandonment: a junk hypothesis that failed a
            # gate.  Recorded for observability, not degradation.
            self._fault(ctx, stream_fault(scope.hypothesis, "decode",
                                          exc, expected=True))
            return []
        except Exception as exc:  # noqa: BLE001 — fault isolation
            # One mis-modeled stream must not abort the epoch: the
            # other hypotheses still decode, and the failure is
            # reported instead of raised.
            self._fault(ctx, stream_fault(scope.hypothesis, "decode",
                                          exc, expected=False))
            return []
        finally:
            ctx.stream = None
        return scope.streams

    def _fault(self, ctx: DecodeContext, fault: StreamFault) -> None:
        ctx.stats.note_fault(fault)
        for observer in self.observers:
            observer.on_stream_fault(fault, ctx)
