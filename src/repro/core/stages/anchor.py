"""Anchor / frame-assembly stages (Section 3.4, Table 1, Section 3.5).

:func:`assemble_stream` turns one stream's scalar observations into a
:class:`~repro.types.DecodedStream` — Viterbi error correction, header
gate, anchor-bit polarity resolution — and is shared by the anchor
stage, the separation paths (each separated collider assembles here
too) and the analog fallback.  :class:`AnchorStage` is the stream
chain's terminal stage for non-collided streams; :class:`DedupStage`
is the epoch-level finisher that drops ghost duplicates.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...errors import DecodeError
from ...types import DecodedStream
from ..anchor import assemble_bits
from ..streams import StreamTrack
from .context import DecodeContext


def assemble_stream(ctx: DecodeContext, observations: np.ndarray,
                    track: StreamTrack, collided: bool,
                    edge_vector: complex = 0j,
                    flipped_hint: Optional[bool] = None
                    ) -> Optional[DecodedStream]:
    """Error-correct, gate and frame one stream's observations.

    Returns ``None`` (after recording nothing) when the header gate
    rejects the stream.  The resolved projection polarity is exposed on
    ``ctx.last_flipped`` for the session cache: it is channel geometry,
    stable across epochs.
    """
    cfg = ctx.config
    ctx.last_flipped = None
    try:
        with ctx.stats.stage("viterbi"):
            assembled = assemble_bits(
                observations,
                use_viterbi=cfg.enable_error_correction,
                decoder=ctx.viterbi,
                min_header_score=cfg.min_header_score,
                flipped_hint=flipped_hint,
                prescreen=ctx.fidelity.active)
    except DecodeError:
        return None
    ctx.last_flipped = assembled.flipped
    offset = (track.offset_samples
              + assembled.start_slot * track.period_samples)
    fs = cfg.profile.sample_rate_hz
    measured_rate = fs / track.period_samples
    nominal = min(cfg.candidate_bitrates_bps,
                  key=lambda r: abs(r - measured_rate))
    return DecodedStream(
        bits=assembled.bits,
        offset_samples=offset,
        period_samples=track.period_samples,
        bitrate_bps=nominal,
        collided=collided,
        edge_vector=edge_vector,
        confidence=assembled.header_score,
    )


class AnchorStage:
    """Assemble the (non-collided) stream and refresh its tracker."""

    name = "anchor"
    timing_key = None  # times its Viterbi core into ``viterbi``

    def run(self, ctx: DecodeContext) -> None:
        scope = ctx.stream
        hint = (scope.tracker.flipped
                if scope.trusted and scope.tracker.arity == 1 else None)
        stream = assemble_stream(ctx, scope.observations, scope.track,
                                 collided=False, flipped_hint=hint)
        if stream is not None and ctx.session is not None \
                and ctx.period_cacheable(scope.track.period_samples):
            ctx.session.observe(scope.tracker if scope.trusted else None,
                                scope.track.period_samples,
                                scope.track.offset_samples, scope.diffs,
                                fits=scope.fits,
                                proj_fits=scope.proj_fits,
                                flipped=ctx.last_flipped)
        scope.finish([stream] if stream is not None else [])


def dedup_streams(streams: List[DecodedStream],
                  offset_tolerance: float = 8.0,
                  max_disagreement: float = 0.15
                  ) -> List[DecodedStream]:
    """Drop ghost duplicates: same rate, same phase, same bits.

    Residual detections of a decoded stream occasionally assemble into
    a second copy shifted by a few samples.  A ghost decodes (nearly)
    the same bit sequence as the original, which distinguishes it from
    a genuinely distinct tag that happens to share the phase — the
    latter carries different data and must be kept.
    """
    kept: List[DecodedStream] = []
    for stream in sorted(streams,
                         key=lambda s: (-s.confidence, -s.n_bits)):
        duplicate = False
        for existing in kept:
            if existing.bitrate_bps != stream.bitrate_bps:
                continue
            period = existing.period_samples
            gap = abs(stream.offset_samples - existing.offset_samples)
            gap_mod = min(gap % period, period - gap % period)
            if gap_mod > offset_tolerance:
                continue
            n = min(existing.n_bits, stream.n_bits)
            if n == 0:
                continue
            disagreement = float(np.count_nonzero(
                existing.bits[:n] != stream.bits[:n])) / n
            if disagreement <= max_disagreement:
                duplicate = True
                break
        if not duplicate:
            kept.append(stream)
    return kept


class DedupStage:
    """Collapse ghost re-detections across the epoch's streams."""

    name = "dedup"
    timing_key = None  # negligible glue; lands in the total only

    def run(self, ctx: DecodeContext) -> None:
        ctx.result.streams = dedup_streams(ctx.result.streams)
