"""Trace guard: validate and repair a capture before decoding it.

:func:`sanitize_trace` is the decode path's front door.  It inspects a
raw capture for the impairments a commodity receiver actually produces
and applies a conservative repair policy:

* **non-finite runs** (NaN/Inf) — short interior gaps are linearly
  interpolated (no artificial edges: a straight line has zero
  differential except at its ends, which sit inside the excluded
  guard); long runs are *excised* by keeping the longest clean
  contiguous region, with the sanitized-to-original index mapping
  recorded in the health report so downstream offsets stay meaningful;
* **ADC saturation** — runs pinned at the I/Q rails are detected and
  reported (clipping destroys information; there is nothing honest to
  repair), rejecting only when most of the capture is pinned;
* **flat-lines** — an (almost) constant capture means no receiver was
  listening; it is rejected outright rather than decoded into noise.

A clean capture passes through untouched — the *same* trace object is
returned, so derived-array caches survive and decode output is
bit-identical to an unguarded decode.  Unrepairable captures raise a
structured :class:`~repro.errors.SignalQualityError` subclass carrying
the implicated sample fraction and the partial health report
(``exc.health``), which :meth:`LFDecoder.decode_epoch` turns into an
empty-but-honest :class:`~repro.types.EpochResult` instead of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import (ConfigurationError, FlatlineSignalError,
                      NonFiniteSignalError, SaturatedSignalError)
from ..types import IQTrace

__all__ = ["GuardConfig", "TraceHealth", "sanitize_trace"]


#: Relative tolerance for "pinned at the rail" detection.
RAIL_TOLERANCE = 1e-9
#: Shortest pinned run that counts as clipping (isolated extreme
#: samples are legitimate noise peaks).
MIN_CLIP_RUN = 4
#: Clipped-sample fraction above which the health is flagged.
CLIP_FLAG_FRACTION = 1e-3
#: Clipped-sample fraction above which the capture is rejected.
CLIP_REJECT_FRACTION = 0.5
#: Peak-to-peak spread (relative to the sample scale) below which the
#: capture counts as a flat-line.
FLATLINE_RELATIVE_SPREAD = 1e-12


@dataclass(frozen=True)
class GuardConfig:
    """Tuning of the trace guard's repair/reject policy."""

    #: Longest non-finite run repaired by linear interpolation; longer
    #: runs partition the trace and the longest clean region survives.
    max_interp_gap: int = 64
    #: Non-finite sample fraction above which the capture is rejected.
    max_bad_fraction: float = 0.5
    #: Shortest sanitized trace worth decoding (else reject).
    min_usable_samples: int = 32

    def __post_init__(self) -> None:
        if self.max_interp_gap < 1:
            raise ConfigurationError("max_interp_gap must be >= 1")
        if not 0 < self.max_bad_fraction <= 1:
            raise ConfigurationError(
                "max_bad_fraction must be in (0, 1]")
        if self.min_usable_samples < 2:
            raise ConfigurationError(
                "min_usable_samples must be >= 2")


@dataclass
class TraceHealth:
    """What the guard found (and did) to one capture.

    ``origin_start`` maps sanitized sample indices back to the original
    capture: sanitized index ``i`` is original index
    ``origin_start + i`` (the guard only ever keeps one contiguous
    region, so the map is a single offset plus the interpolated spans
    listed in ``repaired_spans``).
    """

    n_samples: int
    verdict: str = "clean"        # "clean" | "degraded" | "rejected"
    n_nonfinite: int = 0
    n_interpolated: int = 0
    n_excised: int = 0
    n_clipped: int = 0
    origin_start: int = 0
    #: Sanitized-coordinate (start, stop) spans filled by interpolation.
    repaired_spans: List[Tuple[int, int]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_original_index(self, sanitized_index: int) -> int:
        """Original-capture index of a sanitized sample."""
        return self.origin_start + int(sanitized_index)

    @property
    def is_clean(self) -> bool:
        return self.verdict == "clean"


def _runs_of(mask: np.ndarray) -> List[Tuple[int, int]]:
    """(start, stop) runs of True in a boolean mask."""
    if not mask.any():
        return []
    padded = np.concatenate([[False], mask, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(changes[0::2].tolist(), changes[1::2].tolist()))


def _pinned_run_count(channel: np.ndarray) -> int:
    """Samples pinned at this channel's rails in runs >= MIN_CLIP_RUN.

    Detection is only meaningful on a noisy channel: receiver noise
    jitters every sample, so a run of samples repeating the extreme
    value to within ``RAIL_TOLERANCE`` cannot happen unless the ADC
    clipped them.  A noiseless synthetic capture (zero successive
    difference during holds) legitimately repeats its peak level and
    is skipped outright.
    """
    magnitude = np.abs(channel)
    rail = float(magnitude.max(initial=0.0))
    if rail <= 0 or channel.size < 2:
        return 0
    pinned = magnitude >= rail * (1.0 - RAIL_TOLERANCE)
    # Estimate the noise floor away from the rails: inside a clipped
    # run every successive difference is exactly zero, so including
    # the run would let heavy clipping hide its own evidence.
    off_rail = ~(pinned[:-1] | pinned[1:])
    diffs = np.abs(np.diff(channel))[off_rail]
    if diffs.size == 0:
        return 0  # everything pinned: the flat-line check owns this
    noise_floor = float(np.median(diffs))
    if noise_floor <= rail * RAIL_TOLERANCE:
        return 0
    total = 0
    for start, stop in _runs_of(pinned):
        if stop - start >= MIN_CLIP_RUN:
            total += stop - start
    return total


def _detect_quality(samples: np.ndarray, health: TraceHealth) -> None:
    """Flag clipping and flat-lines on finite samples (reject extremes)."""
    real, imag = samples.real, samples.imag
    scale = max(float(np.max(np.abs(real), initial=0.0)),
                float(np.max(np.abs(imag), initial=0.0)), 1e-30)
    spread = float(real.max() - real.min()) \
        + float(imag.max() - imag.min())
    if spread <= FLATLINE_RELATIVE_SPREAD * scale:
        health.verdict = "rejected"
        health.notes.append("flat-line capture")
        error = FlatlineSignalError(
            1.0, "capture is constant: no signal reached the receiver")
        error.health = health
        raise error
    n_clipped = _pinned_run_count(real) + _pinned_run_count(imag)
    fraction = n_clipped / (2.0 * samples.size)
    health.n_clipped = n_clipped
    if fraction > CLIP_REJECT_FRACTION:
        health.verdict = "rejected"
        health.notes.append("saturated capture")
        error = SaturatedSignalError(
            fraction, f"{100.0 * fraction:.1f}% of samples pinned at "
            "the ADC rails")
        error.health = health
        raise error
    if fraction > CLIP_FLAG_FRACTION:
        health.verdict = "degraded"
        health.notes.append(
            f"clipping: {n_clipped} rail-pinned samples")


def _usable_region(bad: np.ndarray,
                   config: GuardConfig) -> Tuple[int, int]:
    """Longest contiguous region free of long non-finite runs."""
    boundaries = [(start, stop) for start, stop in _runs_of(bad)
                  if stop - start > config.max_interp_gap]
    if not boundaries:
        return 0, bad.size
    best = (0, 0)
    cursor = 0
    for start, stop in boundaries:
        if start - cursor > best[1] - best[0]:
            best = (cursor, start)
        cursor = stop
    if bad.size - cursor > best[1] - best[0]:
        best = (cursor, bad.size)
    return best


def sanitize_trace(trace: IQTrace,
                   config: Optional[GuardConfig] = None
                   ) -> Tuple[IQTrace, TraceHealth]:
    """Validate ``trace`` and repair what is repairable.

    Returns ``(sanitized_trace, health)``.  A clean capture returns the
    *same* trace object (caches intact, decode bit-identical); a
    repairable one returns a new finite trace plus a ``degraded``
    health report; an unrepairable one raises a
    :class:`~repro.errors.SignalQualityError` subclass with the partial
    health report attached as ``exc.health``.
    """
    cfg = config or GuardConfig()
    samples = trace.samples
    health = TraceHealth(n_samples=int(samples.size))
    bad = ~(np.isfinite(samples.real) & np.isfinite(samples.imag))
    n_bad = int(np.count_nonzero(bad))
    if n_bad == 0:
        _detect_quality(samples, health)
        return trace, health

    health.n_nonfinite = n_bad
    health.verdict = "degraded"
    fraction = n_bad / samples.size
    if fraction >= cfg.max_bad_fraction:
        health.verdict = "rejected"
        health.notes.append("non-finite beyond repair budget")
        error = NonFiniteSignalError(
            fraction, f"{100.0 * fraction:.1f}% of samples are "
            "non-finite (budget "
            f"{100.0 * cfg.max_bad_fraction:.0f}%)")
        error.health = health
        raise error

    start, stop = _usable_region(bad, cfg)
    region_bad = bad[start:stop]
    if region_bad.size == 0 or region_bad.all():
        stop = start
    else:
        # Trim short non-finite runs touching the region edges: there
        # is no second anchor point to interpolate toward.
        if region_bad[0]:
            start += int(np.argmax(~region_bad))
            region_bad = bad[start:stop]
        if region_bad[-1]:
            stop -= int(np.argmax(~region_bad[::-1]))
            region_bad = bad[start:stop]
    health.origin_start = start
    health.n_excised = int(samples.size - (stop - start))
    if stop - start < cfg.min_usable_samples:
        health.verdict = "rejected"
        health.notes.append("no usable region survives excision")
        error = NonFiniteSignalError(
            fraction, "longest clean region is "
            f"{max(stop - start, 0)} samples "
            f"(need {cfg.min_usable_samples})")
        error.health = health
        raise error

    region = np.array(samples[start:stop], dtype=np.complex128,
                      copy=True)
    if region_bad.any():
        good = np.flatnonzero(~region_bad)
        holes = np.flatnonzero(region_bad)
        region[holes] = (
            np.interp(holes, good, region.real[good])
            + 1j * np.interp(holes, good, region.imag[good]))
        health.n_interpolated = int(holes.size)
        health.repaired_spans = _runs_of(region_bad)
    if health.n_excised:
        health.notes.append(
            f"excised {health.n_excised} samples outside the longest "
            f"clean region [{start}, {stop})")
    if health.n_interpolated:
        health.notes.append(
            f"interpolated {health.n_interpolated} samples across "
            f"{len(health.repaired_spans)} gaps")

    repaired = IQTrace(
        samples=region, sample_rate_hz=trace.sample_rate_hz,
        start_time_s=trace.start_time_s + start / trace.sample_rate_hz)
    _detect_quality(repaired.samples, health)
    return repaired, health
