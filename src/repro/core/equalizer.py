"""Blind FIR channel estimation and inverse-filter equalization.

The edge-differential front end (Section 3.1) assumes each antenna
transition produces one sharp step in the combined IQ signal.  A
frequency-selective channel (:mod:`repro.phy.multipath`) convolves the
tag waveform with a sparse FIR response ``h``, turning every step into
a staircase of echoes — the fold search then sees several "edges" per
transition and the bit decisions collapse.  This module recovers the
flat-channel waveform without any training sequence:

1. **Initialize** ``ĥ`` from the capture itself.  The successive
   difference of a piecewise-constant signal through an FIR channel is
   a sparse train of *scaled copies of h* (one per true edge):
   ``d[n] = sum_e a_e · h[n - n_e]``.  Normalizing the window behind
   each strong differential peak by its lag-0 value and taking a
   per-lag median across many anchors keeps the common structure (the
   channel) and rejects contamination from neighbouring edges (which
   lands at lags that vary anchor to anchor).
2. **Refine** by alternating least squares: deconvolve the capture
   with the current estimate, re-detect the edge train in the cleaned
   signal, then re-fit the taps on the *original* differential by
   solving the normal equations restricted to the initial estimate's
   support (±1 lag).  The support restriction keeps the solve small
   and prevents the spurious-tap blow-up of unconstrained
   deconvolution; one or two rounds correct the magnitude bias the
   median introduces under heavy edge overlap.
3. **Invert** with a regularized frequency-domain (Wiener)
   deconvolution, ``X · conj(H) / (|H|² + λ)``.  Unlike a direct-form
   IIR inverse this is unconditionally stable — it handles the
   non-minimum-phase channels (echo energy above the direct path)
   that real reflective geometries produce.

The whole procedure is deterministic in the input samples (no RNG)
and conservative by construction: a flat-channel capture estimates
taps only at lags 1–2 (the intrinsic edge transition shape, present
with or without multipath), which the ``MIN_ECHO_LAG`` guard
classifies as flat — the samples pass through untouched.  The stage
that wraps this module is additionally off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["EqualizerConfig", "EqualizerReport", "estimate_channel",
           "equalize"]


#: Longest channel impulse response the estimator models, in samples.
#: Longer delay spreads alias into the next edge window and go
#: uncorrected.
MAX_TAPS = 192
#: Fewest differential peaks needed before an estimate is trusted;
#: below this the stage passes the capture through.
MIN_PEAKS = 10
#: Most peaks averaged (strongest first).  The per-lag median gets more
#: robust with every extra anchor, so this is set high and effectively
#: bounded by the capture's edge count.
MAX_PEAKS = 256
#: A candidate peak must exceed this multiple of the median
#: |differential| (the noise floor) to count as an edge.  Edge steps at
#: the weakest modelled coefficients (~0.05) sit only a few multiples
#: above the differential noise floor, so this stays low and the
#: per-lag median absorbs the false anchors it admits.
PEAK_THRESHOLD = 3.0
#: A candidate must also exceed this fraction of the strongest
#: differentials (the 99.9th percentile) — keeps anchors meaningful on
#: captures whose noise floor is far below the edges.
STRONG_FRACTION = 0.25
#: An anchor must be the local |differential| maximum over this many
#: samples either side (rejects an echo masquerading as the direct tap
#: of its own edge).
PEAK_GUARD = 8
#: Taps of the initial median estimate below this fraction of the
#: direct tap are zeroed before refinement.
MIN_TAP_RATIO = 0.1
#: Alternating least-squares refinement rounds.
REFINE_ITERATIONS = 2
#: Taps of the refined estimate below this fraction of the direct tap
#: are zeroed.
REFINE_TRIM = 0.08
#: Ridge regularization of the restricted normal equations, relative to
#: the largest diagonal entry.
RIDGE = 1e-3
#: Estimated taps below this lag are the intrinsic edge transition
#: shape, not echoes; an estimate with no tap at or beyond this lag
#: reads as a flat channel and is not applied.
MIN_ECHO_LAG = 4


@dataclass(frozen=True)
class EqualizerConfig:
    """Tuning of the blind estimate / inverse-filter pre-stage."""

    #: Wiener regularization λ in ``conj(H) / (|H|² + λ)`` — trades
    #: residual echo against noise amplification.
    noise_regularization: float = 0.02

    def __post_init__(self) -> None:
        if self.noise_regularization <= 0:
            raise ConfigurationError(
                "noise_regularization must be positive")


@dataclass
class EqualizerReport:
    """What the pre-stage estimated (and whether it acted)."""

    #: True when the samples were rewritten through the inverse filter.
    applied: bool = False
    #: Why the stage passed through (``"flat"``, ``"too_few_peaks"``,
    #: ``"nonfinite"``) — empty when applied.
    reason: str = ""
    #: Differential peaks anchoring the initial estimate.
    n_peaks_used: int = 0
    #: Non-zero taps of the estimated response (1 = flat).
    n_taps: int = 0
    #: Last non-zero echo lag of the estimate, in samples.
    delay_spread_samples: int = 0
    #: Estimated echo power relative to the direct path.
    echo_energy: float = 0.0
    #: The estimated impulse response (``None`` when no estimate was
    #: formed); diagnostic only — nothing downstream reads it.
    impulse_response: Optional[np.ndarray] = field(
        default=None, repr=False)


def _edge_peaks(magnitude: np.ndarray, window: int, guard: int,
                threshold: float, max_peaks: int) -> List[int]:
    """Strong differential peaks usable as estimation anchors.

    A usable anchor is a local maximum over ``±guard`` samples above
    ``threshold`` whose trailing ``window`` fits inside the capture.
    Anchors need *not* be isolated from other edges: every anchor's
    window contains the true response at the same lags, while
    contamination from neighbouring edges lands at lags that vary
    anchor to anchor — the per-lag median across anchors keeps the
    former and rejects the latter.  Strongest anchors first (their
    lag-0 normalizer has the best SNR).
    """
    candidates = np.flatnonzero(magnitude >= threshold)
    taken: List[int] = []
    for idx in candidates[np.argsort(magnitude[candidates])[::-1]]:
        if len(taken) >= max_peaks:
            break
        lo = max(int(idx) - guard, 0)
        hi = min(int(idx) + guard + 1, magnitude.size)
        if magnitude[idx] < magnitude[lo:hi].max():
            continue
        if idx + window > magnitude.size:
            continue
        if any(abs(int(idx) - t) <= guard for t in taken):
            continue
        taken.append(int(idx))
    return taken


def _differential_threshold(magnitude: np.ndarray) -> float:
    floor = float(np.median(magnitude))
    strong = float(np.quantile(magnitude, 0.999))
    return max(PEAK_THRESHOLD * floor, STRONG_FRACTION * strong, 1e-30)


def _trim(h: np.ndarray, ratio: float) -> np.ndarray:
    """Zero taps below ``ratio`` of the direct tap, drop the tail."""
    out = h.copy()
    weak = np.abs(out) < ratio * np.abs(out[0])
    weak[0] = False
    out[weak] = 0.0
    nonzero = np.flatnonzero(np.abs(out) > 0)
    return out[:int(nonzero[-1]) + 1]


def _wiener_deconvolve(x: np.ndarray, h: np.ndarray,
                       lam: float) -> np.ndarray:
    """Regularized frequency-domain inverse, constant-padded.

    The capture starts and ends mid-carrier, so both ends are extended
    with a constant run of the boundary sample before the circular
    FFT — no synthetic edge enters the deconvolution and wrap-around
    leakage lands in the discarded padding.
    """
    pad = 4 * h.size
    left = np.full(pad, x[0], dtype=np.complex128)
    right = np.full(pad, x[-1], dtype=np.complex128)
    padded = np.concatenate([left, x, right])
    n = 1 << int(np.ceil(np.log2(padded.size + h.size)))
    spectrum = np.fft.fft(padded, n)
    response = np.fft.fft(h, n)
    gain = np.conj(response) / (np.abs(response) ** 2 + lam)
    out = np.fft.ifft(spectrum * gain)[pad:pad + x.size]
    return np.ascontiguousarray(out)


def _edge_train(samples: np.ndarray, guard: int = 4) -> np.ndarray:
    """Sparse complex edge impulses detected in a (cleaned) capture."""
    d = np.diff(samples)
    magnitude = np.abs(d)
    floor = float(np.median(magnitude))
    strong = float(np.quantile(magnitude, 0.999))
    threshold = max(3.0 * floor, 0.25 * strong, 1e-30)
    train = np.zeros_like(d)
    for idx in np.flatnonzero(magnitude >= threshold):
        lo = max(int(idx) - guard, 0)
        hi = min(int(idx) + guard + 1, magnitude.size)
        if magnitude[idx] >= magnitude[lo:hi].max():
            train[idx] = d[idx]
    return train


def _refine_taps(d: np.ndarray, initial: np.ndarray, x: np.ndarray,
                 cfg: EqualizerConfig) -> np.ndarray:
    """Alternating LS refinement of ``initial`` on support ±1 lag.

    Each round deconvolves the capture with the current estimate,
    re-detects the edge train ``a`` in the cleaned signal, and
    re-fits ``h`` by solving the normal equations of
    ``d ≈ a ⊛ h`` restricted to the initial support — the Gram
    matrix is the edge train's autocorrelation at the support lag
    differences, computed once per round via FFT.
    """
    support = sorted({int(s + o)
                      for s in np.flatnonzero(np.abs(initial) > 0)
                      for o in (-1, 0, 1) if s + o >= 0})
    h = initial
    n = 1 << int(np.ceil(np.log2(2 * d.size)))
    spectrum_d = np.fft.fft(d, n)
    for _ in range(REFINE_ITERATIONS):
        cleaned = _wiener_deconvolve(x, h, cfg.noise_regularization)
        train = _edge_train(cleaned)
        if np.count_nonzero(train) < MIN_PEAKS:
            break
        spectrum_a = np.fft.fft(train, n)
        autocorr = np.fft.ifft(np.conj(spectrum_a) * spectrum_a)
        crosscorr = np.fft.ifft(np.conj(spectrum_a) * spectrum_d)
        k = len(support)
        gram = np.empty((k, k), dtype=np.complex128)
        for i, si in enumerate(support):
            for j, sj in enumerate(support):
                gram[i, j] = autocorr[(sj - si) % n]
        rhs = np.array([crosscorr[s % n] for s in support])
        gram += RIDGE * float(np.abs(np.diag(gram)).max()) * np.eye(k)
        try:
            taps = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            break
        refined = np.zeros(support[-1] + 1, dtype=np.complex128)
        for lag, value in zip(support, taps):
            refined[lag] = value
        if abs(refined[0]) < 1e-12:
            break
        h = refined / refined[0]
    return _trim(h, REFINE_TRIM)


def estimate_channel(samples: np.ndarray,
                     config: Optional[EqualizerConfig] = None
                     ) -> EqualizerReport:
    """Blind-estimate the FIR channel behind ``samples``.

    Returns a report whose ``impulse_response`` is the normalized
    estimate (direct tap == 1) when one could be formed; ``applied``
    is left False — :func:`equalize` decides whether to act on it.
    """
    cfg = config or EqualizerConfig()
    report = EqualizerReport()
    x = np.asarray(samples, dtype=np.complex128)
    if x.size < 4 * MAX_TAPS:
        report.reason = "too_few_peaks"
        return report
    if not np.all(np.isfinite(x.real)) or \
            not np.all(np.isfinite(x.imag)):
        report.reason = "nonfinite"
        return report
    d = np.diff(x)
    magnitude = np.abs(d)
    threshold = _differential_threshold(magnitude)
    peaks = _edge_peaks(magnitude, MAX_TAPS, PEAK_GUARD, threshold,
                        MAX_PEAKS)
    report.n_peaks_used = len(peaks)
    if len(peaks) < MIN_PEAKS:
        report.reason = "too_few_peaks"
        return report
    # Each peak's trailing window is a scaled copy of h; normalizing
    # by the lag-0 value and taking a per-lag median keeps the
    # estimate robust to windows contaminated by a nearby edge.
    windows = np.stack([d[p:p + MAX_TAPS] / d[p] for p in peaks])
    initial = np.median(windows.real, axis=0) \
        + 1j * np.median(windows.imag, axis=0)
    initial[0] = 1.0
    initial = _trim(initial, MIN_TAP_RATIO)
    if initial.size > 1:
        estimate = _refine_taps(d, initial, x, cfg)
    else:
        estimate = initial
    nonzero = np.flatnonzero(np.abs(estimate) > 0)
    report.n_taps = int(nonzero.size)
    report.delay_spread_samples = int(nonzero[-1])
    report.echo_energy = float(np.sum(np.abs(estimate[1:]) ** 2))
    report.impulse_response = estimate
    if not np.any(nonzero >= MIN_ECHO_LAG):
        # Taps below MIN_ECHO_LAG are the intrinsic edge transition
        # shape — present on a flat channel too.  Nothing to undo.
        report.reason = "flat"
    return report


def equalize(samples: np.ndarray,
             config: Optional[EqualizerConfig] = None
             ) -> "Tuple[np.ndarray, EqualizerReport]":
    """Estimate the channel and, when selective, return the
    deconvolved samples.

    Always returns ``(samples_out, report)``; when ``report.applied``
    is False, ``samples_out`` **is** the input array, untouched — the
    caller can rely on object identity for the pass-through case.
    """
    cfg = config or EqualizerConfig()
    report = estimate_channel(samples, cfg)
    if report.reason or report.impulse_response is None:
        return samples, report
    x = np.asarray(samples, dtype=np.complex128)
    out = _wiener_deconvolve(x, report.impulse_response,
                             cfg.noise_regularization)
    report.applied = True
    return out, report
