"""The blind equalizer pre-stage: estimation, gating, and bit-safety.

Three contracts, in increasing strictness:

* **estimator** — on a synthetic piecewise-constant waveform through a
  known FIR channel, ``estimate_channel`` finds taps at the true echo
  lags; on a flat channel it refuses with ``reason="flat"``.
* **pass-through** — ``equalize`` on flat or unusable input returns
  the *same object* (the stage then leaves the decode bit-identical);
  with ``enable_equalizer=False`` (the default) the stage contributes
  neither samples, timings, nor a report — pinned elsewhere by the
  golden digests.
* **recovery** — on a corridor-multipath capture the equalized decode
  beats the baseline decode (the reason the stage exists).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.throughput import score_epoch
from repro.core.equalizer import (EqualizerConfig, EqualizerReport,
                                  equalize, estimate_channel)
from repro.errors import ConfigurationError
from repro.phy.multipath import MultipathProfile, apply_multipath
from repro.robustness.impairments import MultipathChannel, impair_capture

from ...conftest import build_decoder, build_network

SAMPLES_PER_BIT = 250


def _piecewise_constant(n_edges=300, seed=0, noise=0.01):
    """A backscatter-like waveform: random levels, bit-length runs."""
    rng = np.random.default_rng(seed)
    levels = (rng.choice([0.3, 0.5, 0.7], size=n_edges)
              + 1j * rng.choice([0.2, 0.4], size=n_edges))
    samples = np.repeat(levels, SAMPLES_PER_BIT)
    samples = samples + noise * (
        rng.normal(size=samples.size)
        + 1j * rng.normal(size=samples.size))
    return samples


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EqualizerConfig(noise_regularization=0.0)


def test_flat_channel_refused_as_flat():
    report = estimate_channel(_piecewise_constant())
    assert report.reason == "flat"
    assert not report.applied


def test_nonfinite_input_refused():
    samples = _piecewise_constant()
    samples[100] = np.nan
    report = estimate_channel(samples)
    assert report.reason == "nonfinite"


def test_estimator_finds_true_echo_lags():
    true = MultipathProfile(delays_samples=(0, 40, 90),
                            gains=(1.0, 0.45, 0.3))
    channel = apply_multipath(_piecewise_constant(), true)
    report = estimate_channel(channel)
    assert report.reason == ""
    assert report.impulse_response is not None
    h = report.impulse_response
    # Direct tap normalized, echoes recovered near the true lags with
    # roughly the right magnitudes.
    assert h[0] == pytest.approx(1.0)
    for lag, gain in ((40, 0.45), (90, 0.3)):
        window = np.abs(h[lag - 1:lag + 2])
        assert window.max() == pytest.approx(gain, abs=0.15)
    assert report.delay_spread_samples >= 85


def test_equalize_inverts_a_known_channel():
    clean = _piecewise_constant(seed=3)
    true = MultipathProfile(delays_samples=(0, 60, 150),
                            gains=(1.0, 0.5, 0.35))
    channel = apply_multipath(clean, true)
    out, report = equalize(channel)
    assert report.applied
    # Deconvolution restores the waveform far closer to the clean
    # original than the echo-distorted input was.
    err_before = np.mean(np.abs(channel - clean) ** 2)
    err_after = np.mean(np.abs(out - clean) ** 2)
    assert err_after < 0.2 * err_before


def test_passthrough_returns_input_object():
    samples = _piecewise_constant(seed=5)
    out, report = equalize(samples)
    assert out is samples
    assert not report.applied
    assert report.reason == "flat"


def test_disabled_stage_is_absent_from_decode(fast_profile,
                                              four_tag_capture):
    decoder = build_decoder(fast_profile)
    result = decoder.decode_epoch(four_tag_capture.trace)
    assert result.equalizer is None
    assert "equalize" not in result.stage_timings


def test_enabled_stage_reports_flat_passthrough(fast_profile,
                                                four_tag_capture):
    baseline = build_decoder(fast_profile).decode_epoch(
        four_tag_capture.trace)
    decoder = build_decoder(fast_profile, enable_equalizer=True)
    result = decoder.decode_epoch(four_tag_capture.trace)
    report = result.equalizer
    assert isinstance(report, EqualizerReport)
    assert not report.applied
    assert report.reason == "flat"
    assert "equalize" in result.stage_timings
    # Flat-channel decodes are identical with the stage enabled: the
    # pass-through hands the very same trace downstream.
    assert [s.period_samples for s in result.streams] == \
        [s.period_samples for s in baseline.streams]


def test_equalizer_recovers_hallway_multipath(fast_profile):
    sim = build_network(6, fast_profile, seed=42)
    capture = sim.run_epoch(0.01)
    impaired = impair_capture(
        capture, [MultipathChannel(preset="hallway")], rng=42)

    base = build_decoder(fast_profile).decode_epoch(impaired.trace)
    eq_decoder = build_decoder(fast_profile, enable_equalizer=True)
    equalized = eq_decoder.decode_epoch(impaired.trace)

    assert equalized.equalizer.applied
    gp_base = score_epoch(impaired, base).goodput_fraction
    gp_eq = score_epoch(impaired, equalized).goodput_fraction
    assert gp_eq > gp_base
    assert gp_eq >= 0.85
