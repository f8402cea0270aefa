"""Lifecycle tests for the cross-epoch session decoder caches.

Covers the three ways a :class:`StreamTracker` can be wrong and what
the session does about each: a tag that *appears* mid-session (no
tracker — cold pickup), a tag that *disappears* (tracker evicted after
``max_misses`` unmatched epochs), and a tag whose timing *drifts*
beyond ``PERIOD_TOLERANCE`` (tracker refuses the match; the stream is
re-acquired cold under a fresh tracker).  The warm path must stay an
optimization, never an oracle: on stable streams its bits match a cold
decoder's exactly.
"""

import numpy as np
import pytest

from repro.core import LFDecoder, LFDecoderConfig, SessionDecoder
from repro.core.session import (PERIOD_TOLERANCE, SessionConfig,
                                SessionState, StreamTracker,
                                CACHE_STAT_KEYS)
from repro.errors import ConfigurationError
from repro.phy.channel import ChannelModel, random_coefficients
from repro.reader.simulator import NetworkSimulator
from repro.tags.lf_tag import LFTag
from repro.types import SimulationProfile, TagConfig

PROFILE = SimulationProfile.fast()
EPOCH_S = 0.008
N_COEFFS = 4

_COEFF_GEN = np.random.default_rng(7)
COEFFS = random_coefficients(N_COEFFS, rng=_COEFF_GEN)


def make_simulator(tag_ids, seed, noise_std=0.008):
    """A network of the given tags, with per-tag channels held fixed
    across simulators so a tag keeps its IQ identity between them."""
    gen = np.random.default_rng(seed)
    channel = ChannelModel({k: COEFFS[k] for k in tag_ids},
                          environment_offset=0.5 + 0.3j)
    tags = [LFTag(TagConfig(tag_id=k, bitrate_bps=10e3,
                            channel_coefficient=COEFFS[k]),
                  profile=PROFILE,
                  rng=np.random.default_rng(gen.integers(0, 2 ** 63)))
            for k in tag_ids]
    return NetworkSimulator(tags, channel, profile=PROFILE,
                            noise_std=noise_std, rng=gen)


def make_config():
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=PROFILE)


def _truth_decoded(result, truth) -> bool:
    target = tuple(int(b) for b in truth.bits)
    if not target:
        return False
    inverse = tuple(1 - b for b in target)
    n = len(target)
    for stream in result.streams:
        bits = tuple(stream.bits.tolist())
        for off in range(0, max(1, len(bits) - n + 1)):
            window = bits[off:off + n]
            if window == target or window == inverse:
                return True
    return False


# -- SessionState unit behaviour ------------------------------------------


def _seed_tracker(state, period=250.0, offset=40.0, seed=0):
    """Create one tracker through the public observe() path."""
    gen = np.random.default_rng(seed)
    diffs = (0.3 + 0.1j) * np.sign(gen.standard_normal(32)) \
        + 0.003 * (gen.standard_normal(32)
                   + 1j * gen.standard_normal(32))
    state.begin_epoch()
    tracker = state.observe(None, period, offset, diffs)
    state.end_epoch({})
    return tracker, diffs


def test_tracker_evicted_after_max_misses():
    state = SessionState(SessionConfig(max_misses=2))
    _seed_tracker(state)
    assert state.n_trackers == 1

    state.begin_epoch()
    state.end_epoch({})  # miss 1: kept, but no longer hint-eligible
    assert state.n_trackers == 1

    state.begin_epoch()
    assert state.warm_hints() == []  # missed trackers stop hinting
    state.end_epoch({})  # miss 2 == max_misses: evicted
    assert state.n_trackers == 0


def test_missed_tracker_recovers_on_rematch():
    state = SessionState(SessionConfig(max_misses=3))
    tracker, diffs = _seed_tracker(state)

    state.begin_epoch()
    state.end_epoch({})
    assert tracker.misses == 1

    state.begin_epoch()
    assert state.match(tracker.period_samples, 99.0, diffs) is tracker
    state.end_epoch({})
    assert tracker.misses == 0


def test_drift_beyond_tolerance_forces_reacquisition():
    state = SessionState()
    tracker, diffs = _seed_tracker(state, period=250.0)

    state.begin_epoch()
    drifted = 250.0 * (1 + 4 * PERIOD_TOLERANCE)
    assert state.match(drifted, 40.0, diffs) is None
    # The decode proceeds cold and re-acquires under a new tracker.
    fresh = state.observe(None, drifted, 40.0, diffs)
    assert fresh is not tracker
    state.end_epoch({})
    assert state.n_trackers == 2

    # Within tolerance the same stream still matches (ppm drift).
    state.begin_epoch()
    nearby = 250.0 * (1 + 0.5 * PERIOD_TOLERANCE)
    assert state.match(nearby, 7.0, diffs) is tracker
    state.end_epoch({})


def test_phase_is_identity_only_for_chunked_captures():
    state = SessionState()
    tracker, diffs = _seed_tracker(state, period=250.0, offset=40.0)
    other = np.conjugate(diffs) * 1j  # rotated channel: different tag

    # Independent epoch (sample_offset == 0): a phase coincidence is
    # spurious, so a geometry mismatch must refuse the match.
    state.begin_epoch(sample_offset=0.0)
    assert state.match(250.0, 40.0, other) is None
    state.end_epoch({})

    # Later chunk of one capture: a stable *global* phase is identity
    # by itself, geometry notwithstanding.
    state.begin_epoch(sample_offset=12345.0)
    chunk_offset = (tracker.offset_phase - 12345.0) % 250.0
    assert state.match(250.0, chunk_offset, other) is tracker
    state.end_epoch({})


def test_warm_fit_blown_guard():
    from repro.core.clustering import KMeansResult
    state = SessionState()
    good = KMeansResult(centroids=np.zeros(3, dtype=complex),
                        labels=np.zeros(100, dtype=int),
                        inertia=1.0)
    blown = KMeansResult(centroids=np.zeros(3, dtype=complex),
                         labels=np.zeros(100, dtype=int),
                         inertia=50.0)
    cached = {3: 1.0 / 100}
    assert not state.warm_fit_blown(cached, {3: good})
    assert state.warm_fit_blown(cached, {3: blown})
    # Uncached and filtered-out cluster counts are not guarded.
    assert not state.warm_fit_blown({}, {3: blown})
    assert not state.warm_fit_blown(cached, {3: blown}, keys=[9])


def test_session_config_validation():
    with pytest.raises(ConfigurationError):
        SessionConfig(max_misses=0)
    with pytest.raises(ConfigurationError):
        SessionConfig(max_invalidations=0)


# -- full-decode lifecycle -------------------------------------------------


def test_new_tag_mid_session_is_picked_up_cold():
    """A tag that starts transmitting mid-session decodes the epoch it
    appears (cold pickup) and is tracked from then on."""
    session = SessionDecoder(make_config(), rng=123)
    for i in range(2):
        capture = make_simulator([0, 1], seed=20 + i).run_epoch(EPOCH_S)
        session.decode_epoch(capture.trace)
    trackers_before = session.n_trackers
    assert trackers_before >= 2

    late = make_simulator([0, 1, 2], seed=30).run_epoch(EPOCH_S)
    result = session.decode_epoch(late.trace)
    new_truth = next(t for t in late.truths if t.tag_id == 2)
    assert _truth_decoded(result, new_truth)
    assert session.n_trackers > trackers_before


def test_disappearing_tag_evicts_its_tracker():
    """When a tag leaves the session its tracker misses every epoch and
    is evicted after ``max_misses`` epochs — the hint budget tracks the
    population actually present."""
    session = SessionDecoder(
        make_config(), rng=123,
        session_config=SessionConfig(max_misses=2))
    for i in range(2):
        capture = make_simulator([0, 1], seed=40 + i).run_epoch(EPOCH_S)
        session.decode_epoch(capture.trace)
    with_two = session.n_trackers
    assert with_two >= 2

    for i in range(3):
        capture = make_simulator([0], seed=50 + i).run_epoch(EPOCH_S)
        result = session.decode_epoch(capture.trace)
        assert _truth_decoded(result, capture.truths[0])
    assert session.n_trackers < with_two


@pytest.mark.parametrize("seed", [31, 42, 55])
def test_warm_bits_match_cold_bits_on_stable_streams(seed):
    """Property: on a stable population the warm path's decoded bits
    are exactly the cold path's, every epoch, stream for stream.

    "Stable" is the operative word: these seeds produce collision-free
    epochs (like ``four_tag_capture`` in conftest), so every stream is
    the same physical tag with the same geometry throughout.  Epochs
    where fold grids collide re-randomize the *pairing* each epoch and
    warm/cold may legitimately resolve the churn differently — that
    regime is covered by the loss bound in the session benchmark, not
    by bit identity."""
    config = make_config()
    sim = make_simulator([0, 1, 2], seed=seed)
    captures = [sim.run_epoch(EPOCH_S, epoch_index=i) for i in range(4)]

    session = SessionDecoder(config, rng=123)
    for i, capture in enumerate(captures):
        warm = session.decode_epoch(capture.trace)
        cold = LFDecoder(config, rng=123).decode_epoch(capture.trace)
        # Every tag the cold path decodes, the warm path decodes with
        # the same bits (the truth pattern pins both down exactly).
        for truth in capture.truths:
            if _truth_decoded(cold, truth):
                assert _truth_decoded(warm, truth), (
                    f"epoch {i}: warm path lost tag {truth.tag_id}")
        # And wherever both paths report the same physical stream, the
        # payloads agree bit for bit.  (The cold path also emits ghost
        # re-detections of already-decoded streams; the session's
        # tracker dedup suppresses those, so unpaired cold streams are
        # expected and not compared.)
        for cold_stream in cold.streams:
            twins = [
                s for s in warm.streams
                if abs(s.offset_samples - cold_stream.offset_samples)
                <= 2.0
                and abs(s.period_samples - cold_stream.period_samples)
                <= 1e-3 * cold_stream.period_samples]
            bits = cold_stream.bits.tolist()
            assert not twins or any(
                t.bits.tolist() == bits
                or [1 - b for b in t.bits.tolist()] == bits
                for t in twins), \
                f"epoch {i}: warm bits differ from cold bits"


def test_cache_stats_flow_through_results():
    session = SessionDecoder(make_config(), rng=123)
    sim = make_simulator([0, 1, 2], seed=60)
    results = session.decode_epochs(
        [sim.run_epoch(EPOCH_S, epoch_index=i).trace for i in range(3)])
    for result in results:
        assert set(result.cache_stats) == set(CACHE_STAT_KEYS)
    # Epoch 0 decodes cold; later epochs must actually hit the caches.
    assert sum(results[0].cache_stats.values()) == 0 or \
        results[0].cache_stats.get("fold_hits", 0) == 0
    assert results[-1].cache_stats["fold_hits"] > 0
    totals = session.cache_stats
    assert totals["fold_hits"] >= results[-1].cache_stats["fold_hits"]
    session.reset()
    assert session.n_trackers == 0
    assert sum(session.cache_stats.values()) == 0


def test_tracker_polarity_cache_is_advisory():
    """A poisoned polarity hint must not change decoded bits — the
    anchor search scores both polarities regardless of hint order."""
    config = make_config()
    sim = make_simulator([0], seed=70)
    captures = [sim.run_epoch(EPOCH_S, epoch_index=i) for i in range(2)]
    session = SessionDecoder(config, rng=123)
    session.decode_epoch(captures[0].trace)
    for tracker in session.state.trackers:
        if tracker.flipped is not None:
            tracker.flipped = not tracker.flipped
    warm = session.decode_epoch(captures[1].trace)
    cold = LFDecoder(config, rng=123).decode_epoch(captures[1].trace)
    assert [s.bits.tolist() for s in warm.streams] \
        == [s.bits.tolist() for s in cold.streams]
