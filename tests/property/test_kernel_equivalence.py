"""Properties of the decode kernels and their one dispatch point.

The Hamerly-bounded Lloyd iteration must reproduce the brute-force
fit exactly.  The struct-of-arrays packing contract is fuzzed too: pad
lanes must never perturb live-lane results, and unpacking must return
exactly the per-row kernel output.  Every decode must reach the
kernels through the shared ``KERNELS`` instance, which is what lets a
profiler time them by shadowing its methods.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import KERNELS, resolve_backend
from repro.core.kernels import reference as ref
from repro.core.kernels.soa import length_class, pack_ragged
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.errors import ConfigurationError

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_windows(rng, n_samples, n_pos):
    """Valid (lo_b, hi_b, lo_a, hi_a) window bounds over ``n_samples``."""
    lo_b = rng.integers(0, n_samples, size=n_pos)
    hi_b = lo_b + rng.integers(1, 5, size=n_pos)
    hi_b = np.minimum(hi_b, n_samples)
    lo_b = np.minimum(lo_b, hi_b - 1)
    lo_a = rng.integers(0, n_samples, size=n_pos)
    hi_a = lo_a + rng.integers(1, 5, size=n_pos)
    hi_a = np.minimum(hi_a, n_samples)
    lo_a = np.minimum(lo_a, hi_a - 1)
    return lo_b, hi_b, lo_a, hi_a


def _prefix_sum(rng, n_samples):
    samples = (rng.standard_normal(n_samples)
               + 1j * rng.standard_normal(n_samples))
    return np.concatenate([[0], np.cumsum(samples)])


# -- bounded Lloyd ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(5, 60), k=st.integers(1, 5))
def test_bounded_lloyd_matches_single_restart_batch(seed, n, k):
    """The Hamerly-bounded iteration is pruning only: its fit is
    bit-identical to a one-restart brute-force Lloyd."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cents = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    c_b, l_b, i_b = ref.bounded_lloyd(pts, cents.copy())
    c_f, l_f, i_f = ref.lloyd_batched(pts, cents.copy()[None, :])
    np.testing.assert_array_equal(l_b, l_f)
    np.testing.assert_array_equal(c_b, c_f)
    assert i_b == i_f


# -- struct-of-arrays packing --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=st.integers(0, 12),
       n_samples=st.integers(4, 120))
def test_soa_pad_lanes_do_not_perturb(seed, n_rows, n_samples):
    """Batched gathers over padded rows equal per-row gathers exactly.

    Rows are ragged (including empty rows, which must be dropped); pad
    lanes carry the trivial [0, 1) window and are sliced away on
    unpack, so every unpacked row must be bit-identical to calling the
    kernel on that row alone.
    """
    rng = np.random.default_rng(seed)
    csum = _prefix_sum(rng, n_samples)
    rows = []
    for _ in range(n_rows):
        n_pos = int(rng.integers(0, 9))
        rows.append(_random_windows(rng, n_samples, n_pos))
    batches = pack_ragged(rows, pad_values=(0, 1, 0, 1))

    seen = set()
    for batch in batches:
        flat = ref.edge_differentials(
            csum, *(col.ravel() for col in batch.columns))
        for r, diffs in batch.unpack(flat):
            direct = ref.edge_differentials(csum, *rows[r])
            np.testing.assert_array_equal(diffs, direct)
            seen.add(r)
    expected = {r for r, cols in enumerate(rows) if cols[0].size > 0}
    assert seen == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=st.integers(1, 12))
def test_soa_packing_shape_invariants(seed, n_rows):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        n_pos = int(rng.integers(1, 20))
        a = rng.integers(0, 100, size=n_pos)
        rows.append((a, a + 1, a + 2, a + 3))
    batches = pack_ragged(rows, pad_values=(0, 1, 0, 1))
    widths = [b.width for b in batches]
    assert widths == sorted(widths)
    for batch in batches:
        assert batch.width == length_class(int(batch.lengths.max()))
        for col in batch.columns:
            assert col.shape == (len(batch.rows), batch.width)
        # mask marks exactly the live lanes
        np.testing.assert_array_equal(
            batch.mask.sum(axis=1), batch.lengths)
        # live lanes hold the original data
        for i, r in enumerate(batch.rows):
            for c in range(4):
                np.testing.assert_array_equal(
                    batch.columns[c][i, :int(batch.lengths[i])],
                    rows[r][c])


def test_length_class_is_next_pow2():
    assert [length_class(n) for n in (1, 2, 3, 4, 5, 8, 9, 1000)] \
        == [1, 2, 4, 4, 8, 8, 16, 1024]


# -- the one kernel instance --------------------------------------------


def test_reference_backend_always_available():
    assert resolve_backend("reference") is KERNELS
    assert resolve_backend(None) is KERNELS


def test_unknown_backend_name_raises():
    for name in ("turbojet", "auto"):
        with pytest.raises(ConfigurationError):
            resolve_backend(name)
    with pytest.raises(ConfigurationError):
        LFDecoderConfig(kernel_backend="numba")


def test_decode_dispatches_through_shared_instance(fast_profile,
                                                  four_tag_capture):
    """A method shadowed on ``KERNELS`` sees the calls of a decode."""
    methods = ("lloyd_batched", "edge_differentials", "viterbi_exact",
               "viterbi_banded")
    calls = dict.fromkeys(methods, 0)
    decoder = LFDecoder(LFDecoderConfig(candidate_bitrates_bps=[10e3],
                                        profile=fast_profile), rng=1)
    try:
        for method in methods:
            def counted(*args, _real=getattr(KERNELS, method),
                        _m=method, **kwargs):
                calls[_m] += 1
                return _real(*args, **kwargs)
            setattr(KERNELS, method, counted)
        assert decoder.decode_epoch(four_tag_capture.trace).streams
    finally:
        for method in methods:
            KERNELS.__dict__.pop(method, None)
    assert calls["lloyd_batched"] > 0
    assert calls["edge_differentials"] > 0
    assert calls["viterbi_exact"] + calls["viterbi_banded"] > 0
