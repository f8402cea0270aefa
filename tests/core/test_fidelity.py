"""Fidelity policy semantics: knob validation, stats accounting."""

import pytest

import dataclasses

from repro.core.fidelity import (FIDELITY_STAT_KEYS, FidelityPolicy,
                                 escalation_rate)
from repro.errors import ConfigurationError


class TestPolicyFlags:
    def test_default_policy_is_active(self):
        assert FidelityPolicy().active

    def test_force_full_deactivates(self):
        assert not FidelityPolicy(force_full=True).active

    def test_full_constructor_matches_force_full(self):
        assert FidelityPolicy.full() == FidelityPolicy(force_full=True)
        assert not FidelityPolicy.full().active

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            FidelityPolicy().force_full = True

    def test_force_full_is_the_only_switch(self):
        """One off switch per feature: every fast path hangs off
        ``force_full``; the other fields are tuned margins."""
        switches = [f.name for f in dataclasses.fields(FidelityPolicy)
                    if f.type in (bool, "bool")]
        assert switches == ["force_full"]


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"pregate_margin": 0.0},
        {"pregate_margin": 1.0},
        {"viterbi_band_margin": -1e-6},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FidelityPolicy(**kwargs)


class TestStats:
    def test_new_stats_covers_every_key(self):
        stats = FidelityPolicy().new_stats()
        assert set(stats) == set(FIDELITY_STAT_KEYS)
        assert all(v == 0 for v in stats.values())

    def test_escalation_rate_mixes_all_gate_pairs(self):
        stats = {"pregate_fast": 3, "pregate_escalations": 1,
                 "viterbi_banded": 4, "viterbi_exact": 0}
        assert escalation_rate(stats) == pytest.approx(1 / 8)

    def test_escalation_rate_ignores_non_gate_counters(self):
        stats = {"pregate_fast": 1, "bounded_lloyd_runs": 100}
        assert escalation_rate(stats) == 0.0

    def test_dead_fast_paths_read_as_full_escalation(self):
        """An all-zero dict means no gate ever fired; that must look
        like a regression (rate 1.0), not like a perfect fast path."""
        assert escalation_rate({}) == 1.0
        assert escalation_rate(FidelityPolicy().new_stats()) == 1.0
