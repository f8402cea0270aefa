"""Supervision tests for the batch engine: crashes, hangs, retries,
and resource cleanup.

Faults ride in through top-level trial functions passed to
:meth:`BatchDecoder.iter_trials`: each trial's payload carries its
epoch index plus the fault's target, and every trial that is not
sabotaged decodes exactly like :func:`repro.core.engine._decode_trial`.
Being module-level, the trial functions pickle by reference into every
worker generation, respawned pools included.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import (BatchDecoder, EpochOutcome, TrialSpec,
                               _decode_trial)
from repro.utils.rng import spawn_seed_sequences

from ..conftest import build_decoder, build_network

N_EPOCHS = 6

if engine_module._shared_memory is None:  # pragma: no cover
    pytest.skip("platform lacks multiprocessing.shared_memory",
                allow_module_level=True)

#: Epoch indices the serial-path trial saw, in call order.
_SERIAL_CALLS = []


def _crash_trial(trace, payload, rng, config):
    index, victim = payload
    if index == victim:
        os._exit(17)
    return _decode_trial(trace, index, rng, config)


def _hang_trial(trace, payload, rng, config):
    index, victim = payload
    if index == victim:
        time.sleep(300)
    return _decode_trial(trace, index, rng, config)


def _flaky_trial(trace, payload, rng, config):
    """Index ``victim`` fails its first attempt only: ``marker`` is a
    file path that survives the worker process."""
    index, (victim, marker) = payload
    if index == victim and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        raise RuntimeError("transient glitch")
    return _decode_trial(trace, index, rng, config)


def _broken_trial(trace, payload, rng, config):
    index, victim = payload
    if index == victim:
        raise ValueError("permanently broken epoch")
    return _decode_trial(trace, index, rng, config)


def _always_broken_trial(trace, payload, rng, config):
    _SERIAL_CALLS.append(payload[0])
    raise ValueError("nope")


def _trials(traces, target):
    """One spec per epoch whose payload is ``(index, target)``."""
    return [TrialSpec(trace=t, payload=(i, target))
            for i, t in enumerate(traces)]


@pytest.fixture(scope="module")
def config(fast_profile):
    return build_decoder(fast_profile).config


@pytest.fixture(scope="module")
def captures(fast_profile):
    """Single-tag epochs with ground truth (cheap, non-trivial)."""
    return [build_network(1, fast_profile, seed=20 + k).run_epoch(0.006)
            for k in range(N_EPOCHS)]


@pytest.fixture(scope="module")
def traces(captures):
    return [c.trace for c in captures]


@pytest.fixture(scope="module")
def baseline(config, traces):
    """Serial reference results for the same seeds."""
    seqs = spawn_seed_sequences(0, len(traces))
    return [_decode_trial(t, i, np.random.default_rng(seqs[i]), config)
            for i, t in enumerate(traces)]


def _assert_matches_baseline(outcome, reference):
    assert outcome.result is not None
    assert outcome.result.epoch_index == reference.epoch_index
    assert len(outcome.result.streams) == len(reference.streams)
    for a, b in zip(outcome.result.streams, reference.streams):
        np.testing.assert_array_equal(a.bits, b.bits)


class TestWorkerCrash:
    def test_crashing_task_quarantined_batch_completes(
            self, config, traces, baseline):
        victim = 2
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        outcomes = list(engine.iter_trials(_crash_trial,
                                           _trials(traces, victim)))
        assert [o.epoch_index for o in outcomes] == \
            list(range(len(traces)))
        assert outcomes[victim].status == "failed"
        assert outcomes[victim].result is None
        assert "WorkerCrashError" in outcomes[victim].error
        for i, outcome in enumerate(outcomes):
            if i != victim:
                _assert_matches_baseline(outcome, baseline[i])

    def test_crash_surfaces_as_engine_fault_in_iter_decode(
            self, config, traces, monkeypatch):
        """A failed epoch still yields from ``iter_decode``, as an
        empty result carrying an ``engine``-stage fault.  The serial
        path runs the epoch trial in this process, so patching it
        here reaches every attempt."""
        def raising(trace, index, rng, config):
            if index == 1:
                raise RuntimeError("decoder blew up")
            return _decode_trial(trace, index, rng, config)

        monkeypatch.setattr(engine_module, "_decode_trial", raising)
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        results = engine.decode_epochs(traces[:3])
        assert len(results) == 3
        assert [r.epoch_index for r in results] == [0, 1, 2]
        failed = results[1]
        assert failed.degraded
        assert failed.degraded_streams[0].stage == "engine"
        assert failed.degraded_streams[0].error_type == "RuntimeError"
        assert not failed.streams


class TestHang:
    def test_hung_task_times_out_batch_completes(
            self, config, traces, baseline):
        victim = 1
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              task_timeout_s=1.0)
        start = time.monotonic()
        outcomes = list(engine.iter_trials(_hang_trial,
                                           _trials(traces, victim)))
        elapsed = time.monotonic() - start
        assert [o.epoch_index for o in outcomes] == \
            list(range(len(traces)))
        assert outcomes[victim].status == "failed"
        assert "TaskHangError" in outcomes[victim].error
        # Two strikes at 1 s each plus overhead — not 300 s.
        assert elapsed < 60
        for i, outcome in enumerate(outcomes):
            if i != victim:
                _assert_matches_baseline(outcome, baseline[i])


class TestRetry:
    def test_transient_worker_error_retried(self, config, traces,
                                            baseline, tmp_path):
        marker = str(tmp_path / "failed-once")
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        outcomes = list(engine.iter_trials(
            _flaky_trial, _trials(traces, (3, marker))))
        assert outcomes[3].attempts >= 2
        for i, outcome in enumerate(outcomes):
            _assert_matches_baseline(outcome, baseline[i])

    def test_persistent_error_fails_after_max_attempts(
            self, config, traces):
        engine = BatchDecoder(config=config, seed=0, max_workers=2)
        outcomes = list(engine.iter_trials(_broken_trial,
                                           _trials(traces, 0)))
        assert outcomes[0].status == "failed"
        assert "ValueError" in outcomes[0].error
        assert outcomes[0].attempts == engine_module.MAX_ATTEMPTS == 2

    def test_serial_path_retries_and_fails_identically(
            self, config, traces):
        _SERIAL_CALLS.clear()
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        outcomes = list(engine.iter_trials(_always_broken_trial,
                                           _trials(traces[:2], None)))
        assert [o.status for o in outcomes] == ["failed", "failed"]
        assert _SERIAL_CALLS == [0, 0, 1, 1]


class TestOutcomeStatuses:
    def test_clean_epochs_report_ok(self, config, traces):
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        outcomes = engine.decode_outcomes(traces[:2])
        assert all(isinstance(o, EpochOutcome) for o in outcomes)
        assert all(o.status == "ok" and o.ok for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)

    def test_repaired_epoch_reports_degraded(self, config, traces):
        trace = traces[0].slice(0, len(traces[0]))
        trace.allow_nonfinite = True
        trace.samples = np.array(trace.samples, copy=True)
        trace.samples[100:110] = np.nan
        engine = BatchDecoder(config=config, seed=0, max_workers=1)
        outcome, = engine.decode_outcomes([trace])
        assert outcome.status == "degraded"
        assert outcome.result.trace_health.verdict == "degraded"


def _shm_blocks():
    return set(glob.glob("/dev/shm/psm_*"))


class TestSharedMemoryHygiene:
    def test_abandoned_iteration_leaks_no_blocks(self, config, traces):
        before = _shm_blocks()
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              use_shared_memory=True)
        iterator = engine.iter_decode(traces)
        next(iterator)
        iterator.close()  # consumer walks away mid-batch
        assert _shm_blocks() == before

    def test_crash_path_leaks_no_blocks(self, config, traces):
        before = _shm_blocks()
        engine = BatchDecoder(config=config, seed=0, max_workers=2,
                              use_shared_memory=True)
        list(engine.iter_trials(_crash_trial, _trials(traces, 2)))
        assert _shm_blocks() == before
