"""Supervised parallel batch-decode engine: many epochs, one config.

Long experiments (waterfall sweeps, multi-epoch captures) decode
hundreds of independent epochs with the same :class:`LFDecoderConfig`.
:class:`BatchDecoder` fans those epochs out over a
``concurrent.futures`` process pool while keeping four guarantees:

* **Determinism** — every task draws its randomness from a
  :class:`numpy.random.SeedSequence` spawned from the root seed by task
  index (:func:`repro.utils.rng.iter_spawn_seed_sequences`), so results
  are identical for any worker count, including the serial fallback,
  for either trace transport, and across supervised resubmissions (a
  retried task reuses its original seed sequence).
* **Ordered streaming** — :meth:`BatchDecoder.iter_decode` yields epoch
  results in submission order as soon as each becomes available, so a
  consumer can post-process epoch *i* while epoch *i+1* is still
  decoding.  Submission itself runs a bounded look-ahead window (about
  two tasks per worker), so an unbounded input stream never piles up
  as pending futures or live shared-memory blocks.
* **One outcome per input** — the supervisor guarantees forward
  progress no matter what a task does to its worker.  A task that
  raises is retried with exponential backoff up to :data:`MAX_ATTEMPTS`
  attempts; a task that hangs past ``task_timeout_s`` has its pool
  killed and respawned (the head of the pending queue owns the
  deadline, so blame is precise); a task that *crashes* its worker
  (``os._exit``, segfault) breaks the whole pool — the supervisor
  respawns it and re-runs the in-flight suspects one at a time so the
  killer is identified by elimination.  :data:`CRASH_STRIKES` strikes
  (crashes or hangs) quarantine the task as a ``failed``
  :class:`EpochOutcome`; every other epoch still decodes and every
  input yields exactly one outcome.
* **Timing transparency** — each :class:`EpochResult` carries the
  pipeline's per-stage wall-clock breakdown (``stage_timings``), and
  :meth:`BatchDecoder.aggregate_timings` folds them into one profile
  for the whole batch.

Every unit of supervised work is a *trial*
(:meth:`BatchDecoder.iter_trials`): a :class:`TrialSpec` pairs an
optional trace with an arbitrary picklable payload and an optional
explicit integer seed, and a top-level ``trial_fn(trace, payload, rng,
config)`` does the work.  An epoch decode is the trial
:func:`_decode_trial` with the epoch index as payload; experiment
sweeps push their per-trial work (decode + score, reliability-link
runs, config-variant decodes) through the same path, with the same
ordered streaming, retry/hang/crash supervision and per-worker-count
determinism.  An explicit ``seed`` reproduces a legacy
``np.random.default_rng(seed)`` stream bit for bit, which is how refit
experiments keep row parity with their serial ancestors.

The retry budget (:data:`MAX_ATTEMPTS`, :data:`RETRY_BACKOFF_S`) and
the crash quarantine (:data:`CRASH_STRIKES`) are module constants the
streaming service's executors import too, so every supervised decode
in the package answers to one ladder.

Workers receive the decoder config once (pool initializer), not once
per task.  Trace samples travel through ``multiprocessing.shared_memory``
when available: the parent writes each trial's samples into a block
once and the worker decodes a zero-copy view
(:func:`attach_shared_memory`), skipping the pickle serialize/deserialize
round-trip entirely.  Hosts without POSIX shared memory (or with an
exhausted ``/dev/shm``) fall back per task to the pickle transport, for
which :meth:`IQTrace.__getstate__` drops the derived-array caches so
the payload is just the raw samples.  Every failure path — worker
crash, hang, retry, abandoned iteration — unlinks its shared-memory
blocks before the supervisor moves on.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import chain
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator,
                    List, Optional, Sequence)

import numpy as np

from ..errors import ConfigurationError
from ..types import EpochResult, IQTrace, StreamFault
from ..utils.rng import iter_spawn_seed_sequences
from .pipeline import LFDecoder, LFDecoderConfig
from .stages.stats import StatsAccumulator

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython 3.8+
    _shared_memory = None

#: Per-process decoder config, installed by the pool initializer.
_WORKER_CONFIG: Optional[LFDecoderConfig] = None

#: Attempts per task that may end in an in-worker exception before the
#: task is reported ``failed``.  The service retries each chunk as often.
MAX_ATTEMPTS = 2

#: Delay before the engine's first retry; doubles per retry.  (The
#: service retries at once: a sleep would stall its whole shard.)
RETRY_BACKOFF_S = 0.05

#: Worker kills (crash or hang) after which a task is quarantined.  The
#: service's process executor fails a frame after as many strikes.
CRASH_STRIKES = 2


def attach_shared_memory(name: str) -> "_shared_memory.SharedMemory":
    """Open another process's shared-memory block by name.

    POSIX attachment re-registers the block with a resource tracker, so
    under non-fork start methods (per-process trackers) the attachment
    must be unregistered or this process's tracker tears the block down
    when it exits.  Under fork the tracker process is *shared* with the
    owner and registration is a set — unregistering here would strip
    the owner's own entry and break its unlink.  The owner keeps the
    block's lifetime: callers only ever ``close()`` what this returns.
    """
    shm = _shared_memory.SharedMemory(name=name)
    try:
        import multiprocessing
        if multiprocessing.get_start_method() != "fork":
            from multiprocessing import resource_tracker
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout varies
        pass
    return shm


def _init_worker(config: LFDecoderConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _retry_delay(retry: int) -> float:
    """Backoff before retry number ``retry`` (1-based)."""
    return RETRY_BACKOFF_S * 2 ** (retry - 1)


def _decode_trial(trace: IQTrace, index: int, rng: np.random.Generator,
                  config: LFDecoderConfig) -> EpochResult:
    """The epoch-decode trial: decode ``trace`` as epoch ``index``.

    A fresh :class:`LFDecoder` per task is deliberate: decoder state
    (its RNG position) must depend only on this task's seed, never on
    which other tasks the worker processed first.
    """
    result = LFDecoder(config, rng=rng).decode_epoch(trace)
    result.epoch_index = index
    return result


def _trial_task(fn: Callable, trace: Optional[IQTrace], payload: Any,
                seed, config: Optional[LFDecoderConfig] = None) -> Any:
    """Run one trial with a task-local RNG.

    ``seed`` is either an explicit integer (legacy serial loops seeded
    ``default_rng(int)``; passing the raw int through reproduces that
    stream exactly) or an engine-spawned :class:`SeedSequence`.  The
    trial function must return *derived* data only — under the
    shared-memory transport the trace is a view of a block the parent
    unlinks once the result arrives.
    """
    cfg = config if config is not None else _WORKER_CONFIG
    return fn(trace, payload, np.random.default_rng(seed), cfg)


def _trial_task_shm(fn: Callable, shm_name: str, n_samples: int,
                    sample_rate_hz: float, start_time_s: float,
                    payload: Any, seed) -> Any:
    """:func:`_trial_task` on a trace whose samples live in the
    parent's shared-memory block.

    The view must not outlive the block: a trial returns derived data
    only (an :class:`EpochResult` carries bits, centroids and timing
    fits, never a slice of the raw trace), so closing before return is
    safe — the executor pickles the result after this frame exits.
    """
    shm = attach_shared_memory(shm_name)
    try:
        samples = np.ndarray((n_samples,), dtype=np.complex128,
                             buffer=shm.buf)
        trace = IQTrace(samples=samples, sample_rate_hz=sample_rate_hz,
                        start_time_s=start_time_s)
        return _trial_task(fn, trace, payload, seed)
    finally:
        shm.close()


@dataclass(frozen=True)
class TrialSpec:
    """One generic unit of supervised work for :meth:`iter_trials`.

    ``trace`` rides the engine's zero-copy transport when present;
    trials that synthesize their own data (or none) leave it ``None``.
    ``payload`` is any picklable context the trial function needs
    (scenario spec, config variant, trial index).  ``seed``, when set,
    is handed verbatim to ``np.random.default_rng`` — the exact-parity
    hook for refit serial loops; when ``None`` the engine assigns the
    task's spawned child :class:`SeedSequence`.
    """

    trace: Optional[IQTrace] = None
    payload: Any = None
    seed: Optional[int] = None


@dataclass
class EpochOutcome:
    """Supervision verdict for one batch input.

    ``status`` is ``"ok"`` (decoded cleanly), ``"degraded"`` (decoded,
    but the epoch reports degradation — rejected capture, unresolvable
    collision, isolated stream fault) or ``"failed"`` (the task itself
    could not be completed: exhausted retries, repeated worker crashes
    or hangs; ``result`` is ``None`` and ``error`` says why).
    ``attempts`` counts the attempts started, including any lost to a
    dead worker — resubmissions forced by *other* tasks crashing the
    shared pool included.

    For :meth:`BatchDecoder.iter_trials` the same verdict applies to a
    generic trial: ``result`` holds whatever the trial function
    returned (``degraded`` only when that object exposes a truthy
    ``.degraded``), and ``epoch_index`` is the trial's position in the
    input sequence.
    """

    epoch_index: int
    status: str
    result: Optional[Any] = None
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Task:
    """One submitted trial plus everything needed to re-run it.

    The trace is retained until the task settles so a pool respawn can
    resubmit it; ``suspect`` marks tasks that were in flight when the
    pool broke and must be re-run solo for crash blame.
    """

    index: int
    trace: Optional[IQTrace]
    #: Explicit int seed (trial parity) or engine-spawned SeedSequence.
    seed_seq: Any
    #: Opaque trial context (the epoch index for epoch decodes).
    payload: Any = None
    attempts: int = 0
    #: Attempts that ended in an in-worker exception (retry budget).
    errors: int = 0
    #: Worker kills blamed on this task (crashes and hangs).
    crashes: int = 0
    future: Optional[Future] = None
    shm: Optional["_shared_memory.SharedMemory"] = None
    result: Optional[Any] = None
    error: Optional[str] = None
    #: A harvested result settles the task even when it is ``None`` —
    #: trial functions may legitimately return ``None``.
    done: bool = False
    failed: bool = False
    suspect: bool = False

    @property
    def settled(self) -> bool:
        return self.failed or self.done

    def release_shm(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self.shm = None


class BatchDecoder:
    """Decode a batch of epoch traces with a shared configuration.

    Parameters
    ----------
    config:
        Decoder configuration shared by every epoch (defaults to
        :class:`LFDecoderConfig`'s defaults).
    seed:
        Root seed for the batch.  Each epoch's decoder gets an
        independent child seed sequence; the same root seed always
        reproduces the same results, for any ``max_workers``.
    max_workers:
        Process count.  ``None`` uses the machine's CPU count; values
        ``<= 1`` decode serially in-process (no pickling, no pool),
        which is also the automatic fallback on single-CPU hosts.
    use_shared_memory:
        Transport for trace samples.  ``True`` (the default when the
        platform provides ``multiprocessing.shared_memory``) writes
        each epoch's samples into a shared block that the worker maps
        zero-copy; ``False`` forces the pickle transport.  Decode
        results are bit-identical either way — the knob only moves
        bytes differently.
    task_timeout_s:
        Wall-clock budget one task may hold the head of the result
        queue before the supervisor declares it hung, kills the pool
        and resubmits the in-flight work.  ``None`` (default) disables
        the watchdog.

    In-worker exceptions are retried up to :data:`MAX_ATTEMPTS`
    attempts, backing off exponentially from :data:`RETRY_BACKOFF_S`.
    """

    def __init__(self, config: Optional[LFDecoderConfig] = None,
                 seed: int = 0,
                 max_workers: Optional[int] = None,
                 use_shared_memory: Optional[bool] = None,
                 task_timeout_s: Optional[float] = None):
        self.config = config or LFDecoderConfig()
        self.seed = seed
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        if use_shared_memory is None:
            use_shared_memory = _shared_memory is not None
        if use_shared_memory and _shared_memory is None:
            raise ConfigurationError(
                "shared-memory transport requested but "
                "multiprocessing.shared_memory is unavailable")
        self.use_shared_memory = use_shared_memory
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be positive, got {task_timeout_s}")
        self.task_timeout_s = task_timeout_s

    # -- public API --------------------------------------------------------

    def decode_epochs(self, traces: Sequence[IQTrace]
                      ) -> List[EpochResult]:
        """Decode every trace; results in input order."""
        return list(self.iter_decode(traces))

    def decode_outcomes(self, traces: Sequence[IQTrace]
                        ) -> List[EpochOutcome]:
        """Decode every trace; one :class:`EpochOutcome` per input."""
        return list(self.iter_outcomes(traces))

    def iter_decode(self, traces: Iterable[IQTrace]
                    ) -> Iterator[EpochResult]:
        """Yield one :class:`EpochResult` per trace, in input order.

        Results stream out as soon as they are ready *and* every
        earlier epoch has been yielded, so downstream consumers see a
        deterministic sequence regardless of completion order.  The
        input may be an arbitrary (even unbounded) iterable: tasks are
        submitted through a sliding window of about two per worker, so
        memory stays proportional to the worker count, not the batch.

        An epoch whose task ultimately *failed* (exhausted retries,
        quarantined after repeated worker kills) still yields: an empty
        result whose ``degraded_streams`` carries a single
        ``stage="engine"`` fault naming the failure.  Use
        :meth:`iter_outcomes` for the explicit per-task verdict.
        """
        for outcome in self.iter_outcomes(traces):
            if outcome.result is not None:
                yield outcome.result
                continue
            result = EpochResult()
            result.epoch_index = outcome.epoch_index
            message = outcome.error or "task failed"
            result.degraded_streams.append(StreamFault(
                offset_samples=0.0, period_samples=0.0, stage="engine",
                error_type=message.split(":", 1)[0],
                message=message, expected=False))
            yield result

    def iter_outcomes(self, traces: Iterable[IQTrace]
                      ) -> Iterator[EpochOutcome]:
        """Yield one :class:`EpochOutcome` per trace, in input order.

        This is :meth:`iter_decode` plus the supervision verdict: the
        engine guarantees exactly one outcome per input even when tasks
        raise, hang, or kill their worker process.  Each epoch runs as
        the trial :func:`_decode_trial` with its index as payload.
        """
        specs = (TrialSpec(trace=trace, payload=index)
                 for index, trace in enumerate(traces))
        return self.iter_trials(_decode_trial, specs)

    def iter_trials(self, trial_fn: Callable,
                    trials: Iterable[TrialSpec]
                    ) -> Iterator[EpochOutcome]:
        """Yield one :class:`EpochOutcome` per trial, in input order.

        ``trial_fn`` must be a top-level (picklable) callable with
        signature ``(trace, payload, rng, config) -> Any``; it runs
        under the full supervision contract of :meth:`iter_outcomes`.
        Each trial's ``rng`` derives from its explicit ``seed`` when
        set, else from the engine's spawned child sequence for that
        input position — either way identical for any worker count.
        One child sequence is consumed per trial regardless, so mixing
        explicit and engine seeds never shifts later trials' streams.
        """
        seed_iter = iter_spawn_seed_sequences(self.seed)
        tasks = (_Task(index=index, trace=spec.trace,
                       seed_seq=(spec.seed if spec.seed is not None
                                 else child),
                       payload=spec.payload)
                 for (index, spec), child in zip(enumerate(trials),
                                                 seed_iter))
        if self.max_workers <= 1:
            yield from self._iter_serial(tasks, trial_fn)
            return
        # A lone task is not worth a process pool.
        first = list(_take(tasks, 2))
        if len(first) <= 1:
            yield from self._iter_serial(iter(first), trial_fn)
            return
        yield from self._iter_supervised(chain(first, tasks), trial_fn)

    # -- serial path -------------------------------------------------------

    def _iter_serial(self, task_iter: Iterator[_Task],
                     trial_fn: Callable) -> Iterator[EpochOutcome]:
        """In-process execution with the same retry policy (no
        watchdog: a hang in the caller's own process cannot be
        preempted)."""
        for task in task_iter:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = _trial_task(trial_fn, task.trace,
                                         task.payload, task.seed_seq,
                                         config=self.config)
                except Exception as exc:  # noqa: BLE001 — supervision
                    if attempts >= MAX_ATTEMPTS:
                        yield EpochOutcome(
                            epoch_index=task.index, status="failed",
                            attempts=attempts,
                            error=f"{type(exc).__name__}: {exc}")
                        break
                    time.sleep(_retry_delay(attempts))
                else:
                    yield _settled(task.index, result, attempts)
                    break

    # -- supervised pool path ----------------------------------------------

    def _iter_supervised(self, task_iter: Iterator[_Task],
                         trial_fn: Callable) -> Iterator[EpochOutcome]:
        window = 2 * self.max_workers
        pending: Deque[_Task] = deque()
        pool = self._new_pool()
        exhausted = False

        def _fail(task: _Task, message: str) -> None:
            task.failed = True
            task.error = message
            task.suspect = False
            task.release_shm()

        def _done(task: _Task, result: Any) -> None:
            task.result = result
            task.done = True
            task.suspect = False
            task.future = None
            task.release_shm()

        def _worker_error(task: _Task, exc: BaseException) -> None:
            """An attempt raised inside the worker: retry or fail."""
            task.errors += 1
            task.suspect = False  # it ran to completion; worker lives
            task.future = None
            task.release_shm()
            if task.errors >= MAX_ATTEMPTS:
                _fail(task, f"{type(exc).__name__}: {exc}")
            else:
                time.sleep(_retry_delay(task.errors))

        def _harvest(task: _Task) -> bool:
            """Collect a done future's verdict; True if it resolved
            (result or in-worker error), False if the pool break ate
            it and the task must be resubmitted."""
            exc = task.future.exception()
            if exc is None:
                _done(task, task.future.result())
                return True
            if isinstance(exc, BrokenProcessPool):
                return False
            _worker_error(task, exc)
            return True

        def _restart_pool() -> List[_Task]:
            """Kill the pool, respawn it, and reset in-flight tasks.

            Returns the unsettled tasks that were genuinely in flight
            (their futures died with the pool) — the crash suspects.
            Futures that completed before the break keep their results.
            """
            nonlocal pool
            in_flight: List[_Task] = []
            for task in pending:
                if task.settled or task.future is None:
                    continue
                if task.future.done() and _harvest(task):
                    continue
                in_flight.append(task)
            _kill_pool(pool)
            for task in in_flight:
                task.future = None
                task.release_shm()
            pool = self._new_pool()
            return in_flight

        def _pool_broke() -> None:
            """Blame a worker crash: solo culprit gets a strike, a
            crowd becomes suspects probed one at a time."""
            in_flight = _restart_pool()
            if len(in_flight) == 1:
                task = in_flight[0]
                task.crashes += 1
                if task.crashes >= CRASH_STRIKES:
                    _fail(task, "WorkerCrashError: task killed its "
                          f"worker process {task.crashes} times; "
                          "quarantined")
                else:
                    task.suspect = True
            else:
                for task in in_flight:
                    task.suspect = True

        try:
            while True:
                while pending and pending[0].settled:
                    task = pending.popleft()
                    yield self._outcome_of(task)
                # Top up: resubmissions first (head-most), then fresh
                # input.  While any crash suspect is unsettled the
                # window narrows to one so the next pool break blames
                # exactly one task.
                probing = any(t.suspect and not t.settled
                              for t in pending)
                cap = 1 if probing else window
                in_flight = sum(1 for t in pending
                                if t.future is not None
                                and not t.settled)
                try:
                    for task in pending:
                        if in_flight >= cap:
                            break
                        if task.future is None and not task.settled:
                            self._submit(pool, task, trial_fn)
                            in_flight += 1
                    while in_flight < cap and not exhausted:
                        task = next(task_iter, None)
                        if task is None:
                            exhausted = True
                            break
                        # Enqueue before submitting: a submit that dies
                        # with the pool must not lose the epoch.
                        pending.append(task)
                        self._submit(pool, task, trial_fn)
                        in_flight += 1
                except BrokenProcessPool:
                    _pool_broke()
                    continue
                if not pending:
                    break
                head = pending[0]
                if head.settled:
                    continue
                try:
                    result = head.future.result(
                        timeout=self.task_timeout_s)
                except _FuturesTimeout:
                    if head.future.done():
                        # An in-worker TimeoutError, not tenure expiry.
                        _worker_error(head, head.future.exception())
                        continue
                    head.crashes += 1
                    _restart_pool()
                    if head.crashes >= CRASH_STRIKES:
                        _fail(head, "TaskHangError: task exceeded the "
                              f"{self.task_timeout_s:g}s watchdog "
                              f"{head.crashes} times; quarantined")
                except BrokenProcessPool:
                    _pool_broke()
                except Exception as exc:  # noqa: BLE001 — supervision
                    _worker_error(head, exc)
                else:
                    _done(head, result)
        finally:
            # Consumer abandoned the iterator, or we are done: cancel
            # what never started, join the workers, then unlink every
            # leftover block (safe once no worker can be attached).
            for task in pending:
                if task.future is not None:
                    task.future.cancel()
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except TypeError:  # pragma: no cover - Python < 3.9
                pool.shutdown(wait=True)
            for task in pending:
                task.release_shm()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   initializer=_init_worker,
                                   initargs=(self.config,))

    def _outcome_of(self, task: _Task) -> EpochOutcome:
        if task.done:
            return _settled(task.index, task.result,
                            max(task.attempts, 1))
        return EpochOutcome(epoch_index=task.index, status="failed",
                            attempts=max(task.attempts, 1),
                            error=task.error or "task failed")

    def _submit(self, pool: ProcessPoolExecutor, task: _Task,
                trial_fn: Callable) -> None:
        """Submit one task, preferring the shared-memory transport.

        Falls back to the pickle transport per task when the block
        cannot be created (exhausted ``/dev/shm``, zero-size trace) —
        the work itself is transport-agnostic.  Trace-less trials
        always pickle (there are no samples to move).
        """
        task.attempts += 1
        trace = task.trace
        if self.use_shared_memory and trace is not None:
            samples = np.ascontiguousarray(trace.samples,
                                           dtype=np.complex128)
            try:
                task.shm = _shared_memory.SharedMemory(
                    create=True, size=samples.nbytes)
                np.ndarray(samples.shape, dtype=np.complex128,
                           buffer=task.shm.buf)[:] = samples
                task.future = pool.submit(
                    _trial_task_shm, trial_fn, task.shm.name,
                    samples.size, trace.sample_rate_hz,
                    trace.start_time_s, task.payload, task.seed_seq)
                return
            except BrokenProcessPool:
                task.release_shm()
                raise
            except (OSError, ValueError):
                task.release_shm()
        task.future = pool.submit(_trial_task, trial_fn, trace,
                                  task.payload, task.seed_seq)

    def aggregate_timings(self, results: Iterable[EpochResult]
                          ) -> Dict[str, float]:
        """Sum per-stage wall-clock seconds across epoch results."""
        total: Dict[str, float] = {}
        for result in results:
            StatsAccumulator.merge_timing(total, result.stage_timings)
        return total


def _settled(index: int, result: Any,
             attempts: int) -> EpochOutcome:
    degraded = bool(getattr(result, "degraded", False))
    status = "degraded" if degraded else "ok"
    return EpochOutcome(epoch_index=index, status=status, result=result,
                        attempts=attempts)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung or broken) pool down without waiting on
    its tasks: terminate the workers first, then reap them."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        proc.terminate()
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - Python < 3.9
        pool.shutdown(wait=False)
    for proc in processes:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - terminate sufficed
            proc.kill()
            proc.join(timeout=5.0)


def _take(iterator: Iterator, n: int) -> Iterator:
    """First ``n`` items of ``iterator`` (fewer if it runs dry)."""
    for _ in range(n):
        try:
            yield next(iterator)
        except StopIteration:
            return
