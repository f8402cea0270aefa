"""Process-backed shard executor: one long-lived child per shard.

``ServiceConfig.executor = "process"`` swaps each shard's in-thread
decode for a child process that holds the shard's warm
:class:`~repro.service.worker.SessionPool` resident across frames.
The division of labour keeps every piece of mutable ring state in
exactly one process:

* the **parent** keeps the shard queue, all :class:`ChunkRing`
  bookkeeping (allocate / retire / reclaim), shedding, supervision and
  terminal accounting — exactly the thread executor's dispatcher loop,
  with the decode call replaced by a pipe round-trip;
* the **child** attaches the ring's shared-memory block by name
  (:class:`~repro.service.framing.RingView`) and decodes each frame
  zero-copy from the ``(start, n)`` region the parent sends, running
  the same :class:`SessionPool` code the thread executor runs — same
  seeds, same retry budget, so decodes stay bit-identical.

The pipe protocol is **lock-step**: at most one command is in flight
per child, serialized by an IPC lock in the parent.  That makes kill
blame exact (a dead child was holding exactly the frame the parent
just sent), keeps terminal accounting trivially exact, and needs no
cross-process queue.

Supervision mirrors the batch engine's pool supervision
(:mod:`repro.core.engine`):

* a **deliberate kill** (chaos ``ChaosWorkerKill`` raised inside the
  child's decode) is announced by the child (``("died", …)``) before
  it exits; the parent fails the frame immediately — the same verdict
  the thread executor delivers when the kill tears down its worker
  thread — and respawns the child;
* a **silent crash** (pipe EOF with no announcement: segfault,
  ``kill -9``) or a **hang** (no verdict within
  ``ServiceConfig.child_timeout_s`` → the parent terminates the
  child) respawns the child and resubmits the frame once — sessions
  rebuild from the same stream seeds, so the retried decode is
  bit-identical — failing the frame after
  :data:`~repro.core.engine.CRASH_STRIKES` strikes, the batch
  engine's quarantine;
* either way the parent retires the frame's ring region itself, so a
  dying child can never leak a ring slot or pin ``/dev/shm``.

Metrics produced in the child (retries, session respawns/evictions,
stage latencies) ride back on each verdict as a registry snapshot
*delta* (:func:`repro.service.metrics.diff_snapshot`) and are merged
into the parent's registry, so one exposition covers both executors.

Children are forked in :meth:`ProcessShardWorker.prestart`, before the
service starts any dispatcher thread: forking a single-threaded parent
cannot inherit a lock mid-acquire, and the child's surviving stack
keeps the parent's object graph (other shards' rings included) pinned
so no inherited ``ChunkRing.__del__`` can ever fire in the child and
unlink a block the parent still owns.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
from typing import Callable, Dict, Optional, Tuple

from ..core.engine import CRASH_STRIKES
from ..errors import ConfigurationError
from ..types import EpochResult
from .config import ServiceConfig
from .framing import ChunkFrame, RingView
from .metrics import MetricsRegistry, RegistrySnapshotter
from .worker import (STATUS_FAILED, ChunkResult, SessionPool,
                     ShardWorker)

#: How long the parent waits for a child to acknowledge ``("stop",)``
#: before escalating to ``terminate()``.
_REAP_TIMEOUT_S = 5.0

#: Verdict tuple shipped child → parent: (status, result, attempts,
#: error, decode_s).  The parent adds the attempts its dead children
#: started before this one answered.
_Verdict = Tuple[str, Optional[EpochResult], int, Optional[str], float]


class ProcessShardWorker(ShardWorker):
    """One shard = the parent dispatcher thread + a child process.

    Drop-in for :class:`ShardWorker`: queueing, shedding, ring
    ownership, ``join_idle`` and result delivery are all inherited —
    only ``_decode_frame`` changes, into a supervised pipe round-trip.
    """

    def __init__(self, shard_id: int, config: ServiceConfig,
                 registry: MetricsRegistry,
                 on_result: Callable[[ChunkResult], None]):
        super().__init__(shard_id, config, registry, on_result)
        if self.ring.shm_name is None:
            raise ConfigurationError(
                "executor='process' needs shared-memory rings "
                "(/dev/shm must have room)")
        self._registry = registry
        # Lock-step IPC: one command in flight per child, ever.
        self._ipc = threading.Lock()
        self._ctx = (mp.get_context("fork")
                     if "fork" in mp.get_all_start_methods()
                     else mp.get_context())
        self._child: Optional[mp.process.BaseProcess] = None
        self._conn = None

    # -- child lifecycle ---------------------------------------------------

    def prestart(self) -> None:
        with self._ipc:
            self._spawn_child_locked()

    def _spawn_child_locked(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_child_main,
            args=(self.shard_id, self.config, self.ring.shm_name,
                  child_conn),
            name=f"lf-shard-proc-{self.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        self._child = proc
        self._conn = parent_conn

    def _reap_child_locked(self, graceful: bool) -> None:
        conn, proc = self._conn, self._child
        self._conn, self._child = None, None
        if conn is not None:
            if graceful:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        if proc is not None:
            proc.join(timeout=_REAP_TIMEOUT_S if graceful else 0.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_REAP_TIMEOUT_S)
                if proc.is_alive():  # pragma: no cover - last resort
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except (OSError, TypeError):
                        pass
                    proc.join(timeout=_REAP_TIMEOUT_S)
        if conn is not None:
            conn.close()

    def _respawn_child_locked(self) -> None:
        self._reap_child_locked(graceful=False)
        self._m_respawns.inc(1.0, shard=self._shard_label,
                             kind="worker_process")
        self._spawn_child_locked()

    def _shutdown_executor(self) -> None:
        with self._ipc:
            self._reap_child_locked(graceful=True)

    # -- supervised decode -------------------------------------------------

    def _decode_frame(self, frame: ChunkFrame) -> ChunkResult:
        try:
            status, result, attempts, error, decode_s = \
                self._ipc_decode(frame)
        finally:
            # The parent owns retirement: whatever happened to the
            # child, the frame's ring region is reclaimed here and the
            # slot cannot leak.
            if frame.frame_id >= 0:
                self.ring.retire(frame.frame_id)
        return self._complete(frame, status, result, attempts, error,
                              decode_s)

    def _ipc_decode(self, frame: ChunkFrame) -> _Verdict:
        region = ((-1, 0) if frame.frame_id < 0
                  else self.ring.region(frame.frame_id))
        with self._ipc:
            last_error = "worker process unavailable"
            # Attempts lost with a silently dead or hung child: one
            # each (how far its own retry loop got is unknowable).
            lost = 0
            for strike in range(1, CRASH_STRIKES + 1):
                if self._conn is None or self._child is None or \
                        not self._child.is_alive():
                    self._respawn_child_locked()
                conn = self._conn
                try:
                    conn.send(("frame", frame, region[0], region[1]))
                except (BrokenPipeError, OSError):
                    last_error = "worker process pipe broke on send"
                    self._respawn_child_locked()
                    continue
                kind, payload = self._await_reply_locked(conn)
                if kind == "result":
                    status, result, attempts, error, decode_s, delta \
                        = payload
                    if delta:
                        self._registry.apply_delta(delta)
                    return (status, result, lost + attempts, error,
                            decode_s)
                if kind == "died":
                    # Deliberate in-decode kill (chaos): the child
                    # announced it.  Fail the frame immediately — the
                    # thread executor's verdict for the same fault —
                    # and bring up a fresh child for the next frame.
                    reason, attempts = payload
                    self._respawn_child_locked()
                    return (STATUS_FAILED, None, lost + attempts,
                            f"worker died: {reason}", 0.0)
                lost += 1
                if kind == "hang":
                    last_error = (
                        f"worker process hung > "
                        f"{self.config.child_timeout_s}s (strike "
                        f"{strike}/{CRASH_STRIKES})")
                else:  # silent crash: EOF with no announcement
                    last_error = (
                        f"worker process died (strike "
                        f"{strike}/{CRASH_STRIKES})")
                self._respawn_child_locked()
            return STATUS_FAILED, None, lost, last_error, 0.0

    def _await_reply_locked(self, conn) -> Tuple[str, object]:
        """Wait for the child's reply to one ``("frame", …)`` command.

        Returns ``("result", verdict)``, ``("died", (reason, attempts))``,
        ``("hang", None)`` on ``child_timeout_s`` expiry, or
        ``("eof", None)`` when the child vanished silently.
        """
        timeout = self.config.child_timeout_s
        while True:
            try:
                if not conn.poll(0.2 if timeout is None
                                 else min(0.2, timeout)):
                    if timeout is not None:
                        timeout -= 0.2
                        if timeout <= 0:
                            return "hang", None
                    continue
                msg = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                return "eof", None
            if msg[0] in ("result", "died"):
                return msg[0], msg[1:]
            # Unsolicited message (stale cache_stats reply from a
            # previous incarnation) — drop and keep waiting.

    # -- pass-through queries ----------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Warm-cache counters fetched from the child over the pipe
        (empty when the child is between incarnations)."""
        with self._ipc:
            conn = self._conn
            if conn is None or self._child is None or \
                    not self._child.is_alive():
                return {}
            try:
                conn.send(("cache_stats",))
                while conn.poll(_REAP_TIMEOUT_S):
                    msg = conn.recv()
                    if msg[0] == "cache_stats":
                        return msg[1]
                    if msg[0] == "died":  # pragma: no cover - racing
                        return {}
            except (EOFError, ConnectionResetError, BrokenPipeError,
                    OSError):
                pass
            return {}


def _child_main(shard_id: int, config: ServiceConfig,
                ring_name: str, conn) -> None:
    """Child process loop: attach the ring, decode frames lock-step.

    Runs the exact :class:`SessionPool` the thread executor runs,
    against the child's own registry; every verdict ships the
    registry's delta since the last one so the parent's exposition
    stays live.  Exits through ``os._exit`` so no inherited finalizer
    (another shard's ring, the parent's metrics state) ever runs here.
    """
    # The parent handles SIGINT/SIGTERM and shuts children down over
    # the pipe; a tty Ctrl-C must not snipe the child mid-decode.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    registry = MetricsRegistry()
    snapshotter = RegistrySnapshotter(registry)
    pool = SessionPool(shard_id, config, registry)
    ring = RingView(ring_name)
    exit_code = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                break  # parent is gone; nothing to report to
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "cache_stats":
                try:
                    conn.send(("cache_stats", pool.cache_stats()))
                except (BrokenPipeError, OSError):
                    break
                continue
            if kind != "frame":  # pragma: no cover - unknown command
                continue
            _, frame, start, n = msg
            samples = (frame.inline if frame.frame_id < 0
                       else ring.view(start, n))
            try:
                verdict = pool.decode(frame, samples)
            except BaseException as exc:  # noqa: BLE001 - chaos kill
                # Deliberate kill: announce, then die hard so the
                # parent's supervision (not a half-alive loop) owns
                # what happens next.
                try:
                    conn.send(("died", f"{type(exc).__name__}: {exc}",
                               pool.attempts_started))
                except (BrokenPipeError, OSError):
                    pass
                exit_code = 1
                break
            try:
                conn.send(("result",) + verdict +
                          (snapshotter.delta(),))
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            ring.close()
            conn.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        os._exit(exit_code)
