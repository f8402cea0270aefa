"""Shared machinery of the repository benchmark.

Everything here is independent of a particular workload: the benchmark
definition (``BENCHMARK.json``) and its limits, percentiles that refuse
to report a tail the sample cannot support, ratios that carry their
base, the per-chunk latency ledger, spans and their self time, the
run's provenance, the proportional memory of a process tree, and
timing wrappers around the decoder's kernel backend.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
WORKLOAD_RANGE = (2, 8)
MAX_BOUND = 0.25
#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail is noise, not a measurement.
MIN_TAIL = 10


# -- benchmark definition -----------------------------------------------------

def load_definition(path: Path = BENCHMARK_FILE) -> dict:
    """Read ``BENCHMARK.json`` and check it against its limits."""
    with open(path) as fh:
        definition = json.load(fh)
    problems = validate_definition(definition)
    if problems:
        raise ValueError("BENCHMARK.json: " + "; ".join(problems))
    return definition


def validate_definition(definition: dict) -> List[str]:
    """Every way ``definition`` breaks the benchmark's limits."""
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(definition) != expected:
        problems.append(f"keys {sorted(definition)} != {sorted(expected)}")
        return problems
    workloads = definition["workloads"]
    if not WORKLOAD_RANGE[0] <= len(workloads) <= WORKLOAD_RANGE[1]:
        problems.append(f"{len(workloads)} workloads, want "
                        f"{WORKLOAD_RANGE[0]}-{WORKLOAD_RANGE[1]}")
    if not 1 <= len(definition["end_to_end"]) <= MAX_END_TO_END:
        problems.append(f"{len(definition['end_to_end'])} end-to-end "
                        f"metrics, want 1-{MAX_END_TO_END}")
    if not 1 <= len(definition["per_layer"]) <= MAX_PER_LAYER:
        problems.append(f"{len(definition['per_layer'])} per-layer "
                        f"metrics, want 1-{MAX_PER_LAYER}")
    seconds = definition["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append(f"run_seconds {seconds!r} not an int in 1-60")
    names = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why too long")
        names.append(w.get("name", ""))
    for m in definition["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end metric keys {sorted(m)}")
            continue
        if not 0 < m["bound"] <= MAX_BOUND:
            problems.append(f"{m['name']}: bound {m['bound']} "
                            f"outside (0, {MAX_BOUND}]")
    if "setup_s" not in [m.get("name") for m in definition["end_to_end"]]:
        problems.append("no setup_s end-to-end metric")
    for m in definition["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric keys {sorted(m)}")
    for m in definition["end_to_end"] + definition["per_layer"]:
        names.append(m.get("name", ""))
        if not UNIT_RE.match(str(m.get("unit", ""))):
            problems.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("higher", "lower"):
            problems.append(f"{m.get('name')}: bad direction")
    for name in names:
        if not NAME_RE.match(str(name)):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    return problems


# -- statistics ---------------------------------------------------------------

@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and the sample it came from.

    ``value`` is ``None`` when fewer than :data:`MIN_TAIL` samples lie
    beyond the rank, i.e. the sample cannot support that percentile.
    """

    q: float
    value: Optional[float]
    n: int

    def require(self, what: str) -> float:
        if self.value is None:
            raise ValueError(
                f"{what}: p{self.q:g} needs {MIN_TAIL} samples beyond "
                f"it, have {self.n} samples")
        return self.value


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``)."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return Percentile(q, None, 0)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank if q >= 50 else rank - 1
    if beyond < MIN_TAIL:
        return Percentile(q, None, n)
    return Percentile(q, data[rank - 1], n)


def windowed_percentile(values: Sequence[float], q: float,
                        max_windows: int = 8) -> Tuple[float, str]:
    """Median over consecutive windows of each window's percentile.

    ``values`` are in time order.  They are cut into as many equal
    windows (at most ``max_windows``) as still leave every window
    :data:`MIN_TAIL` samples beyond its percentile, so a short stall of
    the host moves one window and not the result.  With room for only
    one window this is :func:`percentile` itself.  Returns the value
    and a note stating the sample counts.
    """
    n = len(values)
    tail = 1.0 - q / 100.0 if q >= 50 else q / 100.0
    per_window = math.ceil(MIN_TAIL / tail)
    k = max(1, min(max_windows, n // per_window))
    size = n // k
    windows = [percentile(values[i * size:(i + 1) * size], q).require(
        f"p{q:g}") for i in range(k)]
    return statistics.median(windows), \
        f"n={n}, median of {k} windows of {size}"


def latency_metrics(latencies: Sequence[float]) -> Dict[str, tuple]:
    """The end-to-end latency metrics: windowed p50 and p90.

    The tail is reported at p90 rather than p95: on a shared two-core
    host the p95 of short chunks moves by a fifth between runs of the
    same code, which no bound can absorb.  The whole-sample p95 is
    still stated beside it.
    """
    p90, note = windowed_percentile(latencies, 90)
    p95 = percentile(latencies, 95)
    if p95.value is not None:
        note += f"; whole-sample p95 {p95.value:.4g} s"
    return {"latency_p50_s": windowed_percentile(latencies, 50),
            "latency_p90_s": (p90, note)}


@dataclass(frozen=True)
class Ratio:
    """``num / base``; a zero base gives 0.0 and says so."""

    num: float
    base: float

    @property
    def value(self) -> float:
        return self.num / self.base if self.base else 0.0

    def describe(self) -> str:
        if not self.base:
            return "n/a (base 0)"
        return f"{self.value:.4f} ({self.num:g}/{self.base:g})"


def ratio(num: float, base: float) -> Ratio:
    return Ratio(float(num), float(base))


@dataclass(frozen=True)
class Ledger:
    """Where one chunk's latency went, from its scheduled send time.

    ``admission`` runs from the schedule to ``frame.submitted_at``
    (generator lag plus the backpressure wait inside ``submit``),
    ``wait`` is the service's own latency minus the decode call (queue
    wait, IPC and retire), ``decode`` the decode call, and ``residual``
    whatever the benchmark saw that the parts do not cover.
    """

    latency: float
    admission: float
    wait: float
    decode: float
    residual: float


def ledger(due: float, submitted_at: float, service_latency: float,
           decode_s: float, done_at: float) -> Ledger:
    latency = done_at - due
    admission = submitted_at - due
    wait = service_latency - decode_s
    residual = latency - (admission + wait + decode_s)
    return Ledger(latency, admission, wait, decode_s, residual)


def backlog_growing(backlog: Sequence[int]) -> bool:
    """True when an open loop's backlog grows over the phase.

    ``backlog`` holds, at each scheduled send, the chunks scheduled so
    far minus those completed.  A sustainable rate keeps it flat; an
    unsustainable one grows it linearly, so its mean over the last
    quarter exceeds twice its mean over the first half (plus slack
    for a few chunks in flight).
    """
    n = len(backlog)
    if n < 8:
        return False
    first = backlog[:n // 2]
    last = backlog[n - n // 4:]
    return (sum(last) / len(last)) > 2.0 * (sum(first) / len(first)) + 2


# -- spans --------------------------------------------------------------------

@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A disabled tracer hands out a shared no-op context, so the
    untraced run pays one attribute lookup per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextlib.contextmanager
    def _span(self, name: str, item):
        span_id = self._new_id()
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.add(Span(span_id, name, start, end, parent,
                          None if item is None else str(item)))

    def span(self, name: str, item=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, item)

    def record(self, name: str, start: float, end: float, item=None,
               parent: Optional[int] = None) -> int:
        """Add a span measured elsewhere (a worker, a result record)."""
        span_id = self._new_id()
        if self.enabled:
            self.add(Span(span_id, name, start, end, parent,
                          None if item is None else str(item)))
        return span_id

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and self seconds."""
        own = self_times(self.spans)
        out: Dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name,
                                 {"count": 0, "total_s": 0.0,
                                  "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own[span.span_id]
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent,
                                     "item": s.item}) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered(children.get(s.span_id, ()),
                                            s.start, s.end)
            for s in spans}


# -- kernels ------------------------------------------------------------------

KERNEL_METHODS = ("lloyd_batched", "bounded_lloyd", "lattice_match_errors",
                  "edge_differentials", "viterbi_exact", "viterbi_banded")


class KernelTimer:
    """Times calls into the decoder's kernel backend in this process.

    Wrapping shadows the backend instance's methods (the pipeline looks
    them up on every call) and :meth:`close` removes the shadows.
    """

    def __init__(self, backend, tracer: Optional[Tracer] = None):
        self.backend = backend
        self.tracer = tracer
        self.calls: Dict[str, int] = {m: 0 for m in KERNEL_METHODS}
        self.seconds: Dict[str, float] = {m: 0.0 for m in KERNEL_METHODS}
        for method in KERNEL_METHODS:
            setattr(backend, method,
                    self._wrap(method, getattr(backend, method)))

    def _wrap(self, method: str, fn):
        calls, seconds, tracer = self.calls, self.seconds, self.tracer

        def timed(*args, **kwargs):
            if tracer is not None and tracer.enabled:
                with tracer.span(f"core.kernels.{method}"):
                    start = time.perf_counter()
                    out = fn(*args, **kwargs)
            else:
                start = time.perf_counter()
                out = fn(*args, **kwargs)
            seconds[method] += time.perf_counter() - start
            calls[method] += 1
            return out
        return timed

    def close(self) -> None:
        for method in KERNEL_METHODS:
            self.backend.__dict__.pop(method, None)


# -- provenance ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout


def source_digest(root: Path = ROOT / "src") -> str:
    """SHA-256 over every file of the program's source tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def config_hash(*parts) -> str:
    """Stable key for a parameter set (workload plus decoder config)."""
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def provenance(seed: int, params_hash: str) -> dict:
    import numpy
    sha = dirty = None
    # A plain checkout is not a git repository; only ask git when this
    # tree is one, so git never reports an enclosing repository.
    if (ROOT / ".git").exists():
        head = _git("rev-parse", "HEAD")
        sha = head.strip() if head else None
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "seed": seed,
        "params_hash": params_hash,
    }


# -- memory -------------------------------------------------------------------

def _child_pids(pid: int) -> List[int]:
    pids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def descendants(pid: Optional[int] = None) -> List[int]:
    """Every live descendant process of ``pid`` (default: this one)."""
    out, todo = [], _child_pids(pid or os.getpid())
    while todo:
        child = todo.pop()
        out.append(child)
        todo.extend(_child_pids(child))
    return out


def _private_pss_kb(pid: int) -> int:
    """PSS of ``pid`` without shared-memory segments, in kB."""
    fields = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in ("Pss", "Pss_Shmem"):
                    fields[key] = int(rest.split()[0])
    except (OSError, ValueError):
        pass
    return fields.get("Pss", 0) - fields.get("Pss_Shmem", 0)


def tree_pss_mb() -> float:
    """Proportional set size of this process plus its descendants.

    PSS splits shared pages between the processes mapping them, so a
    forked worker's copy-on-write pages count once across the tree.
    Shared-memory segments are left out: how much of a service's
    fixed-size frame rings has been touched depends on timing alone.
    """
    me = os.getpid()
    return sum(_private_pss_kb(p) for p in [me] + descendants(me)) / 1024.0


# -- idle vCPUs ---------------------------------------------------------------

_SPINNER = """\
import os, sys
parent = os.getppid()
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
sys.stdout.write("ready\\n")
sys.stdout.flush()
while os.getppid() == parent:  # ends by itself if orphaned
    pass
"""


@contextlib.contextmanager
def cpus_awake():
    """Keep every usable CPU from going idle while the block runs.

    On a virtual machine an idle vCPU is halted and handed back to the
    host, and waking it when the next chunk arrives takes from
    microseconds to milliseconds depending on other guests' load, not
    on the program.  Between the chunks of an open loop the CPUs idle
    often, so that wake-up would dominate the spread of its latency
    tail.  One spinner per CPU in the idle scheduling class (nice 19
    where that class is refused) keeps each vCPU running and gives way
    at once to any runnable task of the program.
    """
    procs = []
    try:
        for _ in range(len(os.sched_getaffinity(0))):
            proc = subprocess.Popen([sys.executable, "-c", _SPINNER],
                                    stdout=subprocess.PIPE)
            procs.append(proc)
            if proc.stdout.readline() != b"ready\n":
                raise RuntimeError("CPU spinner did not start")
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


# -- layer metrics ------------------------------------------------------------

#: Tag bitrate of every workload; the decoder knows it by protocol.
BITRATE_BPS = 10e3
#: The decoder's timed stages, as ``EpochResult.stage_timings`` names
#: them (it adds ``total``).
STAGES = ("guard", "edge", "fold", "extract", "detect", "separate",
          "viterbi")


def decoder_config(profile):
    """The decoder every workload runs; the kernel backend is named so
    REPRO_KERNEL_BACKEND is never consulted."""
    from repro.core.pipeline import LFDecoderConfig
    return LFDecoderConfig(candidate_bitrates_bps=[BITRATE_BPS],
                           profile=profile, kernel_backend="reference")


def pct(values, q) -> tuple:
    """A percentile as a metric: (value, note); too few samples raise."""
    p = percentile(values, q)
    return p.require(f"p{q}"), f"n={p.n}"


def share(num, base, what: str = "") -> tuple:
    """A ratio as a metric: (value, note stating its base)."""
    r = ratio(num, base)
    return r.value, (what + "; " if what else "") + r.describe()


def fidelity_ratios(stats: Dict[str, int]) -> Dict[str, tuple]:
    """Share of each fidelity gate's decisions that took the fast path,
    from summed ``EpochResult.fidelity_stats``."""
    out = {}
    for gate in ("pregate", "subsample", "multilevel"):
        fast = stats.get(f"{gate}_fast", 0)
        out[f"core.fidelity.{gate}_fast_ratio"] = share(
            fast, fast + stats.get(f"{gate}_escalations", 0))
    banded = stats.get("viterbi_banded", 0)
    out["core.fidelity.viterbi_banded_ratio"] = share(
        banded, banded + stats.get("viterbi_exact", 0))
    return out


def kernel_metrics(calls: Dict[str, int], seconds: Dict[str, float],
                   what: str) -> Dict[str, tuple]:
    """Kernel call count and per-kernel seconds from a KernelTimer."""
    out = {"core.kernels.calls": (sum(calls.values()), what)}
    for m in ("lloyd_batched", "viterbi_exact", "viterbi_banded",
              "edge_differentials", "lattice_match_errors"):
        out[f"core.kernels.{m}_s"] = (seconds.get(m, 0.0),
                                      f"{calls.get(m, 0)} calls")
    return out


# -- output -------------------------------------------------------------------

def log(msg: str) -> None:
    print(msg, flush=True)
