"""Stream workloads: many readers' IQ through ``DecodeService``.

One asyncio generator in this process drives a two-shard service on
the process executor.  Inputs are rendered from the workload seed
before each phase, outside its timing: per reader, one contiguous
session of 10 ms epochs whose tag population is replaced every
``churn_every`` epochs.

A run alternates two kinds of phase, each on a fresh service and on
inputs of its own:

* closed loop, fixed work, five times: every reader's session is
  submitted with ``block`` backpressure and drained (throughput);
* open loop at a fixed share of the frozen capacity, in four parts
  between the closed loops: chunks are sent on a fixed schedule and
  each is timed from its due time (latency and its ledger, generator
  lag, backlog), with the CPUs kept from idling.

Every phase's output is scored against truth (goodput, tags found).

The traced run traces the middle closed loop, whose untraced siblings
are the reference for the tracing overhead, and the open loop; it
times the benchmark's calls into the service, the framing ring and, in
a separate in-process decode, the kernel backend.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (BITRATE_BPS, STAGES, KernelTimer, Tracer,
                     backlog_growing, cpus_awake, decoder_config,
                     fidelity_ratios, kernel_metrics, latency_metrics,
                     ledger, log, pct, ratio, share, tree_pss_mb)

from repro.analysis.throughput import match_streams
from repro.core.kernels import resolve_backend
from repro.core.pipeline import LFDecoderConfig
from repro.core.session_decoder import SessionDecoder
from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.reader.batch import chunk_trace, decode_chunked
from repro.reader.epoch import EpochCapture, TagTruth
from repro.service import (BLOCK, PROCESS, ChunkRing, DecodeService,
                           ServiceConfig, merge_stream_results,
                           stream_seed)
from repro.types import EpochResult, IQTrace, SimulationProfile
# The golden suite's definition of bit-identical decoder output.
from tests.golden.generate_digests import digest_result

#: Closed-loop repetitions per run; the open loop runs in the gaps
#: between them.  Short phases spread over the run sample more of the
#: host's spells of speed, which last seconds.
CLOSED_REPEATS = 5
OPEN_PARTS = CLOSED_REPEATS - 1
SAMPLE_BYTES = 16  # complex128


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    readers: int
    tags: int
    chunks_per_epoch: int
    #: Epochs between tag-population replacements (tag churn).
    churn_every: int
    #: Closed-loop samples/s of the two-core reference host (median of
    #: ten runs), frozen so that the amount of work and the offered
    #: rate never depend on the code under test.
    capacity_sps: float
    #: Open-loop offered rate as a share of ``capacity_sps``: about
    #: half or less, with room for the +-20 % swings in speed the
    #: reference host shows, so that a slow spell never pushes the open
    #: loop into the knee of its latency curve.  Short chunks reach the
    #: knee sooner (per-chunk work in the service process), so they get
    #: less.
    open_load: float
    #: Share of ``--seconds`` spent in the open loop; the rest, split
    #: over the closed-loop repetitions, sizes their fixed work at
    #: ``capacity_sps``.
    open_share: float
    drift_ppm: float = 150.0
    epoch_s: float = 0.01
    n_shards: int = 2
    queue_depth: int = 8
    #: Service start-ups timed before each closed-loop repetition.
    setup_repeats: int = 3
    #: Epochs of one stream decoded in process with the kernel backend
    #: timed (traced run only).
    kernel_epochs: int = 4

    @property
    def offered_sps(self) -> float:
        return self.open_load * self.capacity_sps


@dataclass
class Session:
    """One reader's rendered, chunked session plus its truth."""

    reader: int
    trace: IQTrace
    chunk_samples: int
    chunks: List[IQTrace]
    shifts: List[float]
    #: Per epoch: (first global sample, truths in epoch coordinates).
    epochs: List[Tuple[int, list]]


def service_config(w: StreamWorkload, cfg: LFDecoderConfig,
                   seed: int) -> ServiceConfig:
    # The executor is passed explicitly so REPRO_SERVICE_EXECUTOR is
    # never consulted.
    return ServiceConfig(n_shards=w.n_shards, executor=PROCESS,
                         queue_depth=w.queue_depth, overflow=BLOCK,
                         decoder=cfg, seed=seed)


def session_epochs(w: StreamWorkload, seconds: float,
                   profile: SimulationProfile) -> int:
    epoch_samples = round(profile.sample_rate_hz * w.epoch_s)
    work = w.capacity_sps * (1.0 - w.open_share) * seconds / CLOSED_REPEATS
    return max(w.churn_every,
               round(work / (w.readers * epoch_samples)))


def render(w: StreamWorkload, seed: int, stream: int, n_epochs: int,
           profile: SimulationProfile) -> List[Session]:
    """One session per reader; ``stream`` tells phases' inputs apart."""
    sessions = []
    for reader in range(w.readers):
        pieces, epochs = [], []
        synth = None
        for e in range(n_epochs):
            generation, first = divmod(e, w.churn_every)
            if first == 0:
                # A new population carries new tag ids, so the decoder
                # sees new streams rather than drift of old ones.
                spec = ScenarioSpec(
                    name=f"{w.name}_r{reader}_g{generation}",
                    n_tags=w.tags, bitrate_bps=BITRATE_BPS,
                    drift_ppm=w.drift_ppm, epoch_s=w.epoch_s,
                    tag_id_base=generation * w.tags)
                synth = ScenarioSynth(spec, profile=profile,
                                      rng=np.random.default_rng(
                                          [seed, stream, reader,
                                           generation]))
            capture = synth.capture(w.epoch_s, epoch_index=e)
            epochs.append((sum(len(p) for p in pieces), capture.truths))
            pieces.append(capture.trace.samples)
        trace = IQTrace(np.concatenate(pieces), profile.sample_rate_hz)
        chunk_samples = len(pieces[0]) // w.chunks_per_epoch
        # Chunks and shifts exactly as decode_chunked derives them, so
        # the service and the offline replay see identical inputs.
        chunks = chunk_trace(trace, chunk_samples)
        fs = trace.sample_rate_hz
        shifts = [(c.start_time_s - trace.start_time_s) * fs
                  for c in chunks]
        sessions.append(Session(reader, trace, chunk_samples, chunks,
                                shifts, epochs))
    return sessions


# -- scoring ------------------------------------------------------------------

def window_truths(truths, epoch_start: int, lo: int, hi: int):
    """Each truth tag's bits lying wholly inside samples ``[lo, hi)``,
    in global coordinates; a chunk is a decode window of its own."""
    out = []
    for t in truths:
        origin = epoch_start + t.offset_samples
        k0 = max(0, math.ceil((lo - origin) / t.period_samples))
        k1 = min(t.n_bits, math.floor((hi - origin) / t.period_samples))
        if k1 > k0:
            out.append(TagTruth(t.tag_id, t.bits[k0:k1],
                                origin + k0 * t.period_samples,
                                t.period_samples, t.nominal_bitrate_bps,
                                t.coefficient))
    return out


def score(session: Session, merged: EpochResult) -> Dict[str, int]:
    """Bits and tags recovered against truth, epoch by epoch."""
    epoch_len = (session.epochs[1][0] if len(session.epochs) > 1
                 else len(session.trace))
    by_epoch: Dict[int, list] = {}
    for stream in merged.streams:
        by_epoch.setdefault(int(stream.offset_samples // epoch_len),
                            []).append(stream)
    totals = {"bits_sent": 0, "bits_correct": 0, "truth_tags": 0,
              "tags_found": 0}
    n = session.chunk_samples
    for index, (start, truths) in enumerate(session.epochs):
        segments = []
        for lo in range(start, start + epoch_len, n):
            segments += window_truths(truths, start, lo, lo + n)
        capture = EpochCapture(session.trace.slice(start,
                                                   start + epoch_len),
                               truths=segments)
        matches = match_streams(
            capture, EpochResult(streams=by_epoch.get(index, [])))
        totals["bits_sent"] += sum(m.bits_sent for m in matches)
        totals["bits_correct"] += sum(m.bits_correct for m in matches)
        totals["truth_tags"] += len(truths)
        found = {m.tag_id for m in matches if m.matched}
        totals["tags_found"] += len(found)
    return totals


# -- phases -------------------------------------------------------------------

@dataclass
class Phase:
    wall_s: float = 0.0
    setup_s: float = 0.0
    submitted: int = 0
    decoded: int = 0
    failed: int = 0
    shed: int = 0
    samples_decoded: int = 0
    inline_fallbacks: int = 0
    retries: float = 0.0
    respawns: float = 0.0
    evictions: float = 0.0
    queue_depth_max: int = 0
    accounting_exact: bool = False
    #: Memory of this process and the shard children once drained,
    #: with every stream's warm session resident.
    pss_mb: float = 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples_decoded / self.wall_s


class _Collector:
    """Result handler: stamps each terminal verdict as it arrives."""

    def __init__(self):
        self.done: list = []

    def __call__(self, outcome) -> None:
        self.done.append((outcome, time.perf_counter()))


def _close_phase(service: DecodeService, phase: Phase,
                 collector: _Collector) -> None:
    phase.pss_mb = tree_pss_mb()
    stats = service.snapshot()
    phase.submitted = stats.submitted
    phase.decoded = stats.decoded
    phase.failed = stats.failed
    phase.shed = stats.shed
    phase.samples_decoded = stats.samples_decoded
    phase.inline_fallbacks = stats.inline_fallbacks
    phase.accounting_exact = (
        stats.submitted == stats.decoded + stats.failed + stats.shed
        == len(collector.done))
    registry = service.metrics
    phase.retries = registry.counter("lf_chunk_retries_total").total()
    phase.respawns = registry.counter("lf_session_respawns_total").total()
    phase.evictions = registry.counter(
        "lf_session_evictions_total").total()


async def _start(config: ServiceConfig) -> Tuple[DecodeService, float]:
    start = time.perf_counter()
    service = DecodeService(config)
    await service.start()
    return service, time.perf_counter() - start


async def measure_setup(config: ServiceConfig, repeats: int) -> List[float]:
    """Service start-up (shm rings, forked shard children), repeated."""
    times = []
    for _ in range(repeats):
        service, elapsed = await _start(config)
        await service.stop()
        times.append(elapsed)
    return times


async def closed_loop(sessions: List[Session], config: ServiceConfig,
                      tracer: Tracer, watch_queues: bool
                      ) -> Tuple[Phase, list]:
    phase = Phase()
    collector = _Collector()
    service, phase.setup_s = await _start(config)
    service.add_result_handler(collector)
    try:
        with tracer.span("bench.closed_loop"):
            start = time.perf_counter()
            for i in range(len(sessions[0].chunks)):
                for s in sessions:
                    with tracer.span("service.submit",
                                     f"r{s.reader}/{i}"):
                        await service.submit(s.reader, 0, s.chunks[i],
                                             sample_offset=s.shifts[i])
                    if watch_queues:
                        phase.queue_depth_max = max(
                            phase.queue_depth_max,
                            *service.snapshot().queue_depths.values())
            await service.drain()
            phase.wall_s = time.perf_counter() - start
        _close_phase(service, phase, collector)
    finally:
        await service.stop()
    return phase, collector.done


def open_loop_epochs(w: StreamWorkload, seconds: float) -> int:
    """Epochs per reader in one open-loop part (whole epochs, so that
    every chunk sent can be scored)."""
    chunk = round(SimulationProfile.fast().sample_rate_hz * w.epoch_s
                  / w.chunks_per_epoch)
    total = w.offered_sps * w.open_share * seconds / chunk
    return math.ceil(total / OPEN_PARTS
                     / (w.readers * w.chunks_per_epoch))


def open_loop_plan(sessions: List[Session]
                   ) -> List[Tuple[int, IQTrace, float]]:
    """The open loop's chunks in send order, readers interleaved."""
    return [(s.reader, s.chunks[i], s.shifts[i])
            for i in range(len(sessions[0].chunks)) for s in sessions]


@dataclass
class OpenLoop:
    phase: Phase
    done: list
    lags: List[float]
    submit_s: List[float]
    backlog: List[int]
    ledgers: list


async def open_loop(plan, w: StreamWorkload, config: ServiceConfig,
                    tracer: Tracer, watch_queues: bool) -> OpenLoop:
    phase = Phase()
    collector = _Collector()
    n = len(plan[0][1])
    interval = n / w.offered_sps
    due: Dict[Tuple[int, int], float] = {}
    seqs: Dict[int, int] = {}
    lags, submit_s, backlog = [], [], []
    service, phase.setup_s = await _start(config)
    service.add_result_handler(collector)
    try:
        with cpus_awake(), tracer.span("bench.open_loop"):
            t0 = time.perf_counter() + 0.05
            for k, (reader, chunk, offset) in enumerate(plan):
                when = t0 + k * interval
                delay = when - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                seq = seqs.get(reader, 0)
                seqs[reader] = seq + 1
                due[(reader, seq)] = when
                sent = time.perf_counter()
                lags.append(sent - when)
                with tracer.span("service.submit", f"r{reader}/{seq}"):
                    frame = await service.submit(reader, 0, chunk,
                                                 sample_offset=offset)
                submit_s.append(time.perf_counter() - sent)
                if frame.seq != seq:
                    raise RuntimeError("service sequence numbers diverged")
                backlog.append(k + 1 - len(collector.done))
                if watch_queues:
                    phase.queue_depth_max = max(
                        phase.queue_depth_max,
                        *service.snapshot().queue_depths.values())
            await service.drain()
            phase.wall_s = time.perf_counter() - t0
        _close_phase(service, phase, collector)
    finally:
        await service.stop()
    ledgers = []
    for outcome, done_at in collector.done:
        f = outcome.frame
        ledgers.append(ledger(due[(f.reader_id, f.seq)], f.submitted_at,
                              outcome.latency_s, outcome.decode_s,
                              done_at))
    return OpenLoop(phase, collector.done, lags, submit_s, backlog,
                    ledgers)


class RingWriteTimer:
    """Times ``ChunkRing.write`` (the framing copy) while installed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.seconds = 0.0
        self.bytes = 0
        self.calls = 0
        self._original = ChunkRing.write

    def __enter__(self) -> "RingWriteTimer":
        original, timer = self._original, self

        def write(ring, samples):
            with timer.tracer.span("service.framing.write"):
                start = time.perf_counter()
                frame_id = original(ring, samples)
                timer.seconds += time.perf_counter() - start
            timer.bytes += len(samples) * SAMPLE_BYTES
            timer.calls += 1
            return frame_id

        ChunkRing.write = write
        return self

    def __exit__(self, *exc) -> None:
        ChunkRing.write = self._original


# -- the run ------------------------------------------------------------------

def _merge_per_reader(sessions: List[Session], done: list
                     ) -> Tuple[Dict[int, list], Dict[int, EpochResult]]:
    """Per reader: its closed-loop outcomes and their merged result."""
    per_reader: Dict[int, list] = {s.reader: [] for s in sessions}
    for outcome, _ in done:
        per_reader[outcome.frame.reader_id].append(outcome)
    merged = {s.reader: merge_stream_results(per_reader[s.reader],
                                             s.trace.duration_s)
              for s in sessions}
    return per_reader, merged


def run(w: StreamWorkload, seed: int, seconds: float, trace: bool,
        tracer: Tracer) -> dict:
    profile = SimulationProfile.fast()
    cfg = decoder_config(profile)
    config = service_config(w, cfg, seed)
    n_epochs = session_epochs(w, seconds, profile)
    open_epochs = open_loop_epochs(w, seconds)
    render_s = 0.0

    def inputs(stream: int, epochs: int) -> List[Session]:
        nonlocal render_s
        start = time.perf_counter()
        sessions = render(w, seed, stream, epochs, profile)
        render_s += time.perf_counter() - start
        return sessions

    # Closed-loop repetitions alternate with the parts of the open loop,
    # each phase on inputs of its own, so a slow spell of the host or a
    # costly tag population moves one phase and not the run.  The
    # traced run traces the middle repetition and gives all of them the
    # same inputs: the others are the untraced reference for the
    # tracing overhead.
    asyncio.run(measure_setup(config, 1))  # one-time imports; not timed
    setup: List[float] = []
    closed_reps: List[Tuple[Phase, list]] = []
    opened: List[OpenLoop] = []
    digests: List[Dict[int, str]] = []
    totals = dict.fromkeys(("bits_sent", "bits_correct", "truth_tags",
                            "tags_found"), 0)

    def add_score(sessions: List[Session], merged) -> None:
        for s in sessions:
            for key, value in score(s, merged[s.reader]).items():
                totals[key] += value

    checks: Dict[str, bool] = {}
    ring = RingWriteTimer(tracer)
    for rep in range(CLOSED_REPEATS):
        setup += asyncio.run(measure_setup(config, w.setup_repeats))
        sessions = inputs(0 if trace else rep, n_epochs)
        traced = trace and rep == CLOSED_REPEATS // 2
        with ring if traced else contextlib.nullcontext():
            closed_reps.append(asyncio.run(closed_loop(
                sessions, config, tracer if traced else Tracer(False),
                traced)))
        per_reader, merged = _merge_per_reader(sessions,
                                               closed_reps[-1][1])
        digests.append({r: digest_result(m) for r, m in merged.items()})
        if rep == 0:
            # One sampled stream must come out of the service
            # bit-identical to an offline replay of its chunks.
            sampled = sessions[seed % len(sessions)]
            offline_start = time.perf_counter()
            with tracer.span("core.session_decoder.decode_chunked",
                             f"r{sampled.reader}"):
                offline = decode_chunked(
                    sampled.trace, sampled.chunk_samples,
                    session=SessionDecoder(cfg, rng=stream_seed(
                        seed, sampled.reader, 0)))
            offline_s = time.perf_counter() - offline_start
            outcomes = per_reader[sampled.reader]
            checks["sampled_stream_bit_identical"] = (
                len(outcomes) == len(sampled.chunks)
                and all(o.result is not None for o in outcomes)
                and digests[0][sampled.reader] == digest_result(offline))
        if rep == 0 or not trace:
            add_score(sessions, merged)
        if rep < OPEN_PARTS:  # an open-loop part follows
            sessions = inputs(CLOSED_REPEATS + rep, open_epochs)
            with ring if trace else contextlib.nullcontext():
                opened.append(asyncio.run(open_loop(
                    open_loop_plan(sessions), w, config, tracer, trace)))
            add_score(sessions, _merge_per_reader(sessions,
                                                  opened[-1].done)[1])
    log(f"{w.readers} readers x {n_epochs} epochs per closed loop, x "
        f"{open_epochs} per open-loop part; inputs rendered in "
        f"{render_s:.2f} s")
    phases = [p for p, _ in closed_reps] + [o.phase for o in opened]
    setup += [p.setup_s for p in phases]
    checks["accounting_exact"] = all(p.accounting_exact for p in phases)
    checks["open_loop_backlog_flat"] = not any(backlog_growing(o.backlog)
                                               for o in opened)
    if trace:
        checks["closed_loop_repeats_identical"] = all(
            d == digests[0] for d in digests)

    rates = [p.samples_per_s for p, _ in closed_reps]
    closed_samples = sum(p.samples_decoded for p, _ in closed_reps)
    closed_wall = sum(p.wall_s for p, _ in closed_reps)
    ledgers = [x for o in opened for x in o.ledgers]
    latencies = [x.latency for x in ledgers]
    submitted = sum(p.submitted for p in phases)
    lost = sum(p.failed + p.shed for p in phases)
    end_to_end = {
        "samples_per_s": (closed_samples / closed_wall,
                          f"{closed_samples} samples in {closed_wall:.3f} "
                          f"s over {len(rates)} closed loops at "
                          + ", ".join(f"{r:.0f}" for r in rates)),
        **latency_metrics(latencies),
        "goodput_fraction": (ratio(totals["bits_correct"],
                                   totals["bits_sent"]).value,
                             f"{totals['bits_correct']}/"
                             f"{totals['bits_sent']} bits"),
        "tag_found_fraction": (ratio(totals["tags_found"],
                                     totals["truth_tags"]).value,
                               f"{totals['tags_found']}/"
                               f"{totals['truth_tags']} truth tags"),
        "delivered_fraction": (ratio(submitted - lost, submitted).value,
                               f"{submitted - lost}/{submitted} chunks"),
        "setup_s": (float(np.median(setup)),
                    f"median of {len(setup)} service starts"),
        "memory_mb": (float(np.median([p.pss_mb for p in phases])),
                      f"PSS of this process and its children at the end "
                      f"of a phase, median of {len(phases)} phases"),
    }
    info = {
        "workload": asdict(w),
        "session_epochs": n_epochs,
        "open_loop_epochs": open_epochs,
        "render_s": render_s,
        "phases": [asdict(p) for p in phases],
        "setup_s": setup,
        "offline_s": offline_s,
        # Open-loop ledgers in completion order, for reading the tail.
        "ledgers": [asdict(x) for x in ledgers],
    }
    out = {"end_to_end": end_to_end, "checks": checks, "info": info,
           "attempted": submitted, "failed": lost}
    if not trace:
        return out

    # -- per-layer metrics (traced run) -----------------------------------
    closed, closed_done = closed_reps[CLOSED_REPEATS // 2]
    untraced_sps = float(np.mean([r for i, r in enumerate(rates)
                                  if i != CLOSED_REPEATS // 2]))
    offline_sps = len(sampled.trace) / offline_s
    kernels = _kernel_profile(sampled, cfg, seed,
                              w.kernel_epochs * w.chunks_per_epoch, tracer)
    stage_totals: Dict[str, float] = {}
    cache: Dict[str, int] = {}
    fidelity: Dict[str, int] = {}
    decode_counts = {"streams": 0, "faults": 0, "detected": 0,
                     "resolved": 0}
    busy: Dict[int, float] = {}
    for outcome, _ in closed_done:
        busy[outcome.shard] = busy.get(outcome.shard, 0.0) \
            + outcome.decode_s
        r = outcome.result
        if r is None:
            continue
        for k, v in r.stage_timings.items():
            stage_totals[k] = stage_totals.get(k, 0.0) + v
        for k, v in r.cache_stats.items():
            cache[k] = cache.get(k, 0) + v
        for k, v in r.fidelity_stats.items():
            fidelity[k] = fidelity.get(k, 0) + v
        decode_counts["streams"] += r.n_streams
        decode_counts["faults"] += len(r.degraded_streams)
        decode_counts["detected"] += r.n_collisions_detected
        decode_counts["resolved"] += r.n_collisions_resolved
    decode_all = [o.decode_s for o, _ in closed_done] + \
        [x.decode for x in ledgers]
    lags = [x for o in opened for x in o.lags]
    submit_s = [x for o in opened for x in o.submit_s]
    stages_sum = sum(stage_totals.get(s, 0.0) for s in STAGES)
    layer = {
        "service.admission_s.p50": pct([x.admission for x in ledgers], 50),
        "service.admission_s.p95": pct([x.admission for x in ledgers], 95),
        "service.submit_s.p50": pct(submit_s, 50),
        "service.submit_s.p95": pct(submit_s, 95),
        "service.framing.write_s": (ring.seconds, f"{ring.calls} writes"),
        "service.framing.bytes": (ring.bytes, f"{ring.calls} writes"),
        "service.framing.inline_fraction": share(
            sum(p.inline_fallbacks for p in phases), submitted),
        "service.wait_s.p50": pct([x.wait for x in ledgers], 50),
        "service.wait_s.p95": pct([x.wait for x in ledgers], 95),
        "service.decode_s.p50": pct(decode_all, 50),
        "service.decode_s.p95": pct(decode_all, 95),
        "service.decode_s.total": (sum(busy.values()),
                                   f"traced closed loop, "
                                   f"{len(closed_done)} chunks"),
        "service.shard_busy_skew": share(
            max(busy.values()), sum(busy.values()) / w.n_shards,
            "busiest shard's decode time over the mean"),
        "service.queue_depth_max": (max(p.queue_depth_max
                                        for p in phases),
                                    f"of {w.queue_depth}"),
        "service.retries": (sum(p.retries for p in phases), ""),
        "service.respawns": (sum(p.respawns for p in phases), ""),
        "service.evictions": (sum(p.evictions for p in phases), ""),
        "service.residual_s.p50": pct([x.residual for x in ledgers], 50),
        "service.residual_s.p95": pct([x.residual for x in ledgers], 95),
        "service.vs_offline_ratio": share(
            closed.samples_per_s / w.n_shards, offline_sps,
            "per-shard service rate over offline SessionDecoder rate"),
        "core.session_decoder.samples_per_s": (
            offline_sps, f"{len(sampled.trace)} samples, one process"),
        "core.pipeline.overhead_s": (
            stage_totals.get("total", 0.0) - stages_sum,
            "total minus stages, traced closed loop"),
        "core.decode.streams": (decode_counts["streams"], ""),
        "core.decode.stream_faults": (decode_counts["faults"], ""),
        "core.decode.collisions_detected": (decode_counts["detected"], ""),
        "core.decode.collisions_resolved": (decode_counts["resolved"], ""),
        "experiments.scenario.synth_s": (render_s, "input rendering"),
        "bench.generator_lag_p95_s": pct(lags, 95),
        "bench.trace_overhead_fraction": share(
            untraced_sps - closed.samples_per_s, untraced_sps,
            "untraced - traced over untraced, untraced = mean of the "
            "other closed loops"),
    }
    for s in STAGES:
        layer[f"core.stages.{s}_s"] = (stage_totals.get(s, 0.0),
                                       "traced closed loop")
    for kind in ("fold", "kmeans", "basis"):
        layer[f"core.session.{kind}_hit_ratio"] = share(
            cache.get(f"{kind}_hits", 0),
            cache.get(f"{kind}_hits", 0) + cache.get(f"{kind}_misses", 0))
    layer.update(fidelity_ratios(fidelity))
    layer.update(kernels)
    out["per_layer"] = layer
    return out


def _kernel_profile(session: Session, cfg: LFDecoderConfig, seed: int,
                    n_chunks: int, tracer: Tracer) -> Dict[str, tuple]:
    """Kernel time over the first chunks of one stream, in process."""
    timer = KernelTimer(resolve_backend(cfg.kernel_backend), tracer)
    try:
        decoder = SessionDecoder(cfg, rng=stream_seed(seed,
                                                      session.reader, 0))
        for i in range(min(n_chunks, len(session.chunks))):
            with tracer.span("core.session_decoder.decode_epoch",
                             f"r{session.reader}/{i}"):
                decoder.decode_epoch(session.chunks[i],
                                     sample_offset=session.shifts[i])
    finally:
        timer.close()
    return kernel_metrics(timer.calls, timer.seconds,
                          f"{n_chunks} in-process chunks")
