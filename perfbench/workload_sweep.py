"""The sweep workload: a signoff-style grid through ``SweepRunner``.

Each trial renders one scenario epoch, decodes it with a cold
``LFDecoder`` in a pool worker and scores it against truth, exactly as
``scenario_decode_trial`` does.  The grid crosses SNR, tag count and
clock drift, plus a slice of impaired cells that send the trace guard
down its repair path.  The grid is run as several passes with fresh
seeds; each pass is one ``SweepRunner.run`` a user would wait on, so a
trial's latency runs from the start of its pass to its row.

The traced run follows each untraced pass (the reference for the
tracing overhead) with the same pass through
:func:`timed_scenario_trial`, which times synthesis, decode and
scoring inside the worker.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (BITRATE_BPS, STAGES, KernelTimer, Tracer,
                     decoder_config, fidelity_ratios, kernel_metrics,
                     latency_metrics, log, ratio, share, tree_pss_mb)

from repro.analysis.throughput import score_epoch
from repro.core.engine import TrialSpec
from repro.core.kernels import resolve_backend
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.experiments.sweep import SweepGrid, SweepRunner
from repro.experiments.trials import scenario_decode_trial
from repro.robustness.impairments import (AdcSaturation, BurstInterferer,
                                          CarrierPhaseJump, DcOffsetStep,
                                          NonFiniteBurst, SampleDropout)
from repro.types import SimulationProfile

#: Impairment cocktails of the impaired slice.  Dropouts, NaN/Inf runs
#: and rail clipping are what the trace guard repairs.
COCKTAILS = {
    "dropout_nan": (SampleDropout(n_runs=2, max_run=200),
                    NonFiniteBurst(n_runs=2, max_run=100)),
    "inf_burst": (NonFiniteBurst(n_runs=3, max_run=60, use_inf=True),),
    "saturation_dc": (AdcSaturation(n_runs=2, max_run=300),
                      DcOffsetStep(magnitude=0.2)),
    "phase_interferer": (CarrierPhaseJump(), BurstInterferer()),
}

#: Offset tolerance of ``match_streams``, in samples.
MATCH_TOLERANCE = 60.0


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    #: Trials per second of the two-core reference host, frozen so the
    #: number of passes never depends on the code under test.
    trials_per_s: float
    snr_db: Tuple[float, ...] = (6.0, 10.0, 15.0, 25.0)
    tags: Tuple[int, ...] = (2, 4, 8, 16)
    drift_ppm: Tuple[float, ...] = (150.0, 4000.0)
    impaired_snr_db: float = 15.0
    impaired_tags: Tuple[int, ...] = (4, 8)
    epoch_s: float = 0.01
    workers: int = 2
    #: Runner + pool start-ups timed before each pass.
    setup_repeats: int = 1
    min_passes: int = 5

    def cells(self) -> List[dict]:
        cells = [{"snr_db": s, "n_tags": n, "drift_ppm": d,
                  "cocktail": None}
                 for s in self.snr_db for n in self.tags
                 for d in self.drift_ppm]
        cells += [{"snr_db": self.impaired_snr_db, "n_tags": n,
                   "drift_ppm": self.drift_ppm[0], "cocktail": c}
                  for n in self.impaired_tags for c in COCKTAILS]
        return cells


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_pass(w: SweepWorkload, seed: int, index: int,
               profile: SimulationProfile, cfg: LFDecoderConfig
               ) -> SweepGrid:
    grid = SweepGrid()
    for c, cell in enumerate(w.cells()):
        spec = ScenarioSpec(
            name=f"{w.name}_p{index}_c{c}", n_tags=cell["n_tags"],
            bitrate_bps=BITRATE_BPS, snr_db=cell["snr_db"],
            drift_ppm=cell["drift_ppm"], epoch_s=w.epoch_s,
            impairments=COCKTAILS.get(cell["cocktail"], ()),
            seed=_seed(seed, index, c))
        grid.add_cell(cell, TrialSpec(
            seed=_seed(seed, index, c, 977),
            payload={"spec": spec, "profile": profile,
                     "decoder_config": cfg, "duration": w.epoch_s,
                     "epoch_index": 0}))
    return grid


def noop_trial(trace, payload, rng, config):
    return None


def timed_scenario_trial(trace, payload, rng, config) -> dict:
    """``scenario_decode_trial`` with each layer timed in the worker.

    Returns the same fields plus ``timing`` (span bounds on the shared
    monotonic clock), stage timings, fidelity and decode counters, the
    kernel profile.
    """
    cfg = payload["decoder_config"]
    timer = KernelTimer(resolve_backend(cfg.kernel_backend))
    try:
        t0 = time.perf_counter()
        synth = ScenarioSynth(payload["spec"], profile=payload["profile"])
        capture = synth.capture(payload.get("duration"),
                                epoch_index=payload.get("epoch_index", 0))
        t1 = time.perf_counter()
        result = LFDecoder(cfg, rng=rng).decode_epoch(capture.trace)
        t2 = time.perf_counter()
        report = score_epoch(capture, result)
        t3 = time.perf_counter()
    finally:
        timer.close()
    return {"bits_correct": report.bits_correct,
            "bits_sent": report.bits_sent,
            "n_streams": result.n_streams,
            "offsets": [float(s.offset_samples) for s in result.streams],
            "truth_offsets": [float(t.offset_samples)
                              for t in capture.truths],
            "timing": (t0, t1, t2, t3),
            "stage_timings": dict(result.stage_timings),
            "fidelity_stats": dict(result.fidelity_stats),
            "faults": len(result.degraded_streams),
            "collisions": (result.n_collisions_detected,
                           result.n_collisions_resolved),
            "kernel_calls": dict(timer.calls),
            "kernel_seconds": dict(timer.seconds)}


CORE_FIELDS = ("bits_correct", "bits_sent", "n_streams", "offsets",
               "truth_offsets")


def offsets_found(truth_offsets, offsets,
                  tolerance: float = MATCH_TOLERANCE) -> int:
    """Truth tags with a decoded stream within ``tolerance`` samples,
    one stream per tag (nearest first) — the offset test of
    ``match_streams`` applied to the offsets a trial returns."""
    pairs = sorted((abs(t - o), i, j)
                   for i, t in enumerate(truth_offsets)
                   for j, o in enumerate(offsets))
    used_t, used_o = set(), set()
    for gap, i, j in pairs:
        if gap > tolerance:
            break
        if i not in used_t and j not in used_o:
            used_t.add(i)
            used_o.add(j)
    return len(used_t)


@dataclass
class PassResult:
    wall_s: float
    latencies: List[float]
    outcomes: list
    span_id: int
    #: Memory of this process and the pool, halfway through the pass.
    pss_mb: float


def run_pass(grid: SweepGrid, trial_fn, w: SweepWorkload,
             cfg: LFDecoderConfig, seed: int, tracer: Tracer,
             index: int) -> PassResult:
    latencies, outcomes, pss = [], [], []
    with tracer.span("experiments.sweep.pass", f"pass{index}") as span_id:
        start = time.perf_counter()
        runner = SweepRunner(trial_fn, config=cfg, seed=seed,
                             max_workers=w.workers)

        def fold(cell, cell_outcomes):
            latencies.append(time.perf_counter() - start)
            outcomes.extend(cell_outcomes)
            if cell.index == len(grid) // 2:
                pss.append(tree_pss_mb())

        runner.run(grid, fold)
        wall = time.perf_counter() - start
    return PassResult(wall, latencies, outcomes, span_id, pss[0])


def measure_setup(w: SweepWorkload, cfg: LFDecoderConfig,
                  repeats: int) -> List[float]:
    """Runner construction plus pool start-up and shutdown, repeated."""
    grid = SweepGrid()
    for i in range(w.workers):
        grid.add_cell({"i": i}, TrialSpec(seed=i))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        SweepRunner(noop_trial, config=cfg, max_workers=w.workers).run(
            grid, lambda cell, outcomes: None)
        times.append(time.perf_counter() - start)
    return times


def run(w: SweepWorkload, seed: int, seconds: float, trace: bool,
        tracer: Tracer) -> dict:
    profile = SimulationProfile.fast()
    cfg = decoder_config(profile)
    per_pass = len(w.cells())
    n_passes = max(w.min_passes,
                   math.ceil(w.trials_per_s * seconds / per_pass))
    grids = [build_pass(w, seed, p, profile, cfg) for p in range(n_passes)]
    epoch_samples = round(profile.sample_rate_hz * w.epoch_s)
    log(f"{n_passes} passes x {per_pass} trials")

    measure_setup(w, cfg, 1)  # one-time imports; not timed
    setup: List[float] = []
    # The traced run alternates untraced and traced passes over the
    # same grids, so drift in host speed cancels from the overhead.
    untraced, traced = [], []
    for p, grid in enumerate(grids):
        # Start-ups spread over the run, rather than timed in one burst,
        # sample more of the host's spells of speed.
        setup += measure_setup(w, cfg, w.setup_repeats)
        untraced.append(run_pass(grid, scenario_decode_trial, w, cfg,
                                 seed, Tracer(False), p))
        if trace:
            traced.append(run_pass(grid, timed_scenario_trial, w, cfg,
                                   seed, tracer, p))
    checks = {"outcomes_match_trials": all(
        len(p.outcomes) == per_pass for p in untraced)}
    outcomes = [o for p in untraced for o in p.outcomes]
    ok = [o for o in outcomes if o.result is not None]
    # Determinism across processes: one sampled trial re-run here must
    # give the row the pool gave.
    pick = seed % len(outcomes)
    cell = grids[pick // per_pass].cells[pick % per_pass]
    trial = cell.trials[0]
    local = scenario_decode_trial(None, trial.payload,
                                  np.random.default_rng(trial.seed), cfg)
    checks["sampled_trial_reproduces"] = (
        outcomes[pick].result == local)

    wall = sum(p.wall_s for p in untraced)
    latencies = [x for p in untraced for x in p.latencies]
    correct = sum(o.result["bits_correct"] for o in ok)
    sent = sum(o.result["bits_sent"] for o in ok)
    truths = sum(len(o.result["truth_offsets"]) for o in ok)
    found = sum(offsets_found(o.result["truth_offsets"],
                              o.result["offsets"]) for o in ok)
    sps = len(ok) * epoch_samples / wall
    end_to_end = {
        "samples_per_s": (sps, f"{len(ok)} trials x {epoch_samples} "
                               f"samples in {wall:.3f} s"),
        **latency_metrics(latencies),
        "goodput_fraction": (ratio(correct, sent).value,
                             f"{correct}/{sent} bits"),
        "tag_found_fraction": (ratio(found, truths).value,
                               f"{found}/{truths} truth tags"),
        "delivered_fraction": (ratio(len(ok), len(outcomes)).value,
                               f"{len(ok)}/{len(outcomes)} trials"),
        "setup_s": (float(np.median(setup)),
                    f"median of {len(setup)} runner + pool start-ups"),
        "memory_mb": (float(np.median([p.pss_mb for p in untraced])),
                      f"PSS of this process and its pool halfway through "
                      f"a pass, median of {len(untraced)} passes"),
    }
    out = {"end_to_end": end_to_end, "checks": checks,
           "info": {"workload": asdict(w), "passes": n_passes,
                    "pass_wall_s": [p.wall_s for p in untraced]},
           "attempted": len(outcomes),
           "failed": len(outcomes) - len(ok)}
    if not trace:
        return out

    # -- per-layer metrics (traced run) -----------------------------------
    t_outcomes = [o for p in traced for o in p.outcomes]
    checks["traced_rows_match_untraced"] = (
        len(t_outcomes) == len(outcomes)
        and all(a.result is not None and b.result is not None
                and all(a.result[k] == b.result[k] for k in CORE_FIELDS)
                for a, b in zip(outcomes, t_outcomes)))
    t_wall = sum(p.wall_s for p in traced)
    t_sps = sum(1 for o in t_outcomes if o.result is not None) \
        * epoch_samples / t_wall
    spans = {"synth": 0.0, "decode": 0.0, "score": 0.0, "busy": 0.0}
    stage_totals: Dict[str, float] = {}
    fidelity: Dict[str, int] = {}
    counts = {"streams": 0, "faults": 0, "detected": 0, "resolved": 0,
              "retries": 0}
    k_calls: Dict[str, int] = {}
    k_seconds: Dict[str, float] = {}
    for index, p in enumerate(traced):
        for k, o in enumerate(p.outcomes):
            counts["retries"] += o.attempts - 1
            r = o.result
            if r is None:
                continue
            t0, t1, t2, t3 = r["timing"]
            trial = tracer.record("core.engine.trial", t0, t3,
                                  f"pass{index}/{k}",
                                  parent=p.span_id)
            for name, a, b in (("experiments.scenario.synth", t0, t1),
                               ("core.pipeline.decode", t1, t2),
                               ("analysis.throughput.score", t2, t3)):
                tracer.record(name, a, b, parent=trial)
            spans["synth"] += t1 - t0
            spans["decode"] += t2 - t1
            spans["score"] += t3 - t2
            spans["busy"] += t3 - t0
            for key, v in r["stage_timings"].items():
                stage_totals[key] = stage_totals.get(key, 0.0) + v
            for key, v in r["fidelity_stats"].items():
                fidelity[key] = fidelity.get(key, 0) + v
            for key, v in r["kernel_calls"].items():
                k_calls[key] = k_calls.get(key, 0) + v
            for key, v in r["kernel_seconds"].items():
                k_seconds[key] = k_seconds.get(key, 0.0) + v
            counts["streams"] += r["n_streams"]
            counts["faults"] += r["faults"]
            counts["detected"] += r["collisions"][0]
            counts["resolved"] += r["collisions"][1]
    stages_sum = sum(stage_totals.get(s, 0.0) for s in STAGES)
    layer = {
        "core.engine.busy_s": (spans["busy"], f"{len(t_outcomes)} trials"),
        "core.engine.idle_fraction": share(
            t_wall * w.workers - spans["busy"], t_wall * w.workers,
            "worker time not in a trial"),
        "core.engine.retries": (counts["retries"], "attempts beyond first"),
        "experiments.scenario.synth_s": (spans["synth"], "in trials"),
        "core.pipeline.decode_s": (spans["decode"], "in trials"),
        "analysis.throughput.score_s": (spans["score"], "in trials"),
        "core.pipeline.overhead_s": (
            stage_totals.get("total", 0.0) - stages_sum,
            "total minus stages"),
        "core.decode.streams": (counts["streams"], ""),
        "core.decode.stream_faults": (counts["faults"], ""),
        "core.decode.collisions_detected": (counts["detected"], ""),
        "core.decode.collisions_resolved": (counts["resolved"], ""),
        "bench.trace_overhead_fraction": share(
            sps - t_sps, sps, "untraced - traced over untraced"),
    }
    for s in STAGES:
        layer[f"core.stages.{s}_s"] = (stage_totals.get(s, 0.0), "trials")
    layer.update(fidelity_ratios(fidelity))
    layer.update(kernel_metrics(k_calls, k_seconds, "in-worker decodes"))
    out["per_layer"] = layer
    return out
