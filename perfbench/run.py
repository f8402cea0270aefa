"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream_dense --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own
process, and exits non-zero if any of them does.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` measures its per-layer metrics in a
separate traced run.  Human-readable lines come first (provenance,
each metric with its unit and sample count, the correctness checks);
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything, spans
included, is also written under ``perfbench/out/``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result line says ``"correct": false``), 2 when the run could not
be made at all, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[1:1] = [str(HERE.parent / "src"), str(HERE.parent)]

import harness  # noqa: E402


def workloads() -> dict:
    from workload_stream import StreamWorkload
    from workload_sweep import SweepWorkload
    return {
        # The time goes to decoding: 16 tags per reader, frequent
        # collisions, and the second chunk of each epoch decodes on a
        # warm session.  New tags every epoch give the open loop well
        # over a hundred populations, so its tail latency does not hang
        # on the few hardest of them.
        "stream_dense": StreamWorkload(
            name="stream_dense", readers=2, tags=16, chunks_per_epoch=2,
            churn_every=1, capacity_sps=290e3, open_load=0.55,
            open_share=0.7),
        # Little decoding per chunk, so per-chunk costs (submit, ring
        # copy, queue wait, IPC, the decoder's fixed floor) dominate;
        # eight streams on two shards also expose shard skew.
        "stream_sparse": StreamWorkload(
            name="stream_sparse", readers=8, tags=2, chunks_per_epoch=8,
            churn_every=1, capacity_sps=780e3, open_load=0.25,
            open_share=0.7),
        # Cold decodes of a signoff grid: no warm caches, fidelity
        # escalation at low SNR, synthesis inside the user's wait.
        "sweep_cold": SweepWorkload(name="sweep_cold", trials_per_s=28.0),
    }


#: Per-layer metrics a workload kind does not exercise; they read 0.
NOT_EXERCISED = {
    "stream": {"core.engine.busy_s", "core.engine.idle_fraction",
               "core.engine.retries", "core.pipeline.decode_s",
               "analysis.throughput.score_s"},
    "sweep": {"service.admission_s.p50", "service.admission_s.p95",
              "service.submit_s.p50", "service.submit_s.p95",
              "service.framing.write_s", "service.framing.bytes",
              "service.framing.inline_fraction", "service.wait_s.p50",
              "service.wait_s.p95", "service.decode_s.p50",
              "service.decode_s.p95", "service.decode_s.total",
              "service.shard_busy_skew", "service.queue_depth_max",
              "service.retries", "service.respawns", "service.evictions",
              "service.residual_s.p50", "service.residual_s.p95",
              "service.vs_offline_ratio",
              "core.session_decoder.samples_per_s",
              "core.session.fold_hit_ratio",
              "core.session.kmeans_hit_ratio",
              "core.session.basis_hit_ratio",
              "bench.generator_lag_p95_s"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def collect(declared, measured: dict, kind: str) -> dict:
    """Every declared metric, in declaration order, with its unit."""
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            value, note = measured[name]
        elif name in NOT_EXERCISED.get(kind, ()):
            value, note = 0.0, "not exercised by this workload"
        else:
            raise KeyError(f"workload did not measure {name}")
        metrics[name] = {"value": float(value), "unit": m["unit"]}
        harness.log(f"  {name} = {value:.6g} {m['unit']} "
                    f"({m['better']} is better; {note})")
    return metrics


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one runs.

    The tracker is a helper process multiprocessing starts on first use
    of shared memory; it would otherwise outlive the benchmark.
    ``_stop`` closes its pipe and waits for it to exit.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_all(args) -> int:
    """Every workload in turn, each in a child process waited for."""
    import subprocess
    status = 0
    for name in workloads():
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
        definition = harness.load_definition()
        table = workloads()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    kind = "sweep" if args.workload.startswith("sweep") else "stream"
    module = __import__(f"workload_{kind}")
    trace = bool(args.trace)
    from repro.types import SimulationProfile
    params = harness.config_hash(
        args.workload, asdict(workload), args.seconds,
        harness.decoder_config(SimulationProfile.fast()))
    prov = harness.provenance(args.seed, params)
    harness.log("perfbench " + json.dumps(prov, sort_keys=True))

    tracer = harness.Tracer(trace)
    started = time.perf_counter()
    try:
        out = module.run(workload, args.seed, args.seconds, trace, tracer)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 2
    stop_resource_tracker()
    left = harness.descendants()
    out["checks"]["no_processes_left"] = not left

    harness.log(f"end-to-end ({args.workload}, seed {args.seed}, "
                f"{time.perf_counter() - started:.1f} s):")
    try:
        e2e = collect(definition["end_to_end"], out["end_to_end"], kind)
        layer = (collect(definition["per_layer"], out["per_layer"], kind)
                 if trace else None)
    except (KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(out["checks"].values())
    for name, passed in out["checks"].items():
        harness.log(f"  check {name}: {'ok' if passed else 'FAILED'}")
    if trace:
        harness.log("spans (count, total s, self s):")
        for name, row in sorted(tracer.summary().items()):
            harness.log(f"  {name}: {row['count']} {row['total_s']:.4f} "
                        f"{row['self_s']:.4f}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "checks": out["checks"],
              "attempted": out["attempted"], "failed": out["failed"],
              "end_to_end": e2e, "per_layer": layer,
              "notes": {k: v[1] for k, v in
                        {**out["end_to_end"],
                         **out.get("per_layer", {})}.items()},
              "spans": tracer.summary(), "info": out["info"]}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if trace:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": layer if trace else e2e}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
