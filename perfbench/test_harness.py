"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy

import pytest

import harness
import run
from harness import (Span, backlog_growing, covered, ledger, percentile,
                     ratio, self_times, validate_definition)


@pytest.fixture(scope="module")
def definition():
    return harness.load_definition()


def test_definition_is_within_limits(definition):
    assert validate_definition(definition) == []


def test_metric_names_match_the_name_pattern(definition):
    for m in definition["end_to_end"] + definition["per_layer"]:
        assert harness.NAME_RE.match(m["name"]), m["name"]
    assert not harness.NAME_RE.match("bad name")
    assert not harness.NAME_RE.match(".starts_with_dot")
    assert not harness.NAME_RE.match("x" * 65)


def test_limits_are_enforced(definition):
    too_many = copy.deepcopy(definition)
    too_many["end_to_end"] += [
        {"name": f"extra{i}", "unit": "s", "better": "lower",
         "bound": 0.1} for i in range(harness.MAX_END_TO_END)]
    assert any("end-to-end metrics" in p
               for p in validate_definition(too_many))

    too_many = copy.deepcopy(definition)
    too_many["per_layer"] += [
        {"name": f"layer{i}", "unit": "s", "better": "lower"}
        for i in range(harness.MAX_PER_LAYER)]
    assert any("per-layer metrics" in p
               for p in validate_definition(too_many))

    for count in (1, 9):
        bad = copy.deepcopy(definition)
        bad["workloads"] = [{"name": f"w{i}", "why": "x"}
                            for i in range(count)]
        assert any("workloads" in p for p in validate_definition(bad))

    loose = copy.deepcopy(definition)
    loose["end_to_end"][0]["bound"] = 0.3
    assert any("bound" in p for p in validate_definition(loose))


def test_definition_matches_the_code(definition):
    table = run.workloads()
    assert [w["name"] for w in definition["workloads"]] == list(table)
    declared = {m["name"] for m in definition["per_layer"]}
    for names in run.NOT_EXERCISED.values():
        assert names <= declared
    # Each stream workload's frozen offered rate is recorded in its why.
    for w in definition["workloads"]:
        rate = getattr(table[w["name"]], "offered_sps", None)
        if rate is not None:
            assert f"{rate:.0f} samples/s" in w["why"]


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 200))          # 199 samples
    p95 = percentile(values, 95)
    assert p95.value is None and p95.n == 199
    with pytest.raises(ValueError, match="199 samples"):
        p95.require("latency")
    p95 = percentile(list(range(1, 201)), 95)   # 200 samples
    assert p95.value == 190 and p95.n == 200
    assert percentile(list(range(19)), 50).value is None
    assert percentile(list(range(1, 21)), 50).value == 10
    assert percentile([], 50).n == 0


def test_windowed_percentile_is_robust_to_one_stall():
    values = [1.0] * 1600
    values[100:140] = [50.0] * 40          # a stall inside one window
    value, note = harness.windowed_percentile(values, 95)
    assert value == 1.0
    assert "median of 8 windows of 200" in note
    # Too few samples for two windows: the plain percentile.
    few = list(range(1, 251))
    value, note = harness.windowed_percentile(few, 95)
    assert value == percentile(few, 95).value
    assert "median of 1 windows of 250" in note
    with pytest.raises(ValueError):
        harness.windowed_percentile(list(range(100)), 95)


def test_ratio_with_zero_base():
    r = ratio(3, 0)
    assert r.value == 0.0
    assert "base 0" in r.describe()
    assert ratio(1, 4).value == 0.25
    assert "1/4" in ratio(1, 4).describe()


def test_latency_ledger_adds_up_on_a_synthetic_schedule():
    interval = 0.01
    for k in range(50):
        due = 100.0 + k * interval
        submitted_at = due + 0.002 + 0.0001 * (k % 7)   # lag + backpressure
        decode = 0.03 + 0.001 * (k % 5)
        service_latency = decode + 0.004                  # queue + IPC
        done_at = submitted_at + service_latency + 0.00005
        x = ledger(due, submitted_at, service_latency, decode, done_at)
        assert x.latency == pytest.approx(done_at - due)
        assert x.admission + x.wait + x.decode + x.residual == \
            pytest.approx(x.latency, abs=1e-12)
        assert x.residual == pytest.approx(0.00005, abs=1e-9)
        assert x.wait == pytest.approx(0.004)


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(1, "parent", 0.0, 10.0, None, None),
             Span(2, "a", 1.0, 3.0, 1, None),
             Span(3, "b", 2.0, 5.0, 1, None),      # overlaps a
             Span(4, "c", 8.0, 12.0, 1, None),     # runs past the parent
             Span(5, "grandchild", 1.5, 2.5, 2, None)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert covered([(0, 1), (0.5, 2)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 1) == 0.0


def test_tracer_records_parents_and_summarises():
    tracer = harness.Tracer(True)
    with tracer.span("outer", "x"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    summary = tracer.summary()
    assert summary["outer"]["count"] == 1
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]
    off = harness.Tracer(False)
    with off.span("ignored"):
        pass
    assert off.spans == []


def test_backlog_growth_detection():
    assert not backlog_growing([1, 2, 1, 2, 3, 1, 2, 1] * 30)
    assert backlog_growing(list(range(240)))
    assert not backlog_growing([0, 1, 0, 1, 0, 1, 9, 1] * 30)


def test_offsets_found_is_one_to_one_within_tolerance():
    from workload_sweep import offsets_found
    assert offsets_found([100.0, 500.0], [101.0, 103.0, 900.0]) == 1
    assert offsets_found([100.0, 130.0], [101.0, 129.0]) == 2
    assert offsets_found([100.0], [161.0]) == 0
    assert offsets_found([], [1.0]) == 0


def test_window_truths_keep_bits_wholly_inside_the_window():
    import numpy as np
    from repro.reader.epoch import TagTruth
    from workload_stream import window_truths
    truth = TagTruth(tag_id=3, bits=np.arange(20) % 2, offset_samples=5.0,
                     period_samples=10.0, nominal_bitrate_bps=1.0,
                     coefficient=1j)
    (seg,) = window_truths([truth], 1000, 1100, 1150)
    # Bits start at 1005 + 10k: bit 10 at 1105 .. bit 13 ends at 1145.
    assert seg.offset_samples == pytest.approx(1105.0)
    assert seg.bits.tolist() == (np.arange(10, 14) % 2).tolist()
    assert window_truths([truth], 1000, 1300, 1400) == []


def test_cpu_spinners_are_idle_class_and_stopped_on_exit():
    import os
    with harness.cpus_awake():
        spinners = harness.descendants()
        assert len(spinners) == len(os.sched_getaffinity(0))
        for pid in spinners:
            assert (os.sched_getscheduler(pid) == os.SCHED_IDLE
                    or os.getpriority(os.PRIO_PROCESS, pid) == 19)
    assert harness.descendants() == []
