"""The decoder-throughput section of the benchmark regression gate.

Runs ``benchmarks/check_regression.py::main`` on synthetic bench
exports: the headline ``test_decode_speed_16_tags`` rate must clear
``baseline * (1 - tolerance)``, and an export without that entry
fails.  The service, survival and signoff sections point at missing
files, which they skip.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)

COMMITTED_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_decoder.json"


def _export(rate=None, name="test_decode_speed_16_tags") -> dict:
    benches = [{"name": "test_guard_passthrough_speed",
                "samples_per_second": 5e7}]
    if rate is not None:
        benches.append({"name": name, "samples_per_second": rate})
    return {"benchmarks": benches}


def _write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _gate(tmp_path, candidate, baseline_path, tolerance=0.2) -> int:
    missing = tmp_path / "missing.json"
    return check_regression.main([
        "--baseline", str(baseline_path),
        "--candidate", str(_write(tmp_path, "candidate.json", candidate)),
        "--tolerance", str(tolerance),
        "--service-candidate", str(missing),
        "--survival", str(missing),
        "--signoff-candidate", str(missing)])


def test_passes_at_the_floor(tmp_path):
    baseline = _write(tmp_path, "baseline.json", _export(400_000.0))
    floor = 400_000.0 * (1.0 - 0.2)
    assert _gate(tmp_path, _export(floor), baseline) == 0


def test_fails_below_the_floor(tmp_path):
    baseline = _write(tmp_path, "baseline.json", _export(400_000.0))
    floor = 400_000.0 * (1.0 - 0.2)
    assert _gate(tmp_path, _export(floor * 0.99), baseline) == 1


def test_fails_without_a_headline_entry(tmp_path):
    baseline = _write(tmp_path, "baseline.json", _export(400_000.0))
    with pytest.raises(SystemExit) as exc:
        _gate(tmp_path, _export(None), baseline)
    assert exc.value.code not in (0, None)


def test_unparametrized_candidate_matches_committed_reference_entry(
        tmp_path):
    committed = json.loads(COMMITTED_BASELINE.read_text())
    rate = next(b["samples_per_second"] for b in committed["benchmarks"]
                if b["name"] == "test_decode_speed_16_tags[reference]")
    assert _gate(tmp_path, _export(rate), COMMITTED_BASELINE) == 0
    assert _gate(tmp_path, _export(rate * 0.5), COMMITTED_BASELINE) == 1
