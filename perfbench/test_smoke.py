"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_jobs  # noqa: E402
import run  # noqa: E402
import scan  # noqa: E402
import trials  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_and_no_errors(workload):
    out = run.measure(workload, SEED, seconds=0, tiny=True)
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert out["failed"] == 0 and out["correct"], out["notes"]
    assert out["summary"]["error_rate"] == 0
    assert run.THROUGHPUT_NAMES[workload] in out["summary"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run.measure_traced(workload, SEED, tiny=True)
    second = run.measure_traced(workload, SEED, tiny=True)
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert first["failed"] == 0 and second["failed"] == 0, first["notes"] + second["notes"]
    counted = [n for n, m in first["metrics"].items() if m["unit"] == "count"]
    counted.append("affine.feasible_ratio")
    assert {n: first["metrics"][n]["value"] for n in counted} == {
        n: second["metrics"][n]["value"] for n in counted
    }
    assert first["summary"]["job_spans"] == second["summary"]["job_spans"]


def test_each_workload_bypasses_the_others_layer():
    assert run.measure_traced("trials", SEED, tiny=True)["summary"]["job_spans"]["enumeration"] == 0
    assert run.measure_traced("scan", SEED, tiny=True)["summary"]["job_spans"]["sampling"] == 0


def _corrupt_scan(monkeypatch):
    original = scan.oracle_side

    def wrong(*args):
        kind, witness, value = original(*args)
        return kind, witness, "12345" if value != "12345" else "0"

    monkeypatch.setattr(scan, "oracle_side", wrong)


def _corrupt_trials(monkeypatch):
    original = trials.check_summary
    monkeypatch.setattr(trials, "check_summary", lambda r, name, T: original(r, name, T + 1))


def _corrupt_cli(monkeypatch, tmp_path):
    goldens = json.loads(cli_jobs.GOLDENS.read_text())
    key = cli_jobs.key(["rings"])
    goldens[key] = dict(goldens[key], sha256="0" * 64)
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    monkeypatch.setattr(cli_jobs, "GOLDENS", path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_expected_value_is_an_error(workload, monkeypatch, tmp_path):
    if workload == "scan":
        _corrupt_scan(monkeypatch)
    elif workload == "trials":
        _corrupt_trials(monkeypatch)
    else:
        _corrupt_cli(monkeypatch, tmp_path)
    out = run.measure(workload, SEED, seconds=0, tiny=True)
    assert out["failed"] > 0 and not out["correct"]
    assert out["summary"]["error_rate"] > 0
