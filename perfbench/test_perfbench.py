"""Smoke tests of the benchmark itself (tiny inputs, same code paths).

Run from the repository root:

    python3 -m pytest perfbench -q

They check that every workload emits every metric BENCHMARK.json names,
with its unit, in both modes, that a wrong oracle row fails the run,
that a traced run the wrappers no longer see fails, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import metrics
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = metrics.load()
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _smoke(workload, trace, *extra):
    return _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, lines = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert context["calibration_ms"] > 0
    if trace:
        assert context["trace_gaps"] == []


def test_a_trace_the_wrappers_miss_is_refused():
    """A renamed wrap target, or a layer reached some other way, must
    fail the traced run instead of reading as a layer time of 0."""
    wrapped = ["ir.evaluate_us", "ir.stack_us", "xpath.select_us"]
    calls = {"ir.evaluate_us": 4, "ir.stack_us": 4}
    assert run.trace_gaps("batch-ask", {"missing": [], "wrapped": wrapped, "calls": calls}) == []
    assert run.trace_gaps("batch-ask", {
        "missing": ["repro.engine.ir.evaluate_shard"], "wrapped": wrapped, "calls": calls,
    }) == ["wrap target missing: repro.engine.ir.evaluate_shard"]
    assert run.trace_gaps("batch-gaps", {"missing": [], "wrapped": wrapped, "calls": calls}) == [
        "xpath.select_us recorded no call on batch-gaps"
    ]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_wrong_oracle_row_fails_the_run(workload):
    proc, lines = _smoke(workload, 0, "--corrupt-oracle")
    assert proc.returncode != 0
    assert json.loads(lines[-1])["correct"] is False


def test_store_rw_shows_the_stale_reader_defect():
    """Reads beside writes see trees from a newer generation than the
    reader's token names (ROADMAP item 4); the run counts them and still
    passes.  Once readers are snapshot-consistent this must read 0."""
    proc, lines = _run(
        "--workload", "store-rw", "--seed", "1", "--seconds", "2", "--trace", "1", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    values = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    assert values["store.stale_windows"] > 0
    assert values["failed_share"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc, lines = _run(
        "--workload", "batch-ask", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
