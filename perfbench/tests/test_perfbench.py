"""Tests of the benchmark itself: its contract file, a smoke run of every
workload, and that corrupted outputs are counted as failures."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    proc = _run_bench("--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == {f"{w}.{m}" for w in inputs.WORKLOADS for m in names}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "rows", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_inputs_follow_the_seed():
    for w in inputs.WORKLOADS:
        assert inputs.make(w, 7) == inputs.make(w, 7)
    for w in ("rows", "cli"):
        assert inputs.make(w, 7) != inputs.make(w, 8)


def test_oracle_matches_known_coefficients():
    assert [oracle.ext_binom(4, k, 2) for k in range(9)] == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert oracle.ext_binom(10, 3, 1) == 120
    assert oracle.ext_binom(3, 10, 3) == 0


class Corrupting(worker.Direct):
    """Direct calls, but the results of calls named ``name`` pass
    through ``corrupt`` first."""

    def __init__(self, name, corrupt):
        self.name, self.corrupt = name, corrupt

    def call(self, name, fn, *args):
        result = fn(*args)
        return self.corrupt(result) if name == self.name else result


def _off_by_one_row(row):
    mid = len(row.coeffs) // 2
    coeffs = row.coeffs[:mid] + (row.coeffs[mid] + 1,) + row.coeffs[mid + 1:]
    return dataclasses.replace(row, coeffs=coeffs)


def _flip_byte(out):
    code, stdout, rss = out
    return code, bytes([stdout[0] ^ 1]) + stdout[1:], rss


@pytest.mark.parametrize(
    "workload, name, corrupt",
    [
        ("rows", "exact.build", _off_by_one_row),
        ("rows", "exact.query", lambda v: v + 1 if type(v) is int else v),
        ("sweep", "harness.rate_sweep",
         lambda r: dataclasses.replace(r, fitted_slope=r.fitted_slope + 0.5)),
        ("corrections", "edgeworth.general",
         lambda g: dataclasses.replace(g, poly=g.poly + type(g.poly)([Fraction(1, 10**9)]))),
        ("cli", "cli.subprocess", _flip_byte),
        ("cli", "cli.subprocess", lambda out: (2, *out[1:])),
    ],
)
def test_corrupted_outputs_count_as_failures(workload, name, corrupt):
    ops = inputs.make(workload, 1, smoke=True)
    clean = worker.run_ops(ops, worker.Direct())
    assert clean["failed"] == 0
    corrupted = worker.run_ops(ops, Corrupting(name, corrupt))
    touched = {
        "exact.build": sum(op["kind"] == "build" for op in ops),
        "exact.query": sum(op["kind"] == "query" for op in ops),
        "harness.rate_sweep": sum(op["kind"] == "sweep" for op in ops),
        "edgeworth.general": sum(op["general"] for op in ops if "general" in op),
        "cli.subprocess": len(ops),
    }[name]
    assert touched > 0
    assert corrupted["failed"] == touched
    assert len(corrupted["latencies"]) == len(ops)
