"""Tiny-size smoke test of the benchmark. It checks outputs, not timings.

    python3 -m pytest -q benchmarks/test_smoke.py

Every workload runs at ``--size tiny``: every named metric must print with
its unit, every output check must pass, the same seed must give the same
output digests, and a held-out seed must pass too.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED, HELD_OUT_SEED = 3, 987654


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The final result object and the ``# key value`` lines before it."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    notes = dict(ln[2:].split(" ", 1) for ln in lines[:-1] if ln.startswith("# "))
    return json.loads(lines[-1]), notes


def assert_passed(result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = parse(run(*key))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(runs, workload):
    result, notes = runs(workload, SEED, 0)
    assert_passed(result)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert notes["fail_frac"].startswith("0.0 frac")
    env = json.loads(notes["env"])
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "threads", "nproc", "cpu"):
        assert key in env
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_with_units(runs, workload):
    result, _ = runs(workload, SEED, 1)
    assert_passed(result)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests_and_held_out_seed_passes(runs, workload):
    _, plain = runs(workload, SEED, 0)
    _, traced = runs(workload, SEED, 1)
    assert json.loads(plain["digests"])["block0"] == json.loads(traced["digests"])["block0"]
    result, _ = runs(workload, HELD_OUT_SEED, 1)
    assert_passed(result)


def test_failed_replications_count_even_when_bench_exits_0(tmp_path):
    """``bench`` exits 0 when replications fail (n <= p here); the benchmark
    must still count every such replication as failed."""
    sys.path.insert(0, str(HERE))
    import run as bench_run

    bench_run.import_program()
    from workloads import Clock, GridPaper

    wl = GridPaper(0, "tiny", tmp_path)
    wl.cfg = dict(wl.cfg, n=5)
    res = wl.block(0, Clock())
    assert res.units == wl.units_per_block
    assert res.failed == res.units


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
