"""Self-test of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Smoke runs use ``run.py --tiny`` (a few hundred grid points, three
experiments), which checks no golden digest and writes no history.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    result = _run(workload, trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_reduction_is_a_failure():
    prepared = workloads.prepare_search_reference(3, None, tiny=True)
    reductions = prepared.query()
    good = workloads.digest(reductions)
    entry = reductions["top10-min:iteration_time"]["entries"][0]
    entry["value"] = entry["value"] * (1 + 2 ** -50)
    checker = run.Checker(golden=good)
    assert checker.check(good, "unchanged")
    assert not checker.check(workloads.digest(reductions), "perturbed")
    assert (checker.attempted, checker.failed) == (2, 1)


def test_first_pass_mismatch_is_a_failure():
    checker = run.Checker()
    assert checker.check("a" * 64, "first")
    assert not checker.check("b" * 64, "second")
    assert checker.failed == 1


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), "traced", "--workload",
         "search-pruned", "--seed", "3", "--tiny", "--cache-dir",
         str(tmp_path / "cache"), "--trace-out", str(out), "--t0",
         repr(time.monotonic())],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stderr
    trace = json.loads(out.read_text())
    buckets, roots_ns = tracing.bucket_times(trace["spans"])
    resolution_ns = time.get_clock_info("perf_counter").resolution * 1e9
    assert abs(sum(buckets.values()) - roots_ns) <= max(1.0, resolution_ns)
    assert all(ns >= 0 for ns in buckets.values())
    assert buckets["bounds.chunk_bounds_s"] > 0
    metrics = tracing.layer_metrics(trace)
    assert metrics["bounds.chunks"] == metrics["gridplan.chunks"] - \
        trace["counters"]["prune"]["exact_chunks"]


def test_untraced_sample_never_imports_tracing():
    code = ("import sys, runpy; sys.argv = ['sample.py', 'cold', "
            "'--workload', 'search-pruned', '--seed', '0', '--tiny', "
            "'--t0', '0']; sys.path.insert(0, %r)\n"
            "try:\n    runpy.run_path(%r, run_name='__main__')\n"
            "except SystemExit:\n    pass\n"
            "assert 'tracing' not in sys.modules, 'tracing imported'\n"
            % (str(BENCH), str(BENCH / "sample.py")))
    done = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=170,
                          env={"PYTHONPATH": str(ROOT / "src"),
                               "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stderr


def test_seed_zero_is_the_bench_grid_and_seeds_permute_pools():
    zero = workloads.design_axes(0)
    assert zero["batch"] == workloads.WIDE_BATCH
    assert len(zero["hidden"]) * len(zero["seq_len"]) * len(zero["batch"]) \
        * len(zero["tp"]) * len(zero["dp"]) == 100_800
    other = workloads.design_axes(7)
    assert other != zero and other == workloads.design_axes(7)
    for name, values in zero.items():
        assert sorted(other[name]) == sorted(values)
