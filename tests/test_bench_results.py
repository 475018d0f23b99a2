"""``BENCH_results.json`` keeps every bench across partial bench runs."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

_BENCH = '''
def test_bench_{name}(benchmark, bench_extra):
    benchmark(sum, range(10))
    bench_extra["{name}"] = {{"value": {value}}}
'''


def _run_bench(root: Path, name: str) -> None:
    path = [str(_REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"benchmarks/test_bench_{name}.py", "--benchmark-disable-gc"],
        cwd=root, env=env, check=True, capture_output=True,
    )


def test_partial_runs_keep_each_others_entries(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    shutil.copy(_REPO_ROOT / "benchmarks" / "conftest.py", bench_dir)
    for value, name in enumerate(("first", "second")):
        (bench_dir / f"test_bench_{name}.py").write_text(
            _BENCH.format(name=name, value=value))
    _run_bench(tmp_path, "first")
    _run_bench(tmp_path, "second")
    _run_bench(tmp_path, "first")  # re-measuring replaces, not duplicates

    results = json.loads((tmp_path / "BENCH_results.json").read_text())
    names = [entry["name"] for entry in results["benchmarks"]]
    assert names == ["test_bench_first", "test_bench_second"]
    assert results["extra"]["first"]["value"] == 0
    assert results["extra"]["second"]["value"] == 1
    entries = results["benchmarks"] + list(results["extra"].values())
    assert all("git_sha" in entry for entry in entries)


def _merge_results():
    path = _REPO_ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.merge_results


def test_top_level_fields_come_from_the_current_run():
    previous = {
        "git_sha": "old", "python": "3.9.0", "retired_field": 1,
        "benchmarks": [{"name": "kept", "mean": 1.0, "git_sha": "old"}],
        "extra": {"kept": {"value": 0, "git_sha": "old"}},
    }
    run = {"git_sha": "new", "python": "3.11.7", "exit_status": 0,
           "benchmarks": [{"name": "fresh", "mean": 2.0}],
           "extra": {"fresh": {"value": 1}}}
    merged = _merge_results()(previous, run)
    assert "retired_field" not in merged
    assert {key: merged[key] for key in ("git_sha", "python",
                                         "exit_status")} == {
        "git_sha": "new", "python": "3.11.7", "exit_status": 0}
    assert [entry["name"] for entry in merged["benchmarks"]] == [
        "fresh", "kept"]
    assert merged["extra"] == {"kept": {"value": 0, "git_sha": "old"},
                               "fresh": {"value": 1, "git_sha": "new"}}
