"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper table/figure via its experiment runner,
reports the regeneration time through pytest-benchmark, and asserts the
paper's qualitative bands on the produced rows (shape fidelity, not
absolute numbers -- our substrate is a simulator, not the authors'
testbed).

The session also updates ``BENCH_results.json`` at the repo root: wall
times for every collected bench plus any extra measurements recorded
through the ``bench_extra`` fixture (the batch-vs-scalar cold-grid
timings live there).  Entries are merged by bench name, so a partial
bench run replaces only the entries it produced, and each entry carries
the git revision it was measured at so committed numbers are traceable.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import projection
from repro.hardware.cluster import ClusterSpec, mi210_node

_REPO_ROOT = Path(__file__).resolve().parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_results.json"
_EXTRA_KEY = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def cluster() -> ClusterSpec:
    return mi210_node()


@pytest.fixture(scope="session")
def suite(cluster):
    return projection.fit_operator_models(cluster)


@pytest.fixture(scope="session")
def bench_extra(request) -> dict:
    """Session-wide dict merged into ``BENCH_results.json`` on exit.

    Benches record named measurements that pytest-benchmark does not
    model (e.g. the cold batch-vs-scalar grid comparison) by mutating
    this mapping.
    """
    return request.config.stash[_EXTRA_KEY]


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _collect_benchmarks(config) -> list:
    session = getattr(config, "_benchmarksession", None)
    records = []
    for bench in getattr(session, "benchmarks", []) or []:
        stats = getattr(bench, "stats", None)
        record = {
            "name": getattr(bench, "name", "?"),
            "fullname": getattr(bench, "fullname", "?"),
            "group": getattr(bench, "group", None),
        }
        for field in ("mean", "min", "max", "stddev", "rounds"):
            value = getattr(stats, field, None)
            if value is not None:
                record[field] = value
        records.append(record)
    return records


def pytest_configure(config):
    config.stash[_EXTRA_KEY] = {}


def merge_results(previous: dict, run: dict) -> dict:
    """Fold one session's ``run`` payload into the ``previous`` file.

    Benchmarks merge by ``name`` and extras by key; a re-measured entry
    replaces the old one, every other entry is kept as it was.  The
    top-level fields come from ``run`` alone, so a field the writer no
    longer emits does not linger.
    """
    sha = run["git_sha"]
    merged = {key: value for key, value in run.items()
              if key not in ("benchmarks", "extra")}
    benchmarks = {entry["name"]: entry
                  for entry in previous.get("benchmarks", [])}
    for entry in run["benchmarks"]:
        benchmarks[entry["name"]] = dict(entry, git_sha=sha)
    merged["benchmarks"] = [benchmarks[name] for name in sorted(benchmarks)]
    merged["extra"] = dict(previous.get("extra", {}), **{
        key: dict(value, git_sha=sha) for key, value in run["extra"].items()
    })
    return merged


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    if getattr(config, "workerinput", None) is not None:
        return  # xdist worker: the controller writes the file
    run = {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "exit_status": int(exitstatus),
        "benchmarks": _collect_benchmarks(config),
        "extra": config.stash.get(_EXTRA_KEY, {}),
    }
    if not run["benchmarks"] and not run["extra"]:
        return  # collection-only / non-bench invocation: nothing to report
    try:
        previous = json.loads(_RESULTS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = {}  # first run, or an unreadable file: start afresh
    try:
        _RESULTS_PATH.write_text(
            json.dumps(merge_results(previous, run), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8")
    except OSError:
        pass  # a read-only checkout must not fail the bench run
