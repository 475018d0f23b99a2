"""The benchmark command: time one workload end to end, or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-pruned --seed 0 \\
        --seconds 40 --trace 0

Every sample runs in a fresh interpreter (``sample.py``), so no sample
sees another's in-process caches.  ``--trace 0`` alternates cold passes
(each against a new, empty ``--cache-dir``) with warm replays of that
cache while another sample fits in ``--seconds``, and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced cold
passes with traced ones in the same way and reports the per-layer
metrics.  Every pass
is checked against the first pass, against the seed-0 golden digest
(``golden.json``) and, for search-pruned, against an exhaustive answer
to the same query.  The human-readable report goes first; the last line
of standard output is one JSON object.  Each run is appended to
``history.jsonl``.  The exit code is 0 only when every pass was correct.
See README.md.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACES = HERE / "traces"
HISTORY = HERE / "history.jsonl"
GOLDEN = HERE / "golden.json"

#: Every run measures at least this many cold (or traced) samples.
MIN_SAMPLES = 3

#: Seconds each warm sample process spends replaying.
REPLAY_SECONDS = 0.5

#: No new sample starts after this many seconds into a run, whatever
#: ``--seconds`` says, so a run always ends within its time limit.
HARD_STOP_S = 120.0

CHILD_TIMEOUT_S = 150.0


class Failure(Exception):
    """A sample process that crashed, timed out or printed no result."""


def _sample(phase: str, workload: str, seed: int, tiny: bool,
            **options) -> Dict[str, object]:
    """Run ``sample.py`` in a fresh interpreter; its parsed JSON line."""
    command = [sys.executable, str(HERE / "sample.py"), phase,
               "--workload", workload, "--seed", str(seed)]
    for name, value in options.items():
        if value is not None:
            command += ["--" + name.replace("_", "-"), str(value)]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    try:
        done = subprocess.run(command + ["--t0", repr(t0)], env=env,
                              cwd=str(ROOT), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"{phase} sample timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Failure(f"{phase} sample exited {done.returncode}: "
                      f"{done.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise Failure(f"{phase} sample printed no result") from exc


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summary(values: List[float]) -> Dict[str, float]:
    """Sample count, extremes and quartiles, for the history."""
    if len(values) < 2:
        return {"n": len(values), "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2,
            "q3": q3, "max": max(values), "mean": statistics.fmean(values)}


def tail(values: List[float]) -> Optional[tuple]:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for percent in (99, 90, 75):
        if len(values) * (100 - percent) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return percent, cuts[percent - 1]
    return None


class Budget:
    """Decides whether one more sample fits in a run's ``--seconds``.

    A sample starts only if the median sample so far would end within
    ``seconds``, so runs do not overrun by a whole sample; the first
    :data:`MIN_SAMPLES` always run, and none starts after
    :data:`HARD_STOP_S`.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()
        self.last = self.start
        self.durations: List[float] = []

    def another(self, index: int) -> bool:
        now = time.monotonic()
        if index:
            self.durations.append(now - self.last)
        self.last = now
        elapsed = now - self.start
        if index < MIN_SAMPLES:
            return True
        return (elapsed + median(self.durations) <= self.seconds
                and elapsed < HARD_STOP_S)


class Checker:
    """Counts passes and the ones whose output digest is wrong.

    A pass must match the first pass of the run, the golden digest (seed
    0 only) and the reference digest (search-pruned only).
    """

    def __init__(self, golden: Optional[str] = None,
                 reference: Optional[str] = None) -> None:
        self.expected = [digest for digest in (golden, reference) if digest]
        self.first: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, digest: str, what: str) -> bool:
        self.attempted += 1
        if self.first is None:
            self.first = digest
        wrong = [want for want in [self.first] + self.expected
                 if digest != want]
        if wrong:
            self.failed += 1
            self.messages.append(f"{what}: digest {digest[:16]} != "
                                 f"{wrong[0][:16]}")
        return not wrong

    def crash(self, error: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(str(error))


def _source_sha() -> str:
    """SHA-256 over ``src/`` (the checkout may not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _bench_sha() -> str:
    """SHA-256 of the benchmark's own code and ``BENCHMARK.json``."""
    digest = hashlib.sha256()
    for path in [ROOT / "BENCHMARK.json"] + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def measure_end_to_end(workload, seed: int, seconds: float, tiny: bool,
                       checker: Checker, work: Path) -> Dict[str, float]:
    """Cold/warm sample pairs while another fits in ``seconds``."""
    budget = Budget(seconds)
    setups: List[float] = []
    colds: List[float] = []
    replays: List[float] = []
    rss: List[float] = []
    points = 0
    index = 0
    while budget.another(index):
        cache = work / f"cache-{index}"
        index += 1
        try:
            cold = _sample("cold", workload.name, seed, tiny,
                           cache_dir=cache)
            checker.check(cold["digest"], f"cold pass {index}")
            setups.append(cold["setup_s"])
            colds.append(cold["query_s"])
            rss.append(cold["peak_rss_mb"])
            points = cold["points"]
            warm = _sample("warm", workload.name, seed, tiny,
                           cache_dir=cache, replay_seconds=REPLAY_SECONDS)
            for number, digest in enumerate(warm["digests"], 1):
                checker.check(digest, f"warm replay {index}.{number}")
            setups.append(warm["setup_s"])
            replays.extend(warm["replay_s"])
        except Failure as error:
            checker.crash(error)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
    cold_s = median(colds)
    return {
        "setup_s": median(setups),
        "cold_s": cold_s,
        # The fastest replay, not the median: replays are short, and the
        # host alternates between a fast and a ~1.7x slower mode for
        # seconds at a time, so their median flips between the modes
        # from run to run (see README.md).
        "warm_s": min(replays) if replays else float("nan"),
        "points_per_s_per_core": points / (cold_s * workload.workers),
        "peak_rss_mb": median(rss),
        "_samples": {"setup_s": setups, "cold_s": colds, "warm_s": replays,
                     "peak_rss_mb": rss},
    }


def measure_layers(workload, seed: int, seconds: float, tiny: bool,
                   checker: Checker, work: Path) -> Dict[str, float]:
    """Untraced and traced cold passes while another fits in ``seconds``."""
    import tracing

    budget = Budget(seconds)
    colds: List[float] = []
    colds_1w: List[float] = []
    samples: List[Dict[str, float]] = []
    trace_out = work / "trace.json"
    index = 0
    while budget.another(index):
        index += 1
        plan = [("cold", workload.workers, colds)]
        if workload.workers > 1:
            plan.append(("cold", 1, colds_1w))
        plan.append(("traced", 1, None))
        for phase, workers, into in plan:
            cache = work / f"cache-{index}-{phase}-{workers}"
            try:
                out = _sample(phase, workload.name, seed, tiny,
                              cache_dir=cache, workers=workers,
                              trace_out=trace_out if into is None else None)
                checker.check(out["digest"], f"{phase} pass {index}")
                if into is not None:
                    into.append(out["query_s"])
                else:
                    trace = json.loads(trace_out.read_text())
                    samples.append(tracing.layer_metrics(trace))
            except Failure as error:
                checker.crash(error)
            finally:
                shutil.rmtree(cache, ignore_errors=True)
    if trace_out.exists():
        TRACES.mkdir(exist_ok=True)
        shutil.copyfile(trace_out,
                        TRACES / f"{workload.name}-seed{seed}.json")
    metrics = {name: median([sample[name] for sample in samples])
               for name in (samples[0] if samples else {})}
    traced_s = metrics.get("tracing.query_s", float("nan"))
    untraced_1w = median(colds_1w if colds_1w else colds)
    metrics["tracing.overhead_ratio"] = traced_s / untraced_1w - 1.0
    metrics["megasweep.worker_overhead_s"] = (
        median(colds) - traced_s / workload.workers
        if workload.workers > 1 else 0.0)
    metrics["_samples"] = {"cold_s": colds, "cold_1w_s": colds_1w,
                           "traced": len(samples)}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke run on a few hundred grid points (or "
                             "three experiments); checks no golden "
                             "digest and writes no history")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        golden = None
        if args.seed == 0 and not args.tiny:
            golden = json.loads(GOLDEN.read_text())[workload.name]
        reference = None
        crashed = None
        if workload.name == "search-pruned":
            # The exhaustive oracle, computed once outside the timed loop.
            try:
                reference = _sample("reference", workload.name, args.seed,
                                    args.tiny)["digest"]
            except Failure as error:
                crashed = error
        checker = Checker(golden, reference)
        if crashed is not None:
            checker.crash(crashed)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(workload, args.seed, args.seconds, args.tiny,
                          checker, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = metrics.pop("_samples")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    error_rate = checker.failed / max(1, checker.attempted)
    print(f"workload {workload.name}  seed {args.seed}"
          + ("" if workload.seeded else " (ignored: fixed paper inputs)")
          + f"  workers {workload.workers}  trace {args.trace}")
    for metric in wanted:
        name = metric["name"]
        if args.trace:
            count = samples["traced"]
        else:
            count = len(samples.get(name, samples["cold_s"]))
        line = f"  {name:32s} {metrics[name]:>14.6g} {metric['unit']:6s}" \
               f" n={count}"
        values = samples.get(name, [])
        if isinstance(values, list) and len(values) > 1:
            line += f"  median={median(values):.6g}"
            extra = tail(values)
            if extra:
                line += f"  p{extra[0]}={extra[1]:.6g}"
        print(line)
    print(f"  {'error_rate':32s} {error_rate:>14.6g} {'ratio':6s}"
          f" n={checker.attempted}")
    for message in checker.messages:
        print(f"  FAILED {message}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    if not args.tiny:
        entry = {
            "git_sha": _git_sha(),
            "source_sha": _source_sha(),
            "bench_sha": _bench_sha(),
            "workload": workload.name,
            "seed": args.seed,
            "seed_used": workload.seeded,
            "trace": args.trace,
            "seconds": args.seconds,
            "utc": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "host": {"cpus": os.cpu_count(), "python":
                     platform.python_version(), "machine":
                     platform.machine()},
            "samples": {name: summary(values) if isinstance(values, list)
                        else values for name, values in samples.items()},
            **result,
        }
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
