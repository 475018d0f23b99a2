"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Phases:

* ``cold``: set up, run the query once against an empty ``--cache-dir``
  (which it fills), and report set-up time, query time, peak RSS and
  the output digest.
* ``warm``: set up, then replay the query from the on-disk cache a cold
  pass wrote for ``--replay-seconds`` (at least three times), each
  replay through a fresh ``ResultCache`` so every entry is read from
  disk.
* ``reference``: search-pruned's selection answered exhaustively.
* ``traced``: a cold pass with spans recorded (see ``tracing.py``),
  written to ``--trace-out``.

The last line of standard output is one JSON object.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is shared by every process on the host), so set-up
time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase",
                        choices=("cold", "warm", "reference", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--replay-seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.phase == "traced":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    import workloads

    if args.phase == "reference":
        prepare = workloads.prepare_search_reference
        workers = 1
    else:
        workload = workloads.WORKLOADS[args.workload]
        prepare = workload.prepare
        workers = args.workers if args.workers else workload.workers

    def setup():
        return prepare(args.seed, args.cache_dir, workers=workers,
                       tiny=args.tiny)

    prepared = (recorder.run("bench.setup", setup) if recorder
                else setup())
    out = {"setup_s": time.monotonic() - args.t0, "workers": workers}

    if args.phase == "warm":
        from repro.runtime.cache import ResultCache

        times, digests = [], []
        until = time.monotonic() + args.replay_seconds
        while len(times) < 3 or time.monotonic() < until:
            prepared.session.cache = ResultCache(cache_dir=args.cache_dir)
            start = time.perf_counter()
            outputs = prepared.query()
            times.append(time.perf_counter() - start)
            digests.append(workloads.digest(outputs))
            if prepared.session.cache.stats.writes:
                raise RuntimeError("warm replay recomputed a cached result")
        out.update(replay_s=times, digests=digests)
    else:
        if recorder is not None:
            from repro.models.trace import layer_trace

            before = layer_trace.cache_info()
        start = time.perf_counter()
        outputs = (recorder.run("bench.query", prepared.query) if recorder
                   else prepared.query())
        out["query_s"] = time.perf_counter() - start
        out.update(digest=workloads.digest(outputs),
                   points=prepared.points, peak_rss_mb=_peak_rss_mb())
        if recorder is not None:
            after = layer_trace.cache_info()
            info = prepared.session.cache.info()
            recorder.counters.update({
                "prune": prepared.last.get("meta", {}).get("prune"),
                "cache.hits": info["stats"]["hits"],
                "cache.misses": info["stats"]["misses"],
                "cache.writes": info["stats"]["writes"],
                "cache.disk_bytes": info["disk_bytes"],
                "trace.layer_trace_hits": after.hits - before.hits,
                "trace.layer_trace_misses": after.misses - before.misses,
            })
            recorder.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
