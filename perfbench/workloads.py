"""The benchmark's workloads: seeded inputs, set-up, the timed query.

Each workload is a function of ``(seed, cache_dir, workers, tiny)`` that
does every piece of set-up a user pays before issuing the query
(imports, ``Session``, ``GridSpec``, the operator-model fit in project
mode) and returns a :class:`Prepared` whose ``query()`` runs the one
operation being timed.  ``repro`` is imported inside the functions so
that a sample process's set-up time covers the imports.

Seeds: seed 0 is exactly the grid of
``benchmarks/test_bench_{megasweep,prune}.py`` -- ``DESIGN_AXES`` with
the batch axis widened to 12 values (100,800 raw points).  Any other
seed draws the values of the ``batch``, ``tp`` and ``dp`` axes, without
replacement, from pools that are those axes' seed-0 values; that is, it
permutes their order with ``random.Random(seed)``.  The raw and
feasible point sets stay the same, while chunk contents, parity
partitions inside a chunk, jitter-key order, pruning order and every
output offset change.  README.md explains why the pools are not wider.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: The widened batch axis of the seed-0 grid (12 values, 100,800 points).
WIDE_BATCH = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)

#: Axes whose value order a non-zero seed draws from its pool.
SEEDED_AXES = ("batch", "tp", "dp")

#: Selection query of search-pruned (and of its exhaustive reference).
TOPK = 10

#: Experiments covered elsewhere: workloads 1-3 stream the design space.
EXCLUDED_EXPERIMENTS = ("extension-designspace",)

#: Experiments of the tiny smoke variant of paper-experiments.
TINY_EXPERIMENTS = ("table-2", "figure-10", "extension-decode")


@dataclass
class Prepared:
    """A set-up workload, ready to issue its query.

    Attributes:
        session: The ``repro.runtime.session.Session`` the query runs on.
        query: Runs the timed operation; returns its JSON-able outputs.
        points: Work units one query covers (raw grid points, or result
            rows for paper-experiments, known after the first query).
        workers: Worker processes the query uses.
        last: Extra facts about the last query (sweep meta), for traces.
    """

    session: object
    query: Callable[[], object]
    points: int
    workers: int
    last: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One named workload of ``BENCHMARK.json``."""

    name: str
    workers: int
    prepare: Callable[..., Prepared]
    seeded: bool = True


def design_axes(seed: int, tiny: bool = False) -> Dict[str, Tuple[int, ...]]:
    """The sweep grid's axes for ``seed`` (see the module docstring).

    ``tiny`` keeps the first values of each axis (a few hundred raw
    points) for the self-test's smoke runs.
    """
    from repro.experiments.ext_designspace import DESIGN_AXES

    axes = dict(DESIGN_AXES)
    axes["batch"] = WIDE_BATCH
    if tiny:
        axes = {"hidden": (1024, 1536, 2048), "seq_len": (512, 1024),
                "batch": (1, 2, 4), "tp": (1, 2, 4, 8), "dp": (1, 2, 4)}
    if seed:
        rng = random.Random(seed)
        for name in SEEDED_AXES:
            axes[name] = tuple(rng.sample(axes[name], len(axes[name])))
    return axes


def design_spec(axes: Dict[str, Tuple[int, ...]], cluster):
    """The lazy grid over ``axes``, constrained like extension-designspace."""
    from repro.core.gridplan import FitsDeviceMemory, GridSpec, MaxWorldSize
    from repro.experiments.ext_designspace import MAX_WORLD_SIZE

    return GridSpec(
        constraints=(MaxWorldSize(MAX_WORLD_SIZE),
                     FitsDeviceMemory.from_device(cluster.device)),
        **axes,
    )


def full_reducers():
    """TopK + ParetoFront + Histogram + ArgExtrema (blocks pruning)."""
    from repro.core.reducers import ArgExtrema, Histogram, ParetoFront, TopK

    return (TopK("iteration_time", k=TOPK, largest=False), ParetoFront(),
            Histogram("serialized_comm_fraction", bins=64),
            ArgExtrema("exposed_comm_time"))


def selection_reducers():
    """TopK + ParetoFront: every reducer prunable."""
    from repro.core.reducers import ParetoFront, TopK

    return (TopK("iteration_time", k=TOPK, largest=False), ParetoFront())


def _session(cache_dir: Optional[str]):
    from repro.runtime.session import Session

    return Session(cache_dir=cache_dir)


def _sweep(seed: int, cache_dir: Optional[str], workers: int, tiny: bool,
           reducers: Callable[[], tuple], prune: bool) -> Prepared:
    session = _session(cache_dir)
    spec = design_spec(design_axes(seed, tiny), session.cluster)
    last: Dict[str, object] = {}

    def query():
        result = session.stream_sweep(spec, reducers(), jobs=workers,
                                      prune=prune)
        last["meta"] = result.meta
        return result.reductions

    return Prepared(session=session, query=query, points=spec.raw_size,
                    workers=workers, last=last)


def prepare_search_pruned(seed: int, cache_dir: Optional[str],
                          workers: int = 1, tiny: bool = False) -> Prepared:
    return _sweep(seed, cache_dir, workers, tiny, selection_reducers, True)


def prepare_search_reference(seed: int, cache_dir: Optional[str],
                             workers: int = 1,
                             tiny: bool = False) -> Prepared:
    """search-pruned's query answered exhaustively (the correctness oracle)."""
    return _sweep(seed, cache_dir, workers, tiny, selection_reducers, False)


def prepare_sweep_project(seed: int, cache_dir: Optional[str],
                          workers: int = 2, tiny: bool = False) -> Prepared:
    from repro.core.evolution import PAPER_SCENARIOS

    session = _session(cache_dir)
    spec = design_spec(design_axes(seed, tiny), session.cluster)
    session.suite()

    def query():
        return [session.stream_sweep(spec, full_reducers(), mode="project",
                                     scenario=scenario,
                                     jobs=workers).reductions
                for scenario in PAPER_SCENARIOS]

    return Prepared(session=session, query=query,
                    points=spec.raw_size * len(PAPER_SCENARIOS),
                    workers=workers)


def experiment_ids(tiny: bool = False) -> List[str]:
    """Registered experiments that paper-experiments runs, in order."""
    from repro.experiments import registry

    if tiny:
        return list(TINY_EXPERIMENTS)
    return [experiment_id for experiment_id in registry.EXPERIMENTS
            if experiment_id not in EXCLUDED_EXPERIMENTS]


def prepare_paper_experiments(seed: int, cache_dir: Optional[str],
                              workers: int = 1,
                              tiny: bool = False) -> Prepared:
    """Every experiment but extension-designspace; ``seed`` is ignored."""
    session = _session(cache_dir)
    ids = experiment_ids(tiny)
    prepared = Prepared(session=session, query=None, points=0,
                        workers=workers)

    def query():
        results = session.run_all(jobs=workers, experiment_ids=ids)
        prepared.points = sum(len(result.rows) for result in results)
        return [result.to_dict() for result in results]

    prepared.query = query
    return prepared


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("search-pruned", 1, prepare_search_pruned),
        Workload("sweep-project-2w", 2, prepare_sweep_project),
        Workload("paper-experiments", 1, prepare_paper_experiments,
                 seeded=False),
    )
}


def digest(outputs: object) -> str:
    """SHA-256 of the canonical JSON of a query's outputs.

    Tuples and lists serialize alike, so a cold pass and a replay from
    the on-disk JSON cache hash the same when their values are equal.
    """
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
