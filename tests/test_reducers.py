"""Online reducers: merge associativity, determinism, exact sums."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.core import reducers
from repro.core.batch import BatchBreakdown
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
    exact_sum_add,
    exact_sum_array,
    exact_sum_merge,
    exact_sum_value,
    metric_values,
)

ALL_REDUCERS = (
    TopK("iteration_time", k=4, largest=False),
    TopK("compute_time", k=3, largest=True),
    ParetoFront(),
    Histogram("serialized_comm_fraction", bins=16),
    ArgExtrema("exposed_comm_time"),
    Collect(),
)


#: Reducers whose per-chunk observe is vectorized, run on tie-heavy rows.
TIED_REDUCERS = (
    ParetoFront(),
    ParetoFront("compute_time", "serialized_comm_time"),
    Histogram("iteration_time", bins=8, lo=0.0, hi=0.2),
)


def synthetic_chunks(n_rows: int = 60, n_chunks: int = 7,
                     seed: int = 11, ties: bool = False) -> list:
    """Deterministic synthetic evaluated chunks with messy float values.

    ``ties=True`` rounds the inputs to a few levels, so many rows share
    an x, an (x, y) pair or every metric, and scatters the raw-grid
    offsets so tie-breaks cannot follow row order.
    """
    rng = random.Random(seed)
    compute = np.array([rng.uniform(1e-5, 1e-1) for _ in range(n_rows)])
    serialized = np.array([rng.uniform(0, 5e-2) for _ in range(n_rows)])
    overlapped = np.array([rng.uniform(0, 2e-2) for _ in range(n_rows)])
    offsets = np.arange(n_rows, dtype=np.int64)
    if ties:
        compute = np.round(compute, 2)
        serialized = np.round(serialized, 2)
        overlapped = np.round(overlapped, 2)
        offsets = np.random.default_rng(seed).permutation(offsets) * 3
    iteration = compute + serialized + overlapped * 0.5
    rows_per = [n_rows // n_chunks] * n_chunks
    rows_per[-1] += n_rows - sum(rows_per)
    chunks = []
    offset = 0
    for rows in rows_per:
        lo, hi = offset, offset + rows
        offset = hi
        columns = {
            "hidden": np.full(rows, 1024, dtype=np.int64),
            "seq_len": np.full(rows, 2048, dtype=np.int64),
            "batch": np.full(rows, 1, dtype=np.int64),
            "tp": np.full(rows, 8, dtype=np.int64),
            "dp": np.full(rows, 2, dtype=np.int64),
        }
        chunks.append(EvaluatedChunk(
            offsets=offsets[lo:hi],
            columns=columns,
            breakdown=BatchBreakdown(
                compute_time=compute[lo:hi],
                serialized_comm_time=serialized[lo:hi],
                overlapped_comm_time=overlapped[lo:hi],
                iteration_time=iteration[lo:hi],
            ),
        ))
    return chunks


def fold(reducer, chunks, order=None):
    payload = reducer.empty()
    indices = order if order is not None else range(len(chunks))
    for index in indices:
        payload = reducer.merge(payload, reducer.observe(chunks[index]))
    return reducer.finalize(payload)


class TestMergeLaws:
    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_shuffled_arrival_is_deterministic(self, reducer):
        chunks = synthetic_chunks()
        reference = fold(reducer, chunks)
        for seed in range(5):
            order = list(range(len(chunks)))
            random.Random(seed).shuffle(order)
            assert fold(reducer, chunks, order) == reference

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_merge_associativity(self, reducer):
        chunks = synthetic_chunks(n_chunks=3)
        a, b, c = (reducer.observe(chunk) for chunk in chunks)
        left = reducer.merge(reducer.merge(a, b), c)
        right = reducer.merge(a, reducer.merge(b, c))
        assert reducer.finalize(left) == reducer.finalize(right)

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_empty_is_identity(self, reducer):
        chunk = synthetic_chunks(n_chunks=1)[0]
        observed = reducer.observe(chunk)
        left = reducer.merge(reducer.empty(), observed)
        right = reducer.merge(observed, reducer.empty())
        assert reducer.finalize(left) == reducer.finalize(right) \
            == reducer.finalize(observed)

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_chunk_size_invariance(self, reducer):
        fine = synthetic_chunks(n_rows=60, n_chunks=12)
        coarse = synthetic_chunks(n_rows=60, n_chunks=2)
        assert fold(reducer, fine) == fold(reducer, coarse)

    @pytest.mark.parametrize("reducer", TIED_REDUCERS,
                             ids=lambda r: r.label)
    def test_tied_rows_shuffled_and_rechunked(self, reducer):
        reference = fold(reducer, synthetic_chunks(n_rows=240, n_chunks=1,
                                                   ties=True))
        for n_chunks in (2, 7, 24):
            chunks = synthetic_chunks(n_rows=240, n_chunks=n_chunks,
                                      ties=True)
            for seed in range(3):
                order = list(range(n_chunks))
                random.Random(seed).shuffle(order)
                assert fold(reducer, chunks, order) == reference

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_payloads_are_json_safe(self, reducer):
        chunks = synthetic_chunks(n_chunks=2)
        payload = reducer.merge(reducer.observe(chunks[0]),
                                reducer.observe(chunks[1]))
        assert json.loads(json.dumps(payload)) == payload


class TestTopK:
    def test_selects_global_extremes(self):
        chunks = synthetic_chunks()
        values = np.concatenate([
            chunk.breakdown.iteration_time for chunk in chunks
        ])
        reducer = TopK("iteration_time", k=4, largest=False)
        entries = fold(reducer, chunks)["entries"]
        expected = sorted(values)[:4]
        assert [entry["value"] for entry in entries] \
            == pytest.approx(expected, abs=0)

    def test_offset_tie_break(self):
        chunks = synthetic_chunks(n_chunks=2)
        # Force equal values everywhere: ties resolve by lowest offset.
        for chunk in chunks:
            chunk.breakdown.iteration_time[:] = 1.0
        entries = fold(TopK("iteration_time", k=3, largest=False),
                       chunks)["entries"]
        assert [entry["offset"] for entry in entries] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(KeyError):
            TopK("no_such_metric")
        with pytest.raises(ValueError):
            TopK("iteration_time", k=0)


class TestParetoFront:
    def test_no_dominated_points_survive(self):
        chunks = synthetic_chunks()
        entries = fold(ParetoFront(), chunks)["entries"]
        assert entries
        for a in entries:
            for b in entries:
                if a is b:
                    continue
                dominated = (b["x"] <= a["x"] and b["y"] <= a["y"]
                             and (b["x"] < a["x"] or b["y"] < a["y"]))
                assert not dominated
        xs = [entry["x"] for entry in entries]
        ys = [entry["y"] for entry in entries]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    def test_exact_duplicates_keep_lowest_offset(self):
        chunks = synthetic_chunks(n_chunks=2)
        for chunk in chunks:
            chunk.breakdown.compute_time[:] = 1.0
            chunk.breakdown.serialized_comm_time[:] = 0.5
            chunk.breakdown.overlapped_comm_time[:] = 0.0
            chunk.breakdown.iteration_time[:] = 1.5
        entries = fold(ParetoFront(), chunks)["entries"]
        assert len(entries) == 1
        assert entries[0]["offset"] == 0


def reference_frontier(reducer: ParetoFront,
                       chunk: EvaluatedChunk) -> dict:
    """Per-row ``observe``: every row through the ``_frontier`` scan."""
    xs = metric_values(reducer.metric_x, chunk.breakdown)
    ys = metric_values(reducer.metric_y, chunk.breakdown)
    configs = chunk.config_rows(np.arange(len(chunk)))
    return {"entries": ParetoFront._frontier([
        {"x": float(x), "y": float(y), "offset": int(offset),
         "config": config}
        for x, y, offset, config in zip(xs, ys, chunk.offsets, configs)
    ])}


def chunk_of(compute, serialized, offsets=None,
             iteration=None) -> EvaluatedChunk:
    """One chunk with the given compute and serialized-comm columns."""
    compute = np.asarray(compute, dtype=np.float64)
    rows = compute.shape[0]
    if iteration is None:
        iteration = compute + np.asarray(serialized) * 1.5
    if offsets is None:
        offsets = np.random.default_rng(rows).permutation(rows) * 5
    columns = {name: np.arange(rows, dtype=np.int64) + index
               for index, name in enumerate(
                   ("hidden", "seq_len", "batch", "tp", "dp"))}
    return EvaluatedChunk(
        offsets=np.asarray(offsets, dtype=np.int64),
        columns=columns,
        breakdown=BatchBreakdown(
            compute_time=compute,
            serialized_comm_time=np.asarray(serialized, dtype=np.float64),
            overlapped_comm_time=np.zeros(rows),
            iteration_time=np.asarray(iteration, dtype=np.float64),
        ),
    )


class TestParetoObserveMatchesFrontier:
    """The vectorized observe against the per-row sort-and-scan."""

    REDUCERS = (ParetoFront(),
                ParetoFront("compute_time", "serialized_comm_time"),
                ParetoFront("serialized_comm_time", "compute_time"))

    @staticmethod
    def cases():
        rng = np.random.default_rng(5)
        levels = rng.uniform(0, 1, size=4)
        return {
            "equal-x": chunk_of(np.full(50, 0.25),
                                rng.choice(levels, size=50)),
            "equal-xy": chunk_of(np.repeat(levels[:3], 20),
                                 np.repeat(levels[1:], 20)),
            "duplicates": chunk_of(np.full(30, 0.5), np.full(30, 0.125)),
            "signed-zeros": chunk_of(rng.choice([0.0, -0.0, 1.0], size=40),
                                     rng.choice([0.0, -0.0, 2.0], size=40)),
            "single-row": chunk_of([0.3], [0.7], offsets=[42]),
            "messy": chunk_of(rng.uniform(0, 1, size=300),
                              rng.uniform(0, 1, size=300)),
            "tied-grid": synthetic_chunks(n_rows=300, n_chunks=1,
                                          ties=True)[0],
        }

    @pytest.mark.parametrize("reducer", REDUCERS, ids=lambda r: r.label)
    def test_observe_matches_reference(self, reducer):
        for name, chunk in self.cases().items():
            observed = reducer.observe(chunk)
            # repr also tells -0.0 from 0.0 and int offsets from floats.
            assert repr(observed) == repr(reference_frontier(reducer,
                                                             chunk)), name

    def test_ties_keep_lowest_offset(self):
        chunk = chunk_of(np.full(6, 1.0), np.full(6, 2.0),
                         offsets=[9, 4, 7, 2, 8, 5])
        entries = ParetoFront("compute_time",
                              "serialized_comm_time").observe(chunk)
        assert [entry["offset"] for entry in entries["entries"]] == [2]


class TestExactSumArray:
    """Integer-mantissa chunk sums against the Shewchuk reference."""

    @staticmethod
    def assert_matches_reference(values):
        values = np.asarray(values, dtype=np.float64)
        reference = exact_sum_add([], values.tolist())
        partials = exact_sum_array(values)
        assert repr(exact_sum_value(partials)) \
            == repr(exact_sum_value(reference))
        if all(map(math.isfinite, reference)):
            # Same exact value, not just the same rounding.
            assert exact_sum_value(exact_sum_merge(
                reference, [-p for p in partials])) == 0.0
        else:
            assert repr(partials) == repr(reference)
        # The histogram reports the same sum either way.
        hist = Histogram("iteration_time", bins=4, lo=-1.0, hi=1.0)
        rows = values.shape[0]
        chunk = chunk_of(np.zeros(rows), np.zeros(rows), iteration=values)
        observed = hist.observe(chunk)
        legacy = dict(observed, sum_partials=reference)
        assert repr(hist.finalize(observed)) == repr(hist.finalize(legacy))

    def test_mixed_signs_and_cancellation(self):
        self.assert_matches_reference([1e16, 1.0, -1e16, 1e-8, 3.0, -2.0]
                                      * 50)
        rng = np.random.default_rng(1)
        half = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
        self.assert_matches_reference(np.concatenate([half, -half[::-1],
                                                      [1e-30]]))
        self.assert_matches_reference([1.0, -1.0] * 10)  # exact zero

    def test_subnormals(self):
        self.assert_matches_reference([5e-324] * 7)
        self.assert_matches_reference([5e-324, -5e-324, 1e-310, 2.2e-308,
                                       -1e-320, 3e-323])
        self.assert_matches_reference([-5e-324])

    def test_magnitude_spread(self):
        rng = np.random.default_rng(2)
        values = (rng.choice([-1.0, 1.0], size=400)
                  * 10.0 ** rng.uniform(-300, 300, size=400))
        self.assert_matches_reference(values)

    def test_negative_zero_chunk(self):
        # Partials keep the reference's -0.0, so finalize gets whatever
        # sign of zero this Python's fsum gives for it.
        partials = exact_sum_array(np.array([-0.0] * 5))
        assert repr(partials) == repr(exact_sum_add([], [-0.0] * 5)) \
            == "[-0.0]"
        self.assert_matches_reference([-0.0] * 5)
        self.assert_matches_reference([-0.0, 0.0, -0.0])

    def test_non_finite_takes_reference_fold(self):
        for values in ([math.inf, 1.0], [-math.inf, 2.0, 3.0],
                       [math.inf, -math.inf], [math.nan, 1.0],
                       [1e308, 1e308, -1e308]):
            self.assert_matches_reference(values)

    def test_fuzzed_arrays(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            size = int(rng.integers(1, 120))
            spread = rng.uniform(0, 40) if trial % 2 else rng.uniform(0, 600)
            values = (rng.normal(size=size)
                      * 2.0 ** rng.uniform(-spread / 2, spread / 2,
                                           size=size))
            self.assert_matches_reference(values)

    def test_blocked_accumulation(self, monkeypatch):
        monkeypatch.setattr(reducers, "_EXACT_BLOCK", 7)
        rng = np.random.default_rng(4)
        self.assert_matches_reference(rng.normal(size=100) * 1e5)
        self.assert_matches_reference([-0.0] * 20)


class TestHistogram:
    def test_counts_and_bounds(self):
        chunks = synthetic_chunks()
        result = fold(Histogram("serialized_comm_fraction", bins=16),
                      chunks)
        values = np.concatenate([
            metric_values("serialized_comm_fraction", chunk.breakdown)
            for chunk in chunks
        ])
        assert result["count"] == len(values)
        assert sum(result["counts"]) + result["under"] + result["over"] \
            == len(values)
        assert result["min"] == values.min()
        assert result["max"] == values.max()
        assert result["sum"] == math.fsum(values)
        assert 0.0 <= result["p50"] <= result["p90"] <= result["p99"] <= 1.0

    def test_exact_sum_is_grouping_invariant(self):
        # Adversarial cancellation: naive left-to-right partial sums
        # differ across groupings; the exact accumulator must not.
        values = [1e16, 1.0, -1e16, 1e-8, 3.0, -2.0] * 50
        groupings = [1, 2, 3, 7, 60]
        sums = set()
        for size in groupings:
            partials = []
            for start in range(0, len(values), size):
                partials = exact_sum_merge(
                    partials, exact_sum_add([], values[start:start + size])
                )
            sums.add(exact_sum_value(partials))
        assert sums == {math.fsum(values)}

    def test_unbounded_metric_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram("iteration_time")
        bounded = Histogram("iteration_time", lo=0.0, hi=1.0)
        assert bounded.lo == 0.0 and bounded.hi == 1.0

    def test_fraction_metric_defaults_unit_range(self):
        hist = Histogram("serialized_comm_fraction")
        assert (hist.lo, hist.hi) == (0.0, 1.0)


class TestArgExtremaAndCollect:
    def test_extrema_match_numpy(self):
        chunks = synthetic_chunks()
        values = np.concatenate([
            chunk.breakdown.exposed_comm_time for chunk in chunks
        ])
        result = fold(ArgExtrema("exposed_comm_time"), chunks)
        assert result["min"]["value"] == values.min()
        assert result["max"]["value"] == values.max()
        assert result["min"]["offset"] == int(np.argmin(values))
        assert result["max"]["offset"] == int(np.argmax(values))

    def test_collect_reassembles_in_offset_order(self):
        chunks = synthetic_chunks(n_chunks=4)
        reducer = Collect()
        shuffled = fold(reducer, chunks, order=[2, 0, 3, 1])
        assert shuffled["offsets"] == sorted(shuffled["offsets"])
        rebuilt = reducer.arrays(shuffled)
        reference = np.concatenate([
            chunk.breakdown.iteration_time for chunk in chunks
        ])
        np.testing.assert_array_equal(rebuilt.iteration_time, reference)

    def test_collect_limit(self):
        chunks = synthetic_chunks(n_rows=20, n_chunks=2)
        reducer = Collect(limit=15)
        with pytest.raises(ValueError):
            fold(reducer, chunks)

    def test_metric_values_unknown_name(self):
        chunk = synthetic_chunks(n_chunks=1)[0]
        with pytest.raises(KeyError):
            metric_values("bogus", chunk.breakdown)
