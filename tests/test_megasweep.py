"""Streaming sweep pipeline: equivalence, pooling, caching, buffers."""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np
import pytest

from repro.core.batch import batch_execute, batch_project
from repro.core.gridplan import GridSpec, MaxWorldSize, Predicate
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
)
from repro.hardware.cluster import mi210_node
from repro.runtime.megasweep import stream_sweep
from repro.runtime.parallel import parallel_map
from repro.runtime.session import Session
from repro.sim import vectorized
from repro.sim.checker import stream_oracle

CLUSTER = mi210_node()

REDUCERS = (
    TopK("iteration_time", k=5, largest=False),
    ParetoFront(),
    Histogram("serialized_comm_fraction", bins=16),
    ArgExtrema("exposed_comm_time"),
    Collect(),
)


def spec_with(**overrides) -> GridSpec:
    axes = dict(
        hidden=(1024, 2048, 4096),
        seq_len=(512, 1024),
        batch=(1, 4),
        tp=(1, 2, 8),
        dp=(1, 4),
        constraints=(MaxWorldSize(16),),
    )
    axes.update(overrides)
    return GridSpec(**axes)


def one_shot_reductions(spec: GridSpec, reducers=REDUCERS,
                        mode: str = "execute", suite=None) -> dict:
    whole = spec.materialize()
    if mode == "execute":
        breakdown = batch_execute(whole.grid, CLUSTER)
    else:
        breakdown = batch_project(whole.grid, suite)
    chunk = EvaluatedChunk(offsets=whole.offsets, columns=whole.columns(),
                           breakdown=breakdown)
    return {
        reducer.label: reducer.finalize(
            reducer.merge(reducer.empty(), reducer.observe(chunk)))
        for reducer in reducers
    }


class TestStreamedEquivalence:
    @pytest.mark.parametrize("chunk_size", (1, 5, 16, 1000))
    def test_serial_stream_matches_one_shot(self, chunk_size):
        spec = spec_with()
        reference = one_shot_reductions(spec)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=chunk_size, jobs=1)
        assert result.reductions == reference

    def test_pool_stream_matches_one_shot(self):
        spec = spec_with()
        reference = one_shot_reductions(spec)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=7, jobs=2)
        assert result.jobs == 2
        assert result.reductions == reference

    def test_collected_breakdowns_bit_identical(self):
        spec = spec_with()
        whole = spec.materialize()
        reference = batch_execute(whole.grid, CLUSTER)
        collect = Collect()
        result = stream_sweep(spec, (collect,), cluster=CLUSTER,
                              chunk_size=5, jobs=1)
        rebuilt = collect.arrays(result.reductions[collect.label])
        for name in ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time"):
            np.testing.assert_array_equal(getattr(rebuilt, name),
                                          getattr(reference, name))

    def test_project_mode(self):
        session = Session(cluster=CLUSTER)
        suite = session.suite()
        spec = spec_with()
        reference = one_shot_reductions(spec, mode="project", suite=suite)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              mode="project", suite=suite, chunk_size=9)
        assert result.reductions == reference

    def test_counts_and_metadata(self):
        spec = spec_with()
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=16)
        assert result.raw_points == spec.raw_size == 72
        assert result.evaluated_points == len(spec.materialize().grid)
        assert result.chunk_count == spec.chunk_count(16)
        assert result.mode == "execute"
        assert result.wall_time_s > 0

    def test_stream_oracle_passes(self):
        report = stream_oracle(chunk_sizes=(5,), jobs=(1,))
        assert report.ok, report.summary()
        assert report.points > 0

    def test_validation_errors(self):
        spec = spec_with()
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, mode="bogus")
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, mode="project")  # no suite
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, chunk_size=0)


def _fail_on_large_offset(columns):
    if int(columns["hidden"].max(initial=0)) >= 4096:
        raise RuntimeError("seeded chunk failure")
    return np.ones(len(columns["hidden"]), dtype=bool)


class TestFailurePropagation:
    def test_serial_failure_propagates(self):
        spec = spec_with(constraints=(
            Predicate("fail-large", _fail_on_large_offset),
        ))
        with pytest.raises(RuntimeError, match="seeded chunk failure"):
            stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=4,
                         jobs=1)

    def test_pool_failure_propagates(self):
        spec = spec_with(constraints=(
            Predicate("fail-large", _fail_on_large_offset),
        ))
        with pytest.raises(RuntimeError, match="seeded chunk failure"):
            stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=4,
                         jobs=2)


class TestSessionStreamSweep:
    def test_warm_replay_is_identical(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        cold = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        warm = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.chunk_count
        assert warm.reductions == cold.reductions

    def test_cache_key_separates_contexts(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        base = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        other_chunking = session.stream_sweep(spec, REDUCERS,
                                              chunk_size=8)
        assert other_chunking.cache_hits == 0
        assert other_chunking.reductions == base.reductions
        fewer = session.stream_sweep(spec, REDUCERS[:2], chunk_size=16)
        assert fewer.cache_hits == 0
        assert set(fewer.reductions) == {r.label for r in REDUCERS[:2]}

    def test_no_cache_bypasses(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        session.stream_sweep(spec, REDUCERS, chunk_size=16)
        fresh = session.stream_sweep(spec, REDUCERS, chunk_size=16,
                                     use_cache=False)
        assert fresh.cache_hits == 0

    def test_check_flag_runs_validator(self, monkeypatch):
        calls = []
        from repro.sim import checker

        real = checker.validate_batch

        def spy(breakdown):
            calls.append(len(breakdown.iteration_time))
            return real(breakdown)

        monkeypatch.setattr(checker, "validate_batch", spy)
        session = Session(cluster=CLUSTER, check=True)
        result = session.stream_sweep(spec_with(), REDUCERS,
                                      chunk_size=16)
        assert sum(calls) == result.evaluated_points

    def test_env_check_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        session = Session(cluster=CLUSTER)
        assert session.check
        result = session.stream_sweep(spec_with(), REDUCERS,
                                      chunk_size=32)
        assert result.evaluated_points > 0


PRUNABLE = (
    TopK("iteration_time", k=5, largest=False),
    TopK("compute_time", k=3, largest=True),
    ParetoFront(),
    ArgExtrema("exposed_comm_time"),
)


class TestBoundAndPrune:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("chunk_size", (3, 7, 16))
    def test_pruned_is_bit_identical_to_exhaustive(self, chunk_size,
                                                   jobs):
        spec = spec_with()
        reference = one_shot_reductions(spec, PRUNABLE)
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=chunk_size, jobs=jobs,
                              prune=True)
        assert result.reductions == reference
        assert result.meta["prune"]["enabled"]

    def test_prune_actually_skips_chunks(self):
        # A single narrow objective leaves most chunks provably
        # irrelevant once the incumbent tightens.
        spec = spec_with()
        selection = (TopK("iteration_time", k=1, largest=False),)
        reference = one_shot_reductions(spec, selection)
        result = stream_sweep(spec, selection, cluster=CLUSTER,
                              chunk_size=3, jobs=1, prune=True)
        meta = result.meta["prune"]
        assert result.reductions == reference
        assert meta["pruned_chunks"] > 0
        assert result.evaluated_points < len(spec.materialize().grid)

    def test_prune_accounting_is_complete(self):
        spec = spec_with()
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=4, jobs=1, prune=True)
        meta = result.meta["prune"]
        assert (meta["cached_chunks"] + meta["empty_chunks"]
                + meta["pruned_chunks"] + meta["exact_chunks"]
                == meta["chunks"] == result.chunk_count)
        assert meta["exact_points"] == result.evaluated_points
        assert meta["feasible_points"] == len(spec.materialize().grid)
        assert 0 < meta["exact_point_fraction"] <= 1

    def test_non_prunable_reducer_falls_back(self):
        spec = spec_with()
        mixed = PRUNABLE + (
            Histogram("serialized_comm_fraction", bins=8),)
        reference = one_shot_reductions(spec, mixed)
        result = stream_sweep(spec, mixed, cluster=CLUSTER,
                              chunk_size=7, jobs=1, prune=True)
        assert result.reductions == reference
        meta = result.meta["prune"]
        assert meta["enabled"] is False
        assert "hist8:serialized_comm_fraction" in meta["reason"]
        # every feasible point was evaluated -- nothing silently capped
        assert result.evaluated_points == len(spec.materialize().grid)

    def test_session_pruned_warm_replay(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        cold = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                    prune=True)
        warm = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                    prune=True)
        assert warm.reductions == cold.reductions
        # exact chunk records replay; the rest are re-pruned from the
        # (also cached) bound records without touching the engine.
        assert warm.cache_hits == cold.meta["prune"]["exact_chunks"]
        assert warm.meta["prune"]["cached_chunks"] == warm.cache_hits

    def test_pruned_and_exhaustive_share_exact_records(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        pruned = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                      prune=True)
        exhaustive = session.stream_sweep(spec, PRUNABLE, chunk_size=4)
        assert exhaustive.reductions == pruned.reductions
        assert exhaustive.cache_hits \
            == pruned.meta["prune"]["exact_chunks"]

    def test_project_mode_prunes(self):
        session = Session(cluster=CLUSTER)
        suite = session.suite()
        spec = spec_with()
        reference = one_shot_reductions(spec, PRUNABLE, mode="project",
                                        suite=suite)
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              mode="project", suite=suite, chunk_size=5,
                              prune=True)
        assert result.reductions == reference
        assert result.meta["prune"]["enabled"]


class TestParallelMapLazy:
    def test_lazy_consumption_bounded_window(self):
        high_water = [0]
        outstanding = [0]
        lock = threading.Lock()

        def produce():
            for value in range(64):
                with lock:
                    outstanding[0] += 1
                    high_water[0] = max(high_water[0], outstanding[0])
                yield value

        def consume(value):
            with lock:
                outstanding[0] -= 1
            return value * 2

        results = parallel_map(consume, produce(), jobs=2, window=4)
        assert results == [value * 2 for value in range(64)]
        assert high_water[0] <= 4 + 2  # window + workers in flight

    def test_serial_accepts_generator(self):
        results = parallel_map(lambda v: v + 1, (v for v in range(5)))
        assert results == [1, 2, 3, 4, 5]

    def test_failure_stops_consumption(self):
        consumed = []

        def produce():
            for value in range(100):
                consumed.append(value)
                yield value

        def boom(value):
            if value == 3:
                raise RuntimeError("stop here")
            return value

        with pytest.raises(RuntimeError, match="stop here"):
            parallel_map(boom, produce(), jobs=2, window=2)
        assert len(consumed) < 100

    def test_order_preserved(self):
        import time

        def jittered(value):
            time.sleep(0.001 * ((value * 7) % 3))
            return value

        assert parallel_map(jittered, range(20), jobs=4) == list(range(20))


def _small_hash_cache(monkeypatch, size: int):
    """Rebind the jitter-hash memo to a ``size``-entry LRU of the same hash.

    ``_jitter_factors`` looks the memo up as a module global, so batch
    evaluation goes through the small cache, and eviction happens after
    ``size`` keys instead of 2**18.
    """
    small = functools.lru_cache(maxsize=size)(
        vectorized._cached_unit_hash.__wrapped__)
    monkeypatch.setattr(vectorized, "_cached_unit_hash", small)
    return small


class TestVectorizedBuffers:
    def test_hash_cache_stays_bounded(self, monkeypatch):
        from repro.hardware.gemm import stable_unit_hash

        assert vectorized._cached_unit_hash.cache_info().maxsize == 1 << 18
        cached = _small_hash_cache(monkeypatch, 64)
        values = {}
        for index in range(500):
            key = ("gemm", index, index + 1, index + 2, 0)
            values[key] = cached(key)
            assert values[key] == stable_unit_hash(*key)
            assert cached.cache_info().currsize <= 64
        # recomputing an evicted key reproduces the original value
        evicted = ("gemm", 0, 1, 2, 0)
        misses = cached.cache_info().misses
        assert cached(evicted) == values[evicted]
        assert cached.cache_info().misses == misses + 1

    def test_eviction_keeps_recent_entries(self, monkeypatch):
        cached = _small_hash_cache(monkeypatch, 8)
        keys = [("ew", index, 0) for index in range(8)]
        for key in keys:
            cached(key)
        cached(keys[0])  # touch the oldest: now most recently used
        cached(("ew", 999, 0))  # full: evicts the least recently used
        misses = cached.cache_info().misses
        cached(keys[-1])  # newest insertion survives
        cached(keys[0])  # recently used survives
        assert cached.cache_info().misses == misses
        cached(keys[1])  # least recently used was evicted
        assert cached.cache_info().misses == misses + 1

    def test_concurrent_eviction_is_thread_safe(self, monkeypatch):
        # Batch engines run on threads under Session.run_all(jobs=N);
        # evictions racing on a shared memo once raised KeyError.
        from repro.hardware.gemm import stable_unit_hash

        _small_hash_cache(monkeypatch, 16)
        key_sets = [[("gemm", thread, index, index + 1, 0)
                     for index in range(200)] for thread in range(8)]
        errors = []

        def hammer(keys):
            try:
                expected = vectorized._jitter_factors(0.05, keys)
                for _ in range(20):
                    np.testing.assert_array_equal(
                        vectorized._jitter_factors(0.05, keys), expected)
                u = np.array([stable_unit_hash(*key) for key in keys])
                np.testing.assert_array_equal(
                    expected, 1.0 + 0.05 * (2.0 * u - 1.0))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(keys,))
                       for keys in key_sets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_batch_execute_unaffected_by_buffer_reuse(self):
        # Two different grids evaluated back to back share module state
        # (the jitter memo); results must match fresh evaluations.
        spec_a = spec_with()
        spec_b = spec_with(hidden=(2048, 4096), seq_len=(1024,))
        grid_a = spec_a.materialize().grid
        grid_b = spec_b.materialize().grid
        first_a = batch_execute(grid_a, CLUSTER)
        first_b = batch_execute(grid_b, CLUSTER)
        second_a = batch_execute(grid_a, CLUSTER)
        for name in ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time"):
            np.testing.assert_array_equal(getattr(first_a, name),
                                          getattr(second_a, name))
            assert getattr(first_b, name).shape == (len(grid_b),)
