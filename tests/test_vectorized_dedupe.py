"""The vectorized timing models evaluate each distinct operator shape once.

``gemm_times``, ``elementwise_times`` and ``cluster_all_reduce_times``
factorize their input rows, evaluate the formulas (jitter hashing
included) on the distinct rows only and gather the results back.  These
tests pin that path bit-for-bit (``tobytes()``) to two references: every
row evaluated alone, and the scalar ``repro.hardware`` models.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import batch_execute
from repro.core.gridplan import GridSpec, MaxWorldSize
from repro.core.hyperparams import Precision
from repro.hardware.cluster import mi210_node, multi_node_cluster
from repro.hardware.collectives import AllReduceAlgorithm
from repro.hardware.gemm import GemmShape
from repro.sim import vectorized
from repro.sim.executor import DEFAULT_TIMING

CLUSTER = mi210_node()
DEVICE = CLUSTER.device
PRECISION = Precision.FP16
GEMM = DEFAULT_TIMING.gemm
EW = DEFAULT_TIMING.elementwise

@pytest.fixture
def rng():
    return np.random.default_rng(20231017)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# -- per-family evaluation and its two references --------------------------


def gemm(m, n, k, batch):
    return vectorized.gemm_times(m, n, k, batch, DEVICE, PRECISION, GEMM)


def gemm_scalar(m, n, k, batch):
    return [GEMM.time(GemmShape(int(a), int(b), int(c), int(d)), DEVICE,
                      PRECISION)
            for a, b, c, d in zip(m, n, k, batch)]


def elementwise(elements):
    return vectorized.elementwise_times(elements, DEVICE, PRECISION, 3.0,
                                        "layernorm", EW)


def elementwise_scalar(elements):
    return [EW.time(int(count), DEVICE, PRECISION, rw_factor=3.0,
                    kind="layernorm") for count in elements]


def collective(nbytes, group, cluster=CLUSTER, overlapped=False):
    return vectorized.cluster_all_reduce_times(nbytes, group, cluster,
                                               overlapped=overlapped)


def collective_scalar(nbytes, group, cluster=CLUSTER, overlapped=False):
    return [cluster.all_reduce_time(float(size), int(devices),
                                    overlapped=overlapped)
            for size, devices in zip(nbytes, group)]


def assert_rowwise(evaluate, *columns) -> np.ndarray:
    """``evaluate`` over all rows equals it over each row alone."""
    result = evaluate(*columns)
    alone = [evaluate(*(column[i:i + 1] for column in columns))
             for i in range(len(columns[0]))]
    assert result.shape == (len(columns[0]),)
    expected = np.concatenate(alone) if alone else np.zeros(0)
    assert result.tobytes() == expected.tobytes()
    return result


def gemm_rows(rng, count: int, distinct: int) -> tuple:
    """``count`` shuffled rows drawn from ``distinct`` GEMM shapes."""
    shapes = np.stack([
        rng.integers(1, 8192, distinct), rng.integers(1, 8192, distinct),
        rng.integers(1, 8192, distinct), rng.integers(1, 64, distinct),
    ])
    pick = rng.integers(0, distinct, count)
    pick[:distinct] = np.arange(distinct)[:count]
    rng.shuffle(pick)
    return tuple(shapes[:, pick].astype(np.int64))


class TestGemm:
    @pytest.mark.parametrize("count,distinct", [(200, 7), (64, 64), (1, 1)])
    def test_matches_rowwise_and_scalar(self, rng, count, distinct):
        rows = gemm_rows(rng, count, distinct)
        result = assert_rowwise(gemm, *rows)
        assert result.tobytes() == _bits(gemm_scalar(*rows))

    def test_all_duplicates(self):
        rows = tuple(np.full(50, value, dtype=np.int64)
                     for value in (4096, 1024, 2048, 8))
        result = gemm(*rows)
        assert result.tobytes() == _bits(gemm_scalar(*rows))
        assert len(set(result.tolist())) == 1

    def test_rows_differing_in_one_column(self):
        base = np.array([2048, 1024, 512, 4], dtype=np.int64)
        for column in range(4):
            rows = [np.full(6, value, dtype=np.int64) for value in base]
            rows[column] = rows[column] * np.array([1, 2, 1, 3, 2, 1])
            result = assert_rowwise(gemm, *rows)
            assert result.tobytes() == _bits(gemm_scalar(*rows))

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        result = gemm(empty, empty, empty, empty)
        assert result.shape == (0,) and result.dtype == np.float64

    def test_scalar_broadcast(self):
        m = np.array([128, 4096, 128, 333, 4096], dtype=np.int64)
        result = gemm(m, 1024, 4096, 1)
        ones = np.ones_like(m)
        assert result.tobytes() == _bits(
            gemm_scalar(m, 1024 * ones, 4096 * ones, ones))
        single = gemm(4096, 1024, 4096, 2)
        assert single.shape == ()
        assert single.tobytes() == _bits(gemm_scalar([4096], [1024],
                                                     [4096], [2]))

    def test_cardinality_product_beyond_int64(self, rng):
        # Four all-distinct columns of 60,000 values: the cardinality
        # product is ~1.3e19 > 2**63, so the packed key is refactorized.
        # Large values are paired with small ones so that each row's
        # 2*m*n*k*batch flop count stays inside int64.
        count = 60_000
        first = rng.permutation(count) + 1
        second = rng.permutation(count) + 1
        rows = (first, count + 1 - first, second, count + 1 - second)
        rows = tuple(column.astype(np.int64) for column in rows)
        result = gemm(*rows)
        blocks = [gemm(*(column[start:start + 997] for column in rows))
                  for start in range(0, count, 997)]
        assert result.tobytes() == np.concatenate(blocks).tobytes()
        picks = rng.integers(0, count, 50)
        assert result[picks].tobytes() == _bits(
            gemm_scalar(*(column[picks] for column in rows)))


class TestElementwise:
    @pytest.mark.parametrize("count,distinct", [(300, 5), (40, 40), (1, 1)])
    def test_matches_rowwise_and_scalar(self, rng, count, distinct):
        values = rng.integers(1, 1 << 30, distinct)
        elements = values[rng.integers(0, distinct, count)].astype(np.int64)
        elements[:min(count, distinct)] = values[:count]
        result = assert_rowwise(elementwise, elements)
        assert result.tobytes() == _bits(elementwise_scalar(elements))

    def test_all_duplicates(self):
        elements = np.full(33, 1 << 20, dtype=np.int64)
        result = elementwise(elements)
        assert result.tobytes() == _bits(elementwise_scalar(elements))

    def test_empty_and_scalar(self):
        assert elementwise(np.zeros(0, dtype=np.int64)).shape == (0,)
        single = elementwise(12345)
        assert single.shape == ()
        assert single.tobytes() == _bits(elementwise_scalar([12345]))


def _clusters():
    node = mi210_node()
    yield "ring", node
    for algorithm in (AllReduceAlgorithm.AUTO, AllReduceAlgorithm.TREE,
                      AllReduceAlgorithm.IN_NETWORK):
        yield algorithm.value, replace(node, allreduce_algorithm=algorithm)
    yield "multi-node", multi_node_cluster(interference_slowdown=1.3)
    yield "multi-node-auto", replace(
        multi_node_cluster(), allreduce_algorithm=AllReduceAlgorithm.AUTO)


CLUSTERS = dict(_clusters())


class TestCollective:
    @pytest.mark.parametrize("name", sorted(CLUSTERS))
    @pytest.mark.parametrize("overlapped", [False, True])
    def test_matches_rowwise_and_scalar(self, rng, name, overlapped):
        cluster = CLUSTERS[name]
        sizes = np.array([1 << 10, 3 << 20, 1 << 27, 5.5e8, 0.0, -0.0])
        groups = np.array([1, 2, 4, 8, 16, 64], dtype=np.int64)
        pick = rng.integers(0, len(sizes) * len(groups), 240)
        nbytes, group = sizes[pick % len(sizes)], groups[pick // len(sizes)]

        def evaluate(size, devices):
            return collective(size, devices, cluster, overlapped)

        result = assert_rowwise(evaluate, nbytes, group)
        assert result.tobytes() == _bits(
            collective_scalar(nbytes, group, cluster, overlapped))
        assert (result[group > 4] > 0).any()  # hierarchical rows present

    def test_signed_zero_and_single_device_rows_are_free(self):
        nbytes = np.array([0.0, -0.0, 1e6, 1e6, -0.0], dtype=np.float64)
        group = np.array([8, 8, 1, 8, 1], dtype=np.int64)
        result = collective(nbytes, group)
        assert result[[0, 1, 2, 4]].tobytes() == np.zeros(4).tobytes()
        assert result.tobytes() == _bits(collective_scalar(nbytes, group))

    def test_all_distinct(self, rng):
        nbytes = (rng.permutation(64) + 1).astype(np.float64) * 4096
        group = np.full(64, 4, dtype=np.int64)
        result = assert_rowwise(collective, nbytes, group)
        assert len(set(result.tolist())) == 64

    def test_empty_and_broadcast(self):
        assert collective(np.zeros(0), 4).shape == (0,)
        nbytes = np.array([1e6, 2e6, 1e6])
        result = collective(nbytes, 4)
        assert result.tobytes() == _bits(collective_scalar(nbytes,
                                                           [4, 4, 4]))
        assert collective(2e6, 4).tobytes() == result[1].tobytes()


# -- the factorization itself ---------------------------------------------


def _distinct_rows(columns) -> int:
    """Distinct rows by bit pattern (``0.0`` and ``-0.0`` differ)."""
    return len(set(zip(*(c.view(np.int64).tolist() for c in columns))))


class TestUniqueRows:
    def _check(self, columns):
        first, inverse = vectorized._unique_rows(columns)
        assert len(first) == _distinct_rows(columns)
        for column in columns:
            gathered = column[first][inverse]
            assert gathered.tobytes() == column.tobytes()

    @pytest.mark.parametrize("values", [(0, 1), (0, 1 << 40)])
    def test_packing_beyond_int64_stays_exact(self, values):
        # 65 two-valued columns: the cardinality product is 2**65, so
        # unguarded packing would shift the first column out of the key
        # and merge rows that differ only there.
        low, high = values
        rows = np.array([[low] + [low] * 64, [high] + [low] * 64,
                         [low] + [high] * 64, [high] + [high] * 64],
                        dtype=np.int64)
        self._check(list(rows.T.copy()))

    def test_signed_zeros_are_distinct(self):
        nbytes = np.array([0.0, -0.0, 0.0, -0.0])
        first, inverse = vectorized._unique_rows([nbytes])
        assert len(first) == 2
        assert inverse[0] == inverse[2] != inverse[1] == inverse[3]

    def test_random_columns(self, rng):
        columns = [rng.integers(0, 3, 500).astype(np.int64),
                   rng.integers(0, 1 << 50, 500).astype(np.int64) % 5,
                   rng.choice([0.5, -0.0, 0.0, 3.0], 500)]
        self._check(columns)

    def test_empty(self):
        first, inverse = vectorized._unique_rows([np.zeros(0, np.int64)] * 2)
        assert first.shape == inverse.shape == (0,)


# -- threads ----------------------------------------------------------------


def _grid(index: int):
    hidden = (1024, 2048, 4096, 8192)
    return GridSpec(hidden=hidden[index % 4:] + hidden[:index % 4],
                    seq_len=(256 << (index % 3), 2048),
                    batch=(1, 2 + index), tp=(1, 2, 4, 8), dp=(1, 2, 8),
                    constraints=(MaxWorldSize(32),)).materialize().grid


def test_threads_match_serial_reference():
    grids = [_grid(index) for index in range(8)]
    serial = [batch_execute(grid, CLUSTER) for grid in grids]
    results = [None] * len(grids)
    errors = []

    def run(index):
        try:
            for _ in range(3):
                results[index] = batch_execute(grids[index], CLUSTER)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got, want in zip(results, serial):
        for name in ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
