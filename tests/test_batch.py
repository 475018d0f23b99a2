"""Scalar/batch engine equivalence for the vectorized projection engine.

The batch engine's contract is bit-level agreement with the scalar
reference (``execute_trace`` over ``layer_trace``) on every grid entry.
The per-breakdown assertions use a 1e-12 relative tolerance -- three
orders tighter than the 1e-9 acceptance bound -- so a genuine modelling
drift fails loudly while cross-platform 1-ulp noise does not; the sweep
helpers the experiments call are held to exact ``==`` equality with
their per-config scalar references.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import forecast, scaling
from repro.core.batch import (
    BatchBreakdown,
    ConfigGrid,
    batch_execute,
    batch_overlap_roi,
    batch_project,
    serialized_fractions_for_pairs,
)
from repro.core.evolution import PAPER_SCENARIOS, HardwareScenario, \
    scale_durations
from repro.core.gridplan import GridSpec, MaxWorldSize
from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.core.projection import fit_operator_models
from repro.core.roi import overlap_roi_timing
from repro.experiments import sweeps
from repro.models import zoo
from repro.models.trace import layer_trace
from repro.sim.executor import (
    DEFAULT_TIMING,
    execute_trace,
    schedule_with_durations,
)

REL = 1e-12


def exact(value: float):
    return pytest.approx(value, rel=REL, abs=0.0)


def assert_matches_scalar(breakdown: BatchBreakdown, grid: ConfigGrid,
                          cluster, timing=DEFAULT_TIMING) -> None:
    """Every grid entry agrees with the scalar reference breakdown."""
    assert len(breakdown) == len(grid)
    for index in range(len(grid)):
        model, parallel = grid.at(index)
        scalar = execute_trace(layer_trace(model, parallel), cluster,
                               timing).breakdown
        entry = breakdown.at(index)
        assert entry.compute_time == exact(scalar.compute_time)
        assert entry.serialized_comm_time == \
            exact(scalar.serialized_comm_time)
        assert entry.overlapped_comm_time == \
            exact(scalar.overlapped_comm_time)
        assert entry.iteration_time == exact(scalar.iteration_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)
        assert float(breakdown.exposed_comm_time[index]) == \
            exact(scalar.exposed_comm_time)
        assert float(breakdown.critical_comm_fraction[index]) == \
            exact(scalar.critical_comm_fraction)


def fig10_grid() -> ConfigGrid:
    configs = [(line.hidden, line.seq_len, tp)
               for line in sweeps.SERIALIZED_LINES
               for tp in sweeps.TP_DEGREES]
    return ConfigGrid.from_serialized(configs)


def fig11_grid() -> ConfigGrid:
    points = [(hidden, slb)
              for hidden in sweeps.OVERLAP_H_VALUES
              for slb in sweeps.OVERLAP_SLB_VALUES]
    return ConfigGrid.from_overlap(points, tp=sweeps.OVERLAP_TP,
                                   dp=sweeps.OVERLAP_DP)


# -- ground-truth equivalence on the paper grids ------------------------


def test_fig10_grid_matches_scalar(cluster):
    grid = fig10_grid()
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_fig11_grid_matches_scalar(cluster):
    grid = fig11_grid()
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_fig12_scenario_clusters_match_scalar(cluster):
    grid = ConfigGrid.from_serialized(
        [(hidden, seq_len, tp)
         for line in sweeps.SERIALIZED_LINES
         for hidden, seq_len in [(line.hidden, line.seq_len)]
         for candidate, tp in sweeps.HIGHLIGHTED_CONFIGS
         if candidate == line.hidden]
    )
    for scenario in PAPER_SCENARIOS:
        scaled = scenario.apply(cluster)
        assert_matches_scalar(batch_execute(grid, scaled), grid, scaled)


def zoo_and_forecast_pairs():
    """The Table 2 zoo and the 2023-2027 forecast at their TP degrees."""
    pairs = []
    for entry in zoo.zoo_table():
        model = zoo.MODEL_ZOO[entry["model"]]
        tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
        while tp > 1 and (model.num_heads % tp or model.ffn_dim % tp):
            tp //= 2
        pairs.append((model, ParallelConfig(tp=max(1, tp), dp=1)))
    for model in forecast.forecast_series(2023, 2027):
        tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
        pairs.append((model, ParallelConfig(tp=tp, dp=1)))
    return pairs


def test_zoo_and_forecast_pairs_match_scalar(cluster):
    pairs = zoo_and_forecast_pairs()
    grid = ConfigGrid.from_models(pairs)
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_random_grids_match_scalar(cluster):
    rng = random.Random(20230923)
    pairs = []
    for _ in range(24):
        tp = rng.choice([1, 2, 4, 8, 16])
        heads = tp * rng.choice([1, 2, 4])
        hidden = heads * rng.choice([64, 128])
        model = ModelConfig(
            name=f"rand-{len(pairs)}",
            hidden=hidden,
            seq_len=rng.choice([256, 512, 1024, 2048]),
            batch=rng.choice([1, 2, 4]),
            num_heads=heads,
        )
        pairs.append((model, ParallelConfig(tp=tp,
                                            dp=rng.choice([1, 2, 8, 16]))))
    grid = ConfigGrid.from_models(pairs)
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


# -- run-level evaluation: rows that share GEMM/element-wise shapes ----


def assert_rows_equal_scalar(grid: ConfigGrid, cluster) -> None:
    """Every row's breakdown equals the scalar reference exactly (==)."""
    breakdown = batch_execute(grid, cluster)
    for index in range(len(grid)):
        scalar = execute_trace(layer_trace(*grid.at(index)),
                               cluster).breakdown
        assert breakdown.at(index) == scalar, f"row {index}"


def siblings(grid: ConfigGrid, differ: str) -> int:
    """Adjacent same-parity rows that differ in column ``differ`` only."""
    columns = ("hidden", "seq_len", "batch", "tp", "dp", "num_heads",
               "ffn_dim")
    same = np.ones(len(grid) - 1, dtype=bool)
    for name in columns:
        column = getattr(grid, name)
        equal = column[1:] == column[:-1]
        same &= ~equal if name == differ else equal
    return int(same.sum())


def test_grid_chunk_runs_across_dp_match_scalar(cluster):
    """GEMM and element-wise slots are evaluated once per run of rows
    that differ only in ``dp``; the DP all-reduces on every row."""
    spec = GridSpec(hidden=(1024, 2048), seq_len=(256, 512),
                    batch=(1, 2), tp=(1, 2, 4), dp=(1, 2, 4, 8),
                    constraints=(MaxWorldSize(16),))
    grid = spec.chunk(1, chunk_size=48).grid
    dp_parallel = grid.dp > 1
    assert (grid.tp[dp_parallel] > 1).any()
    assert (grid.tp[dp_parallel] == 1).any()
    assert siblings(grid.subset(dp_parallel), "dp") >= 12
    assert_rows_equal_scalar(grid, cluster)


def test_model_grid_head_siblings_match_scalar(cluster):
    """Adjacent rows differing only in head count are separate runs."""
    def pair(hidden, heads, tp, dp):
        return (ModelConfig(name=f"h{hidden}-a{heads}", hidden=hidden,
                            seq_len=256, batch=2, num_heads=heads),
                ParallelConfig(tp=tp, dp=dp))

    grid = ConfigGrid.from_models([
        pair(1024, 8, 1, 1), pair(1024, 16, 1, 1),
        pair(1024, 8, 2, 1), pair(1024, 16, 2, 1),
        pair(1024, 8, 1, 4), pair(1024, 32, 1, 4),
        pair(2048, 16, 4, 2), pair(2048, 64, 4, 2),
        pair(2048, 64, 4, 4),
    ])
    assert siblings(grid, "num_heads") == 4
    assert_rows_equal_scalar(grid, cluster)


# -- edge cases ---------------------------------------------------------


def test_tp1_dp1_has_no_communication(cluster):
    grid = ConfigGrid.from_models(
        [(ModelConfig(name="solo", hidden=2048, seq_len=1024, batch=1,
                      num_heads=16), ParallelConfig(tp=1, dp=1))]
    )
    breakdown = batch_execute(grid, cluster)
    assert breakdown.serialized_comm_time[0] == 0.0
    assert breakdown.overlapped_comm_time[0] == 0.0
    assert breakdown.iteration_time[0] == breakdown.compute_time[0]
    assert_matches_scalar(breakdown, grid, cluster)


def test_dp1_has_no_overlapped_comm(cluster):
    grid = ConfigGrid.from_serialized([(4096, 1024, 8)])
    breakdown = batch_execute(grid, cluster)
    assert breakdown.overlapped_comm_time[0] == 0.0
    assert breakdown.serialized_comm_time[0] > 0.0
    assert_matches_scalar(breakdown, grid, cluster)


def test_compute_scaled_hardware_exposes_comm(cluster):
    """16x faster compute leaves too little slack to hide DP comm."""
    scenario = HardwareScenario(name="16x compute", compute_scale=16.0,
                                network_scale=1.0)
    scaled = scenario.apply(cluster)
    grid = ConfigGrid.from_overlap([(4096, 4096), (8192, 4096)],
                                   tp=16, dp=16)
    breakdown = batch_execute(grid, scaled)
    assert (breakdown.exposed_comm_time > 0.0).all()
    roi_compute, roi_comm = batch_overlap_roi(grid, scaled)
    assert (roi_comm > roi_compute).all()
    assert_matches_scalar(breakdown, grid, scaled)


def test_overlap_roi_matches_scalar(cluster):
    grid = fig11_grid()
    compute, comm = batch_overlap_roi(grid, cluster)
    for index in range(len(grid)):
        model, parallel = grid.at(index)
        timing = overlap_roi_timing(model, parallel, cluster)
        assert float(compute[index]) == exact(timing.compute_time)
        assert float(comm[index]) == exact(timing.comm_time)


def test_overlap_roi_requires_dp(cluster):
    grid = ConfigGrid.from_serialized([(4096, 1024, 8)])
    with pytest.raises(ValueError,
                       match="no overlappable communication"):
        batch_overlap_roi(grid, cluster)


# -- projection path (operator scaling laws) ----------------------------


@pytest.fixture(scope="module")
def suite(cluster):
    return fit_operator_models(cluster)


def test_batch_project_matches_scalar_projection(cluster, suite):
    grid = fig10_grid()
    breakdown = batch_project(grid, suite)
    for index in range(len(grid)):
        scalar = suite.project_execution(
            layer_trace(*grid.at(index))).breakdown
        entry = breakdown.at(index)
        assert entry.iteration_time == exact(scalar.iteration_time)
        assert entry.serialized_comm_time == \
            exact(scalar.serialized_comm_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)


def test_batch_project_scenario_matches_scaled_durations(cluster, suite):
    grid = fig10_grid()
    scenario = PAPER_SCENARIOS[2]
    breakdown = batch_project(grid, suite, scenario=scenario)
    for index in range(0, len(grid), 5):
        trace = layer_trace(*grid.at(index))
        durations = scale_durations(trace,
                                    suite.project_durations(trace),
                                    scenario)
        scalar = schedule_with_durations(trace, durations).breakdown
        assert breakdown.at(index).iteration_time == \
            exact(scalar.iteration_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)


def test_batch_project_unknown_operator_message(cluster, suite):
    import dataclasses

    grid = fig10_grid()
    pruned = dataclasses.replace(suite, compute_reference={})
    with pytest.raises(KeyError,
                       match="baseline profile has no operator"):
        batch_project(grid, pruned)


# -- grid construction and validation -----------------------------------


def test_grid_validation_errors():
    with pytest.raises(ValueError, match="mismatched lengths"):
        ConfigGrid(hidden=[1024], seq_len=[512, 512], batch=[1],
                   tp=[1], dp=[1], num_heads=[8], ffn_dim=[4096])
    with pytest.raises(ValueError, match="must be >= 1"):
        ConfigGrid(hidden=[1024], seq_len=[0], batch=[1],
                   tp=[1], dp=[1], num_heads=[8], ffn_dim=[4096])
    with pytest.raises(ValueError, match="divisible by num_heads"):
        ConfigGrid(hidden=[1000], seq_len=[512], batch=[1],
                   tp=[1], dp=[1], num_heads=[7], ffn_dim=[4096])
    with pytest.raises(ValueError, match="divisible by TP"):
        ConfigGrid(hidden=[1024], seq_len=[512], batch=[1],
                   tp=[4], dp=[1], num_heads=[2], ffn_dim=[4096])
    with pytest.raises(ValueError, match="mixed precisions"):
        ConfigGrid.from_models([
            (ModelConfig(name="a", hidden=1024, seq_len=512, batch=1,
                         num_heads=8), ParallelConfig()),
            (ModelConfig(name="b", hidden=1024, seq_len=512, batch=1,
                         num_heads=8, precision=Precision.FP32),
             ParallelConfig()),
        ])


def test_grid_round_trips():
    grid = fig10_grid()
    model, parallel = grid.at(3)
    assert model.hidden == int(grid.hidden[3])
    assert parallel.tp == int(grid.tp[3])
    assert model.num_heads % parallel.tp == 0
    sub = grid.subset(grid.tp == 8)
    assert len(sub) == len(sweeps.SERIALIZED_LINES)
    assert (sub.tp == 8).all()
    assert grid.key() == fig10_grid().key()
    assert grid.key() != fig11_grid().key()


# -- sweep helpers: batch engine vs the scalar per-config reference ----


def test_sweep_engines_agree(cluster, suite):
    """The batch sweeps equal the scalar references exactly (``==``)."""
    configs = [(line.hidden, line.seq_len, tp)
               for line in sweeps.SERIALIZED_LINES
               for tp in sweeps.TP_DEGREES]
    points = [(hidden, slb)
              for hidden in sweeps.OVERLAP_H_VALUES
              for slb in sweeps.OVERLAP_SLB_VALUES]
    for scenario in (None, *PAPER_SCENARIOS):
        for projection in (None, suite):
            assert sweeps.serialized_sweep(
                configs, cluster, scenario=scenario, suite=projection,
            ) == [
                sweeps.serialized_fraction(hidden, seq_len, tp, cluster,
                                           scenario=scenario,
                                           suite=projection)
                for hidden, seq_len, tp in configs
            ]
        assert sweeps.overlap_sweep(points, cluster,
                                    scenario=scenario) == [
            sweeps.overlap_ratio(hidden, slb, cluster, scenario=scenario)
            for hidden, slb in points
        ]
    for pairs in (zoo_and_forecast_pairs(), []):
        assert serialized_fractions_for_pairs(pairs, cluster) == [
            scalar_pair_fraction(model, parallel, cluster)
            for model, parallel in pairs
        ]


def scalar_pair_fraction(model, parallel, cluster):
    return execute_trace(layer_trace(model, parallel),
                         cluster).breakdown.serialized_comm_fraction


def test_mixed_precision_pairs_fall_back(cluster):
    """Mixed-precision pairs fall back to one grid per precision.

    A single grid rejects mixed precisions, so the pairs helper splits
    them and scatters the fractions back in input order.
    """
    def small(name, precision):
        return ModelConfig(name=name, hidden=1024, seq_len=512, batch=1,
                           num_heads=8, precision=precision)

    mixed = [
        (small("a", Precision.FP16), ParallelConfig(tp=4, dp=1)),
        (small("b", Precision.FP32), ParallelConfig(tp=4, dp=1)),
        (small("c", Precision.FP16), ParallelConfig(tp=8, dp=1)),
        (small("d", Precision.BF16), ParallelConfig(tp=2, dp=1)),
        (small("e", Precision.FP32), ParallelConfig(tp=8, dp=1)),
    ]
    with pytest.raises(ValueError, match="mixed precisions"):
        ConfigGrid.from_models(mixed)
    assert serialized_fractions_for_pairs(mixed, cluster) == [
        scalar_pair_fraction(model, parallel, cluster)
        for model, parallel in mixed
    ]


def test_session_batch_is_memoized(cluster):
    from repro.runtime.session import Session

    session = Session()
    grid = ConfigGrid.from_serialized([(4096, 1024, 8), (4096, 1024, 64)])
    first = session.batch(grid)
    second = session.batch(grid)
    assert isinstance(first, BatchBreakdown)
    assert (first.iteration_time == second.iteration_time).all()
    assert_matches_scalar(first, grid, session.cluster)


def test_breakdown_zero_guards():
    zeros = np.zeros(2)
    breakdown = BatchBreakdown(compute_time=zeros.copy(),
                               serialized_comm_time=zeros.copy(),
                               overlapped_comm_time=zeros.copy(),
                               iteration_time=zeros.copy())
    assert (breakdown.serialized_comm_fraction == 0.0).all()
    assert (breakdown.critical_comm_fraction == 0.0).all()
    assert (breakdown.overlapped_pct_of_compute == 0.0).all()
