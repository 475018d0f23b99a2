"""The batch engine's slots and the scalar trace share one declaration.

:func:`repro.models.layers.layer_slots` declares a layer's operators over
either scalar dims or a grid partition's columns.  These tests check,
for every row of every parity partition, that the batch engine's slot
list agrees field by field with the operators of
``layer_trace(*grid.at(row))`` -- so a fault in either side's use of the
declaration (a dropped field, a wrong phase, swapped gradient shapes)
fails here instead of surfacing as a timing difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import ConfigGrid, _partitions
from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.experiments import sweeps
from repro.models.graph import (
    CollectiveKind,
    CommOp,
    ElementwiseOp,
    GemmOp,
)
from repro.models.layers import CommSlot, ElementwiseSlot, GemmSlot
from repro.models.trace import layer_trace
from repro.sim.checker import random_configs

_OP_TYPE = {GemmSlot: GemmOp, ElementwiseSlot: ElementwiseOp,
            CommSlot: CommOp}


def _row(value, row: int) -> int:
    """Entry ``row`` of a slot field (an int64 column or a scalar)."""
    array = np.asarray(value)
    return int(array[row] if array.ndim else array)


def _slot_fields(slot, row: int) -> dict:
    fields = {"name": slot.name, "type": _OP_TYPE[type(slot)],
              "phase": slot.phase, "sublayer": slot.sublayer}
    if isinstance(slot, GemmSlot):
        fields.update(m=_row(slot.m, row), n=_row(slot.n, row),
                      k=_row(slot.k, row), batch=_row(slot.batch, row),
                      has_weights=slot.has_weights)
    elif isinstance(slot, ElementwiseSlot):
        fields.update(elements=_row(slot.elements, row),
                      rw_factor=slot.rw_factor, kind=slot.kind)
    else:
        fields.update(nbytes=_row(slot.nbytes, row), group=slot.group,
                      overlappable=slot.overlappable,
                      collective=CollectiveKind.ALL_REDUCE)
    return fields


def _op_fields(op) -> dict:
    fields = {"name": op.name, "type": type(op), "phase": op.phase,
              "sublayer": op.sublayer}
    if isinstance(op, GemmOp):
        fields.update(m=op.shape.m, n=op.shape.n, k=op.shape.k,
                      batch=op.shape.batch, has_weights=op.has_weights)
    elif isinstance(op, ElementwiseOp):
        fields.update(elements=op.elements, rw_factor=op.rw_factor,
                      kind=op.kind)
    else:
        fields.update(nbytes=op.nbytes, group=op.group,
                      overlappable=op.overlappable,
                      collective=op.collective)
    return fields


def assert_slots_match_traces(grid: ConfigGrid) -> set:
    """Check every row; return the (TP > 1, DP > 1) parities seen."""
    parities = set()
    checked = 0
    for mask, _, slots in _partitions(grid):
        for row, index in enumerate(np.flatnonzero(mask)):
            model, parallel = grid.at(int(index))
            parities.add((parallel.tp > 1, parallel.dp > 1))
            ops = layer_trace(model, parallel).ops
            assert [slot.name for slot in slots] == [op.name for op in ops]
            for slot, op in zip(slots, ops):
                assert _slot_fields(slot, row) == _op_fields(op), \
                    f"row {index}: {op.name}"
            checked += 1
    assert checked == len(grid)
    return parities


ALL_PARITIES = {(False, False), (False, True), (True, False), (True, True)}


def test_serialized_grid_every_row():
    configs = [(line.hidden, line.seq_len, tp)
               for line in sweeps.SERIALIZED_LINES
               for tp in (1,) + tuple(sweeps.TP_DEGREES)]
    grid = ConfigGrid.from_serialized(configs, batch=2)
    assert assert_slots_match_traces(grid) == {(False, False),
                                               (True, False)}


def test_overlap_grids_every_row():
    points = [(hidden, slb)
              for hidden in sweeps.OVERLAP_H_VALUES
              for slb in sweeps.OVERLAP_SLB_VALUES]
    seen = assert_slots_match_traces(ConfigGrid.from_overlap(
        points, tp=sweeps.OVERLAP_TP, dp=sweeps.OVERLAP_DP))
    seen |= assert_slots_match_traces(ConfigGrid.from_overlap(
        points, tp=1, dp=4))
    assert seen == {(True, True), (False, True)}


def _pair(hidden, heads, tp, dp, seq_len=256, batch=2,
          precision=Precision.FP16):
    return (ModelConfig(name=f"h{hidden}-a{heads}", hidden=hidden,
                        seq_len=seq_len, batch=batch, num_heads=heads,
                        precision=precision),
            ParallelConfig(tp=tp, dp=dp))


@pytest.mark.parametrize("precision", [Precision.FP16, Precision.FP32])
def test_model_grid_head_counts_and_parities(precision):
    # Adjacent rows share H/SL/B/TP and differ only in head count, which
    # changes the attention GEMM shapes; every parity is present.
    pairs = [
        _pair(1024, 8, 1, 1, precision=precision),
        _pair(1024, 16, 1, 1, precision=precision),
        _pair(1024, 8, 2, 1, precision=precision),
        _pair(1024, 16, 2, 1, precision=precision),
        _pair(1024, 8, 1, 4, precision=precision),
        _pair(1024, 32, 1, 4, precision=precision),
        _pair(2048, 16, 4, 2, precision=precision),
        _pair(2048, 64, 4, 2, precision=precision),
        _pair(768, 12, 1, 1, seq_len=100, batch=3, precision=precision),
    ]
    grid = ConfigGrid.from_models(pairs)
    assert (grid.num_heads[0], grid.num_heads[1]) == (8, 16)
    assert assert_slots_match_traces(grid) == ALL_PARITIES


def test_random_model_grid_every_row():
    grid = ConfigGrid.from_models(random_configs(80, seed=11))
    assert assert_slots_match_traces(grid) == ALL_PARITIES
