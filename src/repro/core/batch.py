"""Batch projection engine: whole sweep grids as NumPy arrays.

The scalar path pays a per-configuration Python tax: every grid point of
the Figure 10-13 sweeps builds a per-op :class:`~repro.models.graph.Trace`
and runs the discrete-event scheduler.  But a Transformer layer's trace
has *fixed structure* for a given parallelism parity -- the same ~34
operator slots in the same order, only the shapes change -- so a whole
grid can be evaluated at once:

* :class:`ConfigGrid` holds the (H, SL, B, TP, DP) columns as int64
  arrays;
* the grid is partitioned by ``(TP > 1, DP > 1)`` parity, and each
  partition's slot list comes from :func:`repro.models.layers.layer_slots`
  over the partition's columns -- the same declaration the scalar
  :func:`~repro.models.trace.layer_trace` converts into operators, so
  the two engines cannot disagree on the layer's structure;
* per-slot duration arrays come from the vectorized timing mirrors in
  :mod:`repro.sim.vectorized` (ground truth) or from the fitted
  :class:`~repro.core.projection.OperatorModelSuite` scaling laws
  (projection), reproducing the scalar engines bit-for-bit;
* :func:`_stack_slots` prices GEMM and element-wise slots once per run
  of adjacent rows that differ only in DP, collectives on every row;
  the bound envelopes of :mod:`repro.core.bounds` reuse it;
* the two-stream schedule collapses to closed-form prefix sums
  (:func:`repro.sim.vectorized.closed_form_breakdown`): serialized comm
  adds to the critical path, overlappable DP all-reduces expose only
  ``max(0, comm - remaining_compute)`` slack.

The scalar engine stays the reference implementation, and the only
engine for traces a grid does not describe (multi-layer pipelines, MoE).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.evolution import HardwareScenario
from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    Precision,
)
from repro.core.projection import OperatorModelSuite, _ring_factor
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import CollectiveKind, CommGroup, Phase
from repro.models.layers import (
    CommSlot,
    ElementwiseSlot,
    GemmSlot,
    Slot,
    layer_slots,
)
from repro.sim import vectorized
from repro.sim.breakdown import Breakdown
from repro.sim.executor import DEFAULT_TIMING, TimingModels

__all__ = [
    "ConfigGrid",
    "BatchBreakdown",
    "batch_execute",
    "batch_project",
    "batch_overlap_roi",
    "serialized_fractions_for_pairs",
]


def _column(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return array


@dataclass(frozen=True, eq=False)
class ConfigGrid:
    """Arrays of sweep configurations, one entry per grid point.

    All columns share one length; ``precision`` is uniform across the
    grid (:func:`serialized_fractions_for_pairs` splits mixed-precision
    pairs into one grid per precision).  A grid
    carries the dims :func:`repro.models.layers.layer_slots` declares a
    layer's operators over.
    """

    hidden: np.ndarray
    seq_len: np.ndarray
    batch: np.ndarray
    tp: np.ndarray
    dp: np.ndarray
    num_heads: np.ndarray
    ffn_dim: np.ndarray
    precision: Precision = Precision.FP16

    def __post_init__(self) -> None:
        columns = {
            "hidden": _column(self.hidden, "hidden"),
            "seq_len": _column(self.seq_len, "seq_len"),
            "batch": _column(self.batch, "batch"),
            "tp": _column(self.tp, "tp"),
            "dp": _column(self.dp, "dp"),
            "num_heads": _column(self.num_heads, "num_heads"),
            "ffn_dim": _column(self.ffn_dim, "ffn_dim"),
        }
        lengths = {a.shape[0] for a in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"config columns have mismatched lengths: {sorted(lengths)}"
            )
        for name, array in columns.items():
            if (array < 1).any():
                raise ValueError(f"{name} entries must be >= 1")
            object.__setattr__(self, name, array)
        if (columns["hidden"] % columns["num_heads"] != 0).any():
            raise ValueError("hidden must be divisible by num_heads")
        if (columns["num_heads"] % columns["tp"] != 0).any():
            raise ValueError("num_heads must be divisible by TP")
        if (columns["ffn_dim"] % columns["tp"] != 0).any():
            raise ValueError("ffn_dim must be divisible by TP")

    def __len__(self) -> int:
        return int(self.hidden.shape[0])

    @classmethod
    def from_serialized(
        cls,
        configs: Sequence[Tuple[int, int, int]],
        batch: int = 1,
        precision: Precision = Precision.FP16,
    ) -> "ConfigGrid":
        """Grid for ``(hidden, seq_len, tp)`` serialized-sweep configs.

        Mirrors :func:`repro.experiments.sweeps.serialized_model`: head
        count from :func:`repro.core.strategy.sweep_num_heads`, DP = 1.
        """
        hidden = _column([c[0] for c in configs], "hidden")
        seq_len = _column([c[1] for c in configs], "seq_len")
        tp = _column([c[2] for c in configs], "tp")
        num_heads = np.maximum(tp, np.maximum(1, hidden // 128))
        return cls(
            hidden=hidden,
            seq_len=seq_len,
            batch=np.full_like(hidden, batch),
            tp=tp,
            dp=np.ones_like(hidden),
            num_heads=num_heads,
            ffn_dim=4 * hidden,
            precision=precision,
        )

    @classmethod
    def from_overlap(
        cls,
        points: Sequence[Tuple[int, int]],
        tp: int = 16,
        dp: int = 16,
        precision: Precision = Precision.FP16,
    ) -> "ConfigGrid":
        """Grid for ``(hidden, slb)`` overlap-sweep points (B = 1)."""
        hidden = _column([p[0] for p in points], "hidden")
        seq_len = _column([p[1] for p in points], "seq_len")
        tp_col = np.full_like(hidden, tp)
        num_heads = np.maximum(tp_col, np.maximum(1, hidden // 128))
        return cls(
            hidden=hidden,
            seq_len=seq_len,
            batch=np.ones_like(hidden),
            tp=tp_col,
            dp=np.full_like(hidden, dp),
            num_heads=num_heads,
            ffn_dim=4 * hidden,
            precision=precision,
        )

    @classmethod
    def from_models(
        cls,
        pairs: Sequence[Tuple[ModelConfig, ParallelConfig]],
    ) -> "ConfigGrid":
        """Grid from explicit ``(model, parallel)`` pairs.

        Raises:
            ValueError: if the pairs mix precisions (the batch engine
                evaluates one dtype per grid).
        """
        if not pairs:
            raise ValueError("from_models needs at least one pair")
        precisions = {model.precision for model, _ in pairs}
        if len(precisions) > 1:
            raise ValueError(
                "mixed precisions in one grid; build one grid per precision"
            )
        return cls(
            hidden=[m.hidden for m, _ in pairs],
            seq_len=[m.seq_len for m, _ in pairs],
            batch=[m.batch for m, _ in pairs],
            tp=[p.tp for _, p in pairs],
            dp=[p.dp for _, p in pairs],
            num_heads=[m.num_heads for m, _ in pairs],
            ffn_dim=[m.ffn_dim for m, _ in pairs],
            precision=precisions.pop(),
        )

    def subset(self, mask: np.ndarray) -> "ConfigGrid":
        """Sub-grid selected by a boolean mask."""
        return replace(
            self,
            hidden=self.hidden[mask],
            seq_len=self.seq_len[mask],
            batch=self.batch[mask],
            tp=self.tp[mask],
            dp=self.dp[mask],
            num_heads=self.num_heads[mask],
            ffn_dim=self.ffn_dim[mask],
        )

    def key(self) -> tuple:
        """Hash/cache-friendly content key (plain Python scalars)."""
        return (
            tuple(self.hidden.tolist()),
            tuple(self.seq_len.tolist()),
            tuple(self.batch.tolist()),
            tuple(self.tp.tolist()),
            tuple(self.dp.tolist()),
            tuple(self.num_heads.tolist()),
            tuple(self.ffn_dim.tolist()),
            self.precision.value,
        )

    def at(self, index: int) -> Tuple[ModelConfig, ParallelConfig]:
        """Scalar ``(model, parallel)`` exemplar of one grid entry."""
        model = ModelConfig(
            name=f"batch-{index}",
            hidden=int(self.hidden[index]),
            seq_len=int(self.seq_len[index]),
            batch=int(self.batch[index]),
            num_heads=int(self.num_heads[index]),
            ffn_dim=int(self.ffn_dim[index]),
            precision=self.precision,
        )
        parallel = ParallelConfig(tp=int(self.tp[index]),
                                  dp=int(self.dp[index]))
        return model, parallel


# -- per-slot durations -------------------------------------------------


def _slot_kind(slot: Slot) -> str:
    if isinstance(slot, CommSlot):
        return (vectorized.KIND_OVERLAPPED if slot.overlappable
                else vectorized.KIND_SERIALIZED)
    return vectorized.KIND_COMPUTE


def _group_sizes(grid: ConfigGrid, slot: CommSlot) -> np.ndarray:
    return grid.tp if slot.group is CommGroup.TP else grid.dp


#: One family evaluator's outputs, each a flat float64 array.
Outputs = Tuple[np.ndarray, ...]


def _stack_slots(slots: Sequence[Slot], grid: ConfigGrid,
                 gemm: Callable[..., Outputs],
                 elementwise: Callable[..., Outputs],
                 collective: Callable[..., Outputs]
                 ) -> List[List[np.ndarray]]:
    """Per-slot arrays of the family evaluators, stacked per family.

    Same-family slots share one call on flat int64 columns: all GEMMs as
    ``gemm(m, n, k, batch)``, element-wise slots per ``(kind,
    rw_factor)`` as ``elementwise(elements, kind, rw_factor)``, and
    collectives per overlap class as ``collective(nbytes, group_size,
    overlapped)``.  Each evaluator is element-wise and returns a tuple
    of arrays; the result holds one list of per-slot arrays per output.

    GEMM and element-wise shapes depend on (H, SL, B, TP, heads, FFN)
    only, and ``dp`` is a grid chunk's fastest axis, so those families
    are evaluated on the first row of each run of rows with equal
    tuples and gathered back by run, bit-identical to evaluating every
    row.  Collectives are evaluated on every row: the DP group is ``dp``.
    """
    n = len(grid)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for column in (grid.hidden, grid.seq_len, grid.batch, grid.tp,
                   grid.num_heads, grid.ffn_dim):
        change[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(change)
    run_of_row = np.cumsum(change) - 1
    per_slot: List[Optional[Outputs]] = [None] * len(slots)

    def evaluate(indices: List[int], columns: List[List[object]],
                 evaluator: Callable[..., Outputs], *args,
                 by_run: bool = True) -> None:
        rows = starts if by_run and len(starts) < n else None
        stacked = []
        for values in columns:
            block = np.empty((len(values), n if rows is None else len(rows)),
                             dtype=np.int64)
            for row, value in enumerate(map(np.asarray, values)):
                block[row] = value if rows is None or not value.ndim \
                    else value[rows]
            stacked.append(block.reshape(-1))
        blocks = [times.reshape(len(indices), -1)
                  for times in evaluator(*stacked, *args)]
        if rows is not None:
            blocks = [block[:, run_of_row] for block in blocks]
        for row, i in enumerate(indices):
            per_slot[i] = tuple(block[row] for block in blocks)

    gemms = [i for i, slot in enumerate(slots)
             if isinstance(slot, GemmSlot)]
    if gemms:
        evaluate(gemms, [[slots[i].m for i in gemms],
                         [slots[i].n for i in gemms],
                         [slots[i].k for i in gemms],
                         [slots[i].batch for i in gemms]], gemm)
    ew_groups: Dict[Tuple[str, float], List[int]] = {}
    for i, slot in enumerate(slots):
        if isinstance(slot, ElementwiseSlot):
            ew_groups.setdefault((slot.kind, slot.rw_factor),
                                 []).append(i)
    for (kind, rw_factor), indices in ew_groups.items():
        evaluate(indices, [[slots[i].elements for i in indices]],
                 elementwise, kind, rw_factor)
    for overlapped in (False, True):
        comms = [i for i, slot in enumerate(slots)
                 if isinstance(slot, CommSlot)
                 and slot.overlappable == overlapped]
        if comms:
            evaluate(comms, [[slots[i].nbytes for i in comms],
                             [_group_sizes(grid, slots[i]) for i in comms]],
                     collective, overlapped, by_run=False)
    return [list(output) for output in zip(*per_slot)]


def _slot_durations(slots: Sequence[Slot], grid: ConfigGrid,
                    cluster: ClusterSpec,
                    timing: TimingModels) -> List[np.ndarray]:
    """Ground-truth per-slot duration arrays: :func:`_stack_slots` with
    the exact models of :mod:`repro.sim.vectorized`, each of which then
    evaluates only its stack's distinct operator shapes."""
    device, precision = cluster.device, grid.precision
    (durations,) = _stack_slots(
        slots, grid,
        lambda *shape: (vectorized.gemm_times(*shape, device, precision,
                                              timing.gemm),),
        lambda elements, kind, rw_factor: (vectorized.elementwise_times(
            elements, device, precision, rw_factor, kind,
            timing.elementwise),),
        lambda nbytes, group, overlapped: (
            vectorized.cluster_all_reduce_times(nbytes, group, cluster,
                                                overlapped),),
    )
    return durations


def _partitions(grid: ConfigGrid) -> Iterator[Tuple[np.ndarray, ConfigGrid,
                                                    List[Slot]]]:
    """Split a grid into (TP > 1, DP > 1) parity partitions.

    Yields each partition's mask, sub-grid and layer slots: the
    :mod:`repro.models.layers` declaration over the sub-grid's columns.
    """
    tp_par = grid.tp > 1
    dp_par = grid.dp > 1
    for tp_flag in (False, True):
        for dp_flag in (False, True):
            mask = (tp_par == tp_flag) & (dp_par == dp_flag)
            if mask.any():
                sub = grid.subset(mask)
                yield mask, sub, layer_slots(sub, tp_flag, dp_flag)


# -- batched breakdown --------------------------------------------------


@dataclass(frozen=True, eq=False)
class BatchBreakdown:
    """Per-config iteration-time breakdowns as parallel arrays.

    Array analogue of :class:`repro.sim.breakdown.Breakdown`: every
    derived quantity reproduces the scalar property on each entry.
    """

    compute_time: np.ndarray
    serialized_comm_time: np.ndarray
    overlapped_comm_time: np.ndarray
    iteration_time: np.ndarray

    def __len__(self) -> int:
        return int(self.iteration_time.shape[0])

    @property
    def exposed_comm_time(self) -> np.ndarray:
        """Overlappable comm not hidden under compute (Figure 3 slack)."""
        return np.maximum(
            0.0,
            self.iteration_time - self.compute_time
            - self.serialized_comm_time,
        )

    @property
    def serialized_comm_fraction(self) -> np.ndarray:
        """Fraction of the iteration spent in serialized collectives."""
        safe = np.where(self.iteration_time == 0, 1.0, self.iteration_time)
        return np.where(self.iteration_time == 0, 0.0,
                        self.serialized_comm_time / safe)

    @property
    def critical_comm_fraction(self) -> np.ndarray:
        """Serialized plus exposed comm as a fraction of the iteration."""
        safe = np.where(self.iteration_time == 0, 1.0, self.iteration_time)
        return np.where(
            self.iteration_time == 0, 0.0,
            (self.serialized_comm_time + self.exposed_comm_time) / safe,
        )

    @property
    def overlapped_pct_of_compute(self) -> np.ndarray:
        """Overlappable comm relative to compute (>= 1.0: exposed)."""
        safe = np.where(self.compute_time == 0, 1.0, self.compute_time)
        ratio = self.overlapped_comm_time / safe
        no_compute = np.where(self.overlapped_comm_time == 0, 0.0,
                              np.inf)
        return np.where(self.compute_time == 0, no_compute, ratio)

    def at(self, index: int) -> Breakdown:
        """Scalar :class:`Breakdown` of one grid entry."""
        return Breakdown(
            compute_time=float(self.compute_time[index]),
            serialized_comm_time=float(self.serialized_comm_time[index]),
            overlapped_comm_time=float(self.overlapped_comm_time[index]),
            iteration_time=float(self.iteration_time[index]),
        )


def _scatter(out: Tuple[np.ndarray, ...], mask: np.ndarray,
             parts: Tuple[np.ndarray, ...]) -> None:
    for target, part in zip(out, parts):
        target[mask] = part


def batch_execute(grid: ConfigGrid, cluster: ClusterSpec,
                  timing: TimingModels = DEFAULT_TIMING) -> BatchBreakdown:
    """Ground-truth breakdowns for a whole grid at once.

    Equivalent to running :func:`repro.sim.executor.execute_trace` on
    ``layer_trace(*grid.at(i))`` for every ``i``, bit-for-bit.
    """
    n = len(grid)
    out = tuple(np.zeros(n, dtype=np.float64) for _ in range(4))
    for mask, sub, slots in _partitions(grid):
        durations = _slot_durations(slots, sub, cluster, timing)
        kinds = [_slot_kind(slot) for slot in slots]
        _scatter(out, mask, vectorized.closed_form_breakdown(kinds,
                                                             durations))
    return BatchBreakdown(*out)


def _project_slot(slot: Slot, grid: ConfigGrid,
                  suite: OperatorModelSuite) -> np.ndarray:
    """Projected duration array for one slot (operator scaling laws)."""
    if isinstance(slot, CommSlot):
        reference = suite.collective_references[CollectiveKind.ALL_REDUCE]
        group = _group_sizes(grid, slot)
        scale = (slot.nbytes / reference.nbytes) * (
            ((group - 1) / group) / _ring_factor(reference.group_size)
        )
        projected = reference.time * scale
        return np.where((group > 1) & (slot.nbytes > 0), projected, 0.0)
    try:
        base_op, base_time = suite.compute_reference[slot.name]
    except KeyError:
        raise KeyError(
            f"baseline profile has no operator named {slot.name!r}"
        ) from None
    if isinstance(slot, GemmSlot):
        flops = 2 * np.asarray(slot.batch, dtype=np.int64) * slot.m \
            * slot.n * slot.k
        return base_time * flops / base_op.shape.flops
    return base_time * slot.elements / base_op.elements


def batch_project(grid: ConfigGrid, suite: OperatorModelSuite,
                  scenario: Optional[HardwareScenario] = None
                  ) -> BatchBreakdown:
    """Projected breakdowns for a whole grid (the paper's method).

    Equivalent to ``suite.project_execution(layer_trace(*grid.at(i)))``
    per entry, with the optional Figure 12 hardware-scenario scaling
    (compute durations divided by ``compute_scale``, communication by
    ``network_scale``) applied to the projected durations.
    """
    n = len(grid)
    out = tuple(np.zeros(n, dtype=np.float64) for _ in range(4))
    for mask, sub, slots in _partitions(grid):
        durations = [_project_slot(slot, sub, suite) for slot in slots]
        if scenario is not None:
            durations = [
                duration / (scenario.network_scale
                            if isinstance(slot, CommSlot)
                            else scenario.compute_scale)
                for slot, duration in zip(slots, durations)
            ]
        kinds = [_slot_kind(slot) for slot in slots]
        _scatter(out, mask, vectorized.closed_form_breakdown(kinds,
                                                             durations))
    return BatchBreakdown(*out)


def batch_overlap_roi(grid: ConfigGrid, cluster: ClusterSpec,
                      timing: TimingModels = DEFAULT_TIMING
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """ROI compute/comm time arrays (Figure 11/13 numerator/denominator).

    Equivalent to :func:`repro.core.roi.overlap_roi_timing` per entry:
    sums the backprop weight-bearing IG/WG GEMM times and the
    overlappable gradient all-reduce times in trace order.

    Raises:
        ValueError: if any entry has DP = 1 (no overlappable comm; same
            contract as the scalar ROI extraction).
    """
    if (grid.dp <= 1).any():
        raise ValueError(
            "trace has no overlappable communication; the overlap ROI is "
            "only defined for data-parallel setups (DP > 1)"
        )
    n = len(grid)
    compute = np.zeros(n, dtype=np.float64)
    comm = np.zeros(n, dtype=np.float64)
    for mask, sub, slots in _partitions(grid):
        durations = _slot_durations(slots, sub, cluster, timing)
        compute_part = np.zeros(len(sub), dtype=np.float64)
        comm_part = np.zeros(len(sub), dtype=np.float64)
        for slot, duration in zip(slots, durations):
            if isinstance(slot, GemmSlot) and slot.has_weights \
                    and slot.phase is Phase.BACKWARD:
                compute_part = compute_part + duration
            elif isinstance(slot, CommSlot) and slot.overlappable:
                comm_part = comm_part + duration
        compute[mask] = compute_part
        comm[mask] = comm_part
    return compute, comm


def serialized_fractions_for_pairs(
    pairs: Sequence[Tuple[ModelConfig, ParallelConfig]],
    cluster: ClusterSpec,
    timing: TimingModels = DEFAULT_TIMING,
) -> List[float]:
    """Serialized-comm fractions for explicit ``(model, parallel)`` pairs.

    One grid per precision, fractions scattered back in input order
    (``[]`` for no pairs); each equals the scalar
    ``execute_trace(layer_trace(model, parallel))`` fraction exactly.
    """
    fractions = [0.0] * len(pairs)
    by_precision: Dict[Precision, List[int]] = {}
    for index, (model, _) in enumerate(pairs):
        by_precision.setdefault(model.precision, []).append(index)
    for indices in by_precision.values():
        grid = ConfigGrid.from_models([pairs[index] for index in indices])
        breakdown = batch_execute(grid, cluster, timing)
        for index, fraction in zip(indices,
                                   breakdown.serialized_comm_fraction):
            fractions[index] = float(fraction)
    return fractions
