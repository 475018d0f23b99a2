"""The single declaration of a tensor-parallel Transformer layer's operators.

Enumerates every GEMM, fused element-wise kernel, and collective of one
encoder/decoder layer's forward and backward passes with explicit shapes
(Figure 4), under Megatron-style tensor parallelism and optional data
parallelism:

Forward, attention sub-layer:
    LayerNorm -> QKV projection (column parallel) -> attention scores ->
    softmax -> attention context -> output projection (row parallel) ->
    **TP all-reduce of activations** -> residual add.
Forward, FC sub-layer:
    LayerNorm -> FC1 (column parallel) -> GeLU -> FC2 (row parallel) ->
    **TP all-reduce of activations** -> residual add.

The backward pass mirrors each forward GEMM with an input-gradient (IG)
and a weight-gradient (WG) GEMM of equal FLOPs, adds the two conjugate TP
all-reduces of errors, and -- under data parallelism -- emits one
*overlappable* DP all-reduce of each sub-layer's weight gradients as soon
as its WG GEMMs complete (Section 2.3.2).

This module is the only place that structure is written down, and both
engines read it.  :func:`layer_slots` declares it once as *slots*
(:class:`GemmSlot`, :class:`ElementwiseSlot`, :class:`CommSlot`) over
"dims": the fields ``hidden, seq_len, batch, tp, num_heads, ffn_dim,
precision`` of either one ``(model, parallel)`` pair (Python ints; the
scalar trace) or a :class:`~repro.core.batch.ConfigGrid` parity partition
(equal-length int64 columns; the batch engine).  The public ``*_ops``
builders convert each slot to its validated
:class:`~repro.models.graph.GemmOp` / ``ElementwiseOp`` / ``CommOp``.

The test suite cross-checks these shape-accurate counts against the
paper-equation forms in :mod:`repro.core.flops`.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Union

from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.hardware.gemm import GemmShape
from repro.models import sharding
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    Op,
    Phase,
    SubLayer,
)

__all__ = [
    "GemmSlot",
    "ElementwiseSlot",
    "CommSlot",
    "layer_slots",
    "layer_ops",
    "attention_forward_ops",
    "fc_forward_ops",
    "layer_forward_ops",
    "attention_backward_ops",
    "fc_backward_ops",
    "layer_backward_ops",
    "backward_gemms_for",
    "activation_allreduce_bytes",
    "attention_weight_bytes",
    "fc_weight_bytes",
]

#: A shape field: a Python int, or an int64 column over a grid partition.
Dim = Any


class GemmSlot(NamedTuple):
    """A (batched) GEMM slot: ``batch`` x [m, k] @ [k, n]."""

    name: str
    m: Dim
    n: Dim
    k: Dim
    batch: Dim
    phase: Phase
    sublayer: SubLayer
    has_weights: bool = True

    def op(self, layer: int) -> GemmOp:
        return GemmOp(self.name, GemmShape(self.m, self.n, self.k, self.batch),
                      self.phase, self.sublayer, layer, self.has_weights)


class ElementwiseSlot(NamedTuple):
    """A fused element-wise kernel slot."""

    name: str
    elements: Dim
    rw_factor: float
    kind: str
    phase: Phase
    sublayer: SubLayer

    def op(self, layer: int) -> ElementwiseOp:
        return ElementwiseOp(self.name, self.elements, self.phase,
                             self.sublayer, self.rw_factor, self.kind, layer)


class CommSlot(NamedTuple):
    """An all-reduce slot over the TP or DP group."""

    name: str
    nbytes: Dim
    group: CommGroup
    overlappable: bool
    phase: Phase
    sublayer: SubLayer

    def op(self, layer: int) -> CommOp:
        return CommOp(self.name, CollectiveKind.ALL_REDUCE, self.nbytes,
                      self.group, self.phase, self.sublayer,
                      self.overlappable, layer)


Slot = Union[GemmSlot, ElementwiseSlot, CommSlot]


class _Dims(NamedTuple):
    """Scalar dims of one ``(model, parallel)`` pair."""

    hidden: int
    seq_len: int
    batch: int
    tp: int
    num_heads: int
    ffn_dim: int
    precision: Precision


def _dims(model: ModelConfig, parallel: ParallelConfig) -> _Dims:
    return _Dims(model.hidden, model.seq_len, model.batch, parallel.tp,
                 model.num_heads, model.ffn_dim, model.precision)


def activation_allreduce_bytes(model: ModelConfig) -> int:
    """Bytes of one TP activation/error all-reduce: ``prec * B * SL * H``.

    Matches Equation 5 (per all-reduce).
    """
    return model.precision.bytes * model.batch * model.seq_len * model.hidden


def attention_weight_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Per-device attention weight-gradient bytes (QKV + output proj)."""
    return _attention_weight_bytes(_dims(model, parallel))


def fc_weight_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Per-device FC weight-gradient bytes (FC1 + FC2) -- Equation 8."""
    return _fc_weight_bytes(_dims(model, parallel))


def _attention_weight_bytes(d) -> Dim:
    return d.precision.bytes * (4 * d.hidden * d.hidden // d.tp)


def _fc_weight_bytes(d) -> Dim:
    return d.precision.bytes * (2 * d.hidden * d.ffn_dim // d.tp)


# -- the declaration ------------------------------------------------------


def _attention_forward(d, tp_parallel: bool) -> List[Slot]:
    """Forward slots of the attention sub-layer, in program order."""
    fwd, attn = Phase.FORWARD, SubLayer.ATTENTION
    tokens = d.batch * d.seq_len
    heads = d.num_heads // d.tp
    head_dim = d.hidden // d.num_heads
    sl = d.seq_len
    slots: List[Slot] = [
        ElementwiseSlot("attn.ln", tokens * d.hidden, 3.0, "layernorm",
                        fwd, attn),
        GemmSlot("attn.qkv", m=tokens, n=3 * d.hidden // d.tp, k=d.hidden,
                 batch=1, phase=fwd, sublayer=attn),
        GemmSlot("attn.scores", m=sl, n=sl, k=head_dim,
                 batch=d.batch * heads, phase=fwd, sublayer=attn,
                 has_weights=False),
        ElementwiseSlot("attn.softmax", d.batch * heads * sl * sl, 3.0,
                        "softmax", fwd, attn),
        GemmSlot("attn.context", m=sl, n=head_dim, k=sl,
                 batch=d.batch * heads, phase=fwd, sublayer=attn,
                 has_weights=False),
        GemmSlot("attn.out_proj", m=tokens, n=d.hidden, k=d.hidden // d.tp,
                 batch=1, phase=fwd, sublayer=attn),
    ]
    if tp_parallel:
        slots.append(CommSlot("attn.ar_fwd", activation_allreduce_bytes(d),
                              CommGroup.TP, False, fwd, attn))
    slots.append(ElementwiseSlot("attn.residual", tokens * d.hidden, 3.0,
                                 "residual", fwd, attn))
    return slots


def _fc_forward(d, tp_parallel: bool) -> List[Slot]:
    """Forward slots of the FC (feed-forward) sub-layer."""
    fwd, fc = Phase.FORWARD, SubLayer.FC
    tokens = d.batch * d.seq_len
    ffn = d.ffn_dim // d.tp
    slots: List[Slot] = [
        ElementwiseSlot("fc.ln", tokens * d.hidden, 3.0, "layernorm",
                        fwd, fc),
        GemmSlot("fc.fc1", m=tokens, n=ffn, k=d.hidden, batch=1,
                 phase=fwd, sublayer=fc),
        ElementwiseSlot("fc.gelu", tokens * ffn, 2.0, "gelu", fwd, fc),
        GemmSlot("fc.fc2", m=tokens, n=d.hidden, k=ffn, batch=1,
                 phase=fwd, sublayer=fc),
    ]
    if tp_parallel:
        slots.append(CommSlot("fc.ar_fwd", activation_allreduce_bytes(d),
                              CommGroup.TP, False, fwd, fc))
    slots.append(ElementwiseSlot("fc.residual", tokens * d.hidden, 3.0,
                                 "residual", fwd, fc))
    return slots


def _gemm_grads(slot: GemmSlot) -> List[GemmSlot]:
    """IG and WG slots of a forward GEMM (see :func:`backward_gemms_for`)."""
    bwd = Phase.BACKWARD
    return [
        GemmSlot(f"{slot.name}.ig", m=slot.m, n=slot.k, k=slot.n,
                 batch=slot.batch, phase=bwd, sublayer=slot.sublayer,
                 has_weights=slot.has_weights),
        GemmSlot(f"{slot.name}.wg", m=slot.k, n=slot.n, k=slot.m,
                 batch=slot.batch, phase=bwd, sublayer=slot.sublayer,
                 has_weights=slot.has_weights),
    ]


def _backward(forward: List[Slot], weight_bytes: Dim,
              dp_parallel: bool) -> List[Slot]:
    """Backward slots for one sub-layer, in execution order.

    Walks the forward slots in reverse; GEMMs expand to IG + WG pairs,
    the forward TP all-reduce is replaced by its backward conjugate, and
    a DP weight-gradient all-reduce (overlappable) is emitted at the end,
    after all of the sub-layer's WG GEMMs.
    """
    bwd = Phase.BACKWARD
    sublayer = forward[0].sublayer
    slots: List[Slot] = []
    for slot in reversed(forward):
        if type(slot) is GemmSlot:
            slots.extend(_gemm_grads(slot))
        elif type(slot) is ElementwiseSlot:
            slots.append(ElementwiseSlot(
                f"{slot.name}.grad", slot.elements, slot.rw_factor,
                f"{slot.kind}_grad", bwd, sublayer,
            ))
        else:
            # The forward TP all-reduce's conjugate reduces errors on the
            # way back (the g/f operator pair in Megatron).
            slots.append(CommSlot(f"{slot.name.split('.')[0]}.ar_bwd",
                                  slot.nbytes, CommGroup.TP, False, bwd,
                                  sublayer))
    if dp_parallel:
        slots.append(CommSlot(f"{sublayer.value}.grad_ar", weight_bytes,
                              CommGroup.DP, True, bwd, sublayer))
    return slots


def layer_slots(d, tp_parallel: bool, dp_parallel: bool) -> List[Slot]:
    """One layer's forward + backward slots (FC backward first).

    ``d`` carries the dims (ints or int64 columns); the flags select the
    TP all-reduces (``tp > 1``) and the DP gradient all-reduces
    (``dp > 1``), uniform over a batch-engine parity partition.
    """
    attn = _attention_forward(d, tp_parallel)
    fc = _fc_forward(d, tp_parallel)
    return (attn + fc
            + _backward(fc, _fc_weight_bytes(d), dp_parallel)
            + _backward(attn, _attention_weight_bytes(d), dp_parallel))


# -- scalar operator builders ---------------------------------------------


def _ops(slots: List[Slot], layer: int) -> List[Op]:
    return [slot.op(layer) for slot in slots]


def layer_ops(model: ModelConfig, parallel: ParallelConfig,
              layer: int = 0) -> List[Op]:
    """One layer's forward then backward operators (a ``layer_trace``).

    Each sub-layer's forward slots are built once and its backward slots
    derived from them.
    """
    sharding.sharded_heads(model, parallel)  # uneven shards raise
    sharding.sharded_ffn(model, parallel)
    return _ops(layer_slots(_dims(model, parallel),
                            parallel.uses_tensor_parallelism,
                            parallel.uses_data_parallelism), layer)


def attention_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                          layer: int = 0) -> List[Op]:
    """Forward operators of the attention sub-layer, in program order."""
    sharding.sharded_heads(model, parallel)
    return _ops(_attention_forward(_dims(model, parallel),
                                   parallel.uses_tensor_parallelism), layer)


def fc_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                   layer: int = 0) -> List[Op]:
    """Forward operators of the FC (feed-forward) sub-layer."""
    sharding.sharded_ffn(model, parallel)
    return _ops(_fc_forward(_dims(model, parallel),
                            parallel.uses_tensor_parallelism), layer)


def layer_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                      layer: int = 0) -> List[Op]:
    """All forward operators of one Transformer layer."""
    return (attention_forward_ops(model, parallel, layer)
            + fc_forward_ops(model, parallel, layer))


def backward_gemms_for(op: GemmOp) -> List[GemmOp]:
    """The two backward GEMMs spawned by a forward GEMM.

    For forward ``C[m,n] = A[m,k] @ W[k,n]``:

    * input gradient  ``dA[m,k] = dC[m,n] @ W.T[n,k]``
    * weight gradient ``dW[k,n] = A.T[k,m] @ dC[m,n]``

    Both cost exactly the forward GEMM's FLOPs, giving the paper's
    backward = 2x forward relationship.
    """
    s = op.shape
    forward = GemmSlot(op.name, s.m, s.n, s.k, s.batch, op.phase,
                       op.sublayer, op.has_weights)
    return _ops(_gemm_grads(forward), op.layer)


def attention_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                           layer: int = 0) -> List[Op]:
    """Backward operators of the attention sub-layer."""
    sharding.sharded_heads(model, parallel)
    d = _dims(model, parallel)
    forward = _attention_forward(d, parallel.uses_tensor_parallelism)
    return _ops(_backward(forward, _attention_weight_bytes(d),
                          parallel.uses_data_parallelism), layer)


def fc_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                    layer: int = 0) -> List[Op]:
    """Backward operators of the FC sub-layer."""
    sharding.sharded_ffn(model, parallel)
    d = _dims(model, parallel)
    forward = _fc_forward(d, parallel.uses_tensor_parallelism)
    return _ops(_backward(forward, _fc_weight_bytes(d),
                          parallel.uses_data_parallelism), layer)


def layer_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                       layer: int = 0) -> List[Op]:
    """All backward operators of one layer (FC first: reverse of forward)."""
    return (fc_backward_ops(model, parallel, layer)
            + attention_backward_ops(model, parallel, layer))
