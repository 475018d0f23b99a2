"""Tests for repro.models.layers: shape-accurate ops vs paper equations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flops
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models import layers
from repro.models.graph import CommGroup, CommOp, GemmOp, Phase, SubLayer


def _model(hidden=2048, seq_len=1024, batch=2, heads=16) -> ModelConfig:
    return ModelConfig(name="m", hidden=hidden, seq_len=seq_len,
                       batch=batch, num_heads=heads)


TP4_DP2 = ParallelConfig(tp=4, dp=2)

_pow2_dim = st.sampled_from([1024, 2048, 4096])
_tp_values = st.sampled_from([1, 2, 4, 8])


class TestForwardShapes:
    def test_gemm_names_and_order(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        gemm_names = [op.name for op in ops if isinstance(op, GemmOp)]
        assert gemm_names == ["attn.qkv", "attn.scores", "attn.context",
                              "attn.out_proj", "fc.fc1", "fc.fc2"]

    def test_qkv_shape_column_parallel(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        qkv = ops["attn.qkv"].shape
        assert (qkv.m, qkv.k, qkv.n) == (2048, 2048, 3 * 2048 // 4)

    def test_out_proj_shape_row_parallel(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        out = ops["attn.out_proj"].shape
        assert (out.m, out.k, out.n) == (2048, 2048 // 4, 2048)

    def test_attention_gemms_sharded_by_head(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        scores = ops["attn.scores"].shape
        assert scores.batch == 2 * (16 // 4)
        assert (scores.m, scores.n, scores.k) == (1024, 1024, 2048 // 16)

    def test_attention_gemms_carry_no_weights(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        weightless = {op.name for op in ops
                      if isinstance(op, GemmOp) and not op.has_weights}
        assert weightless == {"attn.scores", "attn.context"}

    @given(hidden=_pow2_dim, seq_len=_pow2_dim, tp=_tp_values)
    @settings(max_examples=25)
    def test_forward_flops_match_equation_4(self, hidden, seq_len, tp):
        model = _model(hidden=hidden, seq_len=seq_len)
        parallel = ParallelConfig(tp=tp, dp=1)
        trace_flops = sum(
            op.flops for op in layers.layer_forward_ops(model, parallel)
            if isinstance(op, GemmOp)
        )
        assert trace_flops == flops.forward_layer_ops(model, parallel)

    def test_tp_one_emits_no_all_reduce(self):
        ops = layers.layer_forward_ops(_model(), ParallelConfig(tp=1, dp=2))
        assert not [op for op in ops if isinstance(op, CommOp)
                    and op.group is CommGroup.TP]

    def test_forward_has_two_tp_all_reduces(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        ars = [op for op in ops if isinstance(op, CommOp)]
        assert len(ars) == 2
        assert all(not op.overlappable for op in ars)
        assert {op.name for op in ars} == {"attn.ar_fwd", "fc.ar_fwd"}

    def test_all_reduce_bytes_match_equation_5(self):
        model = _model()
        ops = layers.layer_forward_ops(model, TP4_DP2)
        ar = next(op for op in ops if isinstance(op, CommOp))
        assert ar.nbytes == flops.serialized_comm_bytes(
            model, TP4_DP2, per_all_reduce=True
        )


class TestBackwardShapes:
    def test_each_gemm_spawns_ig_and_wg_of_equal_flops(self):
        forward = next(op for op in layers.layer_forward_ops(_model(),
                                                             TP4_DP2)
                       if isinstance(op, GemmOp))
        ig, wg = layers.backward_gemms_for(forward)
        assert ig.flops == wg.flops == forward.flops
        assert ig.name.endswith(".ig")
        assert wg.name.endswith(".wg")
        assert ig.phase is Phase.BACKWARD

    def test_ig_and_wg_transpose_the_forward_operands(self):
        # C[m,n] = A[m,k] @ W[k,n]: dA[m,k] = dC @ W.T, dW[k,n] = A.T @ dC
        backward = {op.name: op.shape
                    for op in layers.layer_backward_ops(_model(), TP4_DP2)
                    if isinstance(op, GemmOp)}
        for op in layers.layer_forward_ops(_model(), TP4_DP2):
            if isinstance(op, GemmOp):
                s = op.shape
                ig = backward[f"{op.name}.ig"]
                wg = backward[f"{op.name}.wg"]
                assert (ig.m, ig.n, ig.k, ig.batch) == (s.m, s.k, s.n,
                                                        s.batch)
                assert (wg.m, wg.n, wg.k, wg.batch) == (s.k, s.n, s.m,
                                                        s.batch)

    @given(hidden=_pow2_dim, seq_len=_pow2_dim, tp=_tp_values)
    @settings(max_examples=25)
    def test_backward_flops_are_twice_forward(self, hidden, seq_len, tp):
        model = _model(hidden=hidden, seq_len=seq_len)
        parallel = ParallelConfig(tp=tp, dp=2)
        backward_flops = sum(
            op.flops for op in layers.layer_backward_ops(model, parallel)
            if isinstance(op, GemmOp)
        )
        assert backward_flops == flops.backward_layer_ops(model, parallel)

    def test_four_serialized_all_reduces_per_layer(self):
        all_ops = (layers.layer_forward_ops(_model(), TP4_DP2)
                   + layers.layer_backward_ops(_model(), TP4_DP2))
        serialized = [op for op in all_ops if isinstance(op, CommOp)
                      and not op.overlappable]
        assert len(serialized) == flops.SERIALIZED_ALL_REDUCES_PER_LAYER

    def test_dp_gradient_all_reduce_per_sublayer(self):
        ops = layers.layer_backward_ops(_model(), TP4_DP2)
        grads = [op for op in ops if isinstance(op, CommOp)
                 and op.overlappable]
        assert {op.name for op in grads} == {"fc.grad_ar",
                                             "attention.grad_ar"}
        assert all(op.group is CommGroup.DP for op in grads)

    def test_grad_ar_emitted_after_sublayer_wg_gemms(self):
        ops = layers.fc_backward_ops(_model(), TP4_DP2)
        grad_index = next(i for i, op in enumerate(ops)
                          if isinstance(op, CommOp) and op.overlappable)
        wg_indices = [i for i, op in enumerate(ops)
                      if isinstance(op, GemmOp) and op.name.endswith(".wg")]
        assert grad_index > max(wg_indices)

    def test_no_dp_no_gradient_all_reduce(self):
        ops = layers.layer_backward_ops(_model(), ParallelConfig(tp=4, dp=1))
        assert not [op for op in ops if isinstance(op, CommOp)
                    and op.overlappable]

    def test_fc_weight_bytes_match_equation_8(self):
        model = _model()
        assert layers.fc_weight_bytes(model, TP4_DP2) == (
            flops.fc_weight_grad_bytes(model, TP4_DP2)
        )

    def test_layer_gradient_bytes_near_flops_module(self):
        # layers.py excludes the O(H) bias terms that params_per_layer
        # includes; agreement must be within 0.1%.
        model = _model()
        from_layers = (layers.attention_weight_bytes(model, TP4_DP2)
                       + layers.fc_weight_bytes(model, TP4_DP2))
        from_flops = flops.layer_weight_grad_bytes(model, TP4_DP2)
        assert from_layers == pytest.approx(from_flops, rel=1e-3)
