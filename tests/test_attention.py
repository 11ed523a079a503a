import numpy as np
import pytest

from flowcast import attention as att
from flowcast import autodiff as ad
from flowcast.autodiff import Tensor
from flowcast.errors import ConfigError

from oracles import (attention_loop, finite_diff_grad, multi_head_loop,
                     spatial_attention_loop, stfa_loop)


def make_params(dim, heads, seed=0):
    return att.AttentionParams.create(dim, heads, np.random.default_rng(seed))


def layer_params(variant, dim=4, heads=2, ffn=8, seed=0):
    return att.Gst2Params.create(variant, dim, heads, ffn, np.random.default_rng(seed))


# -- positional encoding --------------------------------------------------------


def test_pe_first_row():
    pe = att.positional_encoding(3, 4).data
    assert pe[0, 0] == 0.0
    assert pe[0, 1] == 1.0


def test_pe_step_one_values():
    pe = att.positional_encoding(3, 2).data
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-12
    assert abs(pe[1, 1] - np.cos(1.0)) < 1e-12
    assert abs(pe[1, 0] - 0.84147) < 1e-5
    assert abs(pe[1, 1] - 0.54030) < 1e-5


def test_pe_base_is_1000():
    pe = att.positional_encoding(4, 4).data
    assert abs(pe[2, 2] - np.sin(2.0 / 1000.0 ** 0.5)) < 1e-12
    assert abs(pe[2, 2] - 0.06320) < 1e-5


def test_pe_odd_dim():
    pe = att.positional_encoding(5, 3).data
    assert pe.shape == (5, 3)
    assert abs(pe[1, 2] - np.sin(1.0 / 1000.0 ** (2.0 / 3.0))) < 1e-12


# -- scaled dot-product attention -------------------------------------------------


def test_single_key_returns_value():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((1, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 2))
    out = att.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    assert np.array_equal(out.data, v)


def test_zero_query_gives_column_mean():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 2))
    out = att.scaled_dot_attention(Tensor(np.zeros((4, 3))), Tensor(k), Tensor(v))
    assert np.allclose(out.data, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)


def test_scaled_dot_matches_loop_oracle():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))
    out = att.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    assert np.abs(out.data - attention_loop(q, k, v)).max() < 1e-12


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 4, 8)))
    p = make_params(8, 2, seed=4)
    with att.capture_attention_weights() as captured:
        att.temporal_attention(x, p)
    assert len(captured) == 1
    sums = captured[0].sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12


# -- multi-head temporal / spatial --------------------------------------------------


def test_temporal_uniform_value_path():
    # one head, zero q/k, identity v and o: every step becomes the mean step
    x_arr = np.random.default_rng(5).standard_normal((2, 3, 4, 4))
    p = make_params(4, 1, seed=5)
    p.w_q.data[:] = 0.0
    p.w_k.data[:] = 0.0
    p.w_v.data[0] = np.eye(4)
    p.w_o.data[:] = np.eye(4)
    out = att.temporal_attention(Tensor(x_arr), p)
    expected = np.tile(x_arr.mean(axis=2, keepdims=True), (1, 1, 4, 1))
    assert np.abs(out.data - expected).max() < 1e-12


def test_temporal_shape_preserved():
    x = Tensor(np.random.default_rng(6).standard_normal((2, 5, 3, 8)))
    out = att.temporal_attention(x, make_params(8, 4, seed=6))
    assert out.shape == x.shape


def test_temporal_matches_per_head_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 3, 4))
    p = make_params(4, 2, seed=7)
    out = att.temporal_attention(Tensor(x), p)
    expected = multi_head_loop(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data)
    assert np.abs(out.data - expected).max() < 1e-12


def test_spatial_single_node_is_value_path():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 1, 3, 4))
    p = make_params(4, 2, seed=8)
    out = att.spatial_attention(Tensor(x), p)
    per_head = [x @ p.w_v.data[j] for j in range(2)]
    expected = np.concatenate(per_head, axis=-1) @ p.w_o.data
    assert np.abs(out.data - expected).max() < 1e-12


def test_spatial_is_transposed_temporal():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4, 4))
    p = make_params(4, 2, seed=9)
    direct = att.spatial_attention(Tensor(x), p).data
    via_transpose = att.temporal_attention(
        Tensor(x.transpose(0, 2, 1, 3)), p
    ).data.transpose(0, 2, 1, 3)
    assert np.array_equal(direct, via_transpose)


def test_head_divisibility_rejected_at_construction():
    with pytest.raises(ConfigError):
        make_params(6, 4)


# -- fusion attention ----------------------------------------------------------------


def test_stfa_reduces_to_temporal_when_spatial_is_identity():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 1, 3, 4))
    spatial = make_params(4, 1, seed=10)
    spatial.w_v.data[0] = np.eye(4)
    spatial.w_o.data[:] = np.eye(4)
    fusion = make_params(4, 2, seed=11)
    out = att.stfa(Tensor(x), fusion, spatial)
    expected = att.temporal_attention(Tensor(x), fusion)
    assert np.abs(out.data - expected.data).max() < 1e-12


def test_stfa_shape_preserved():
    x = Tensor(np.random.default_rng(12).standard_normal((2, 3, 4, 8)))
    out = att.stfa(x, make_params(8, 2, seed=12), make_params(8, 2, seed=13))
    assert out.shape == x.shape


def test_stfa_matches_composed_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((1, 3, 2, 4))
    fusion = make_params(4, 2, seed=14)
    spatial = make_params(4, 2, seed=15)
    out = att.stfa(Tensor(x), fusion, spatial)
    expected = stfa_loop(
        x,
        (fusion.w_q.data, fusion.w_k.data, fusion.w_v.data, fusion.w_o.data),
        (spatial.w_q.data, spatial.w_k.data, spatial.w_v.data, spatial.w_o.data),
    )
    assert np.abs(out.data - expected).max() < 1e-12


def test_spatial_oracle_agreement_random_trials():
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = rng.standard_normal((1, 4, 3, 4))
        p = make_params(4, 2, seed=int(rng.integers(1 << 30)))
        out = att.spatial_attention(Tensor(x), p)
        expected = spatial_attention_loop(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data)
        assert np.abs(out.data - expected).max() < 1e-12


# -- the global block variants ----------------------------------------------------------

# the ids are the names these cases ran under when each block had its own
# layer function, so results stay comparable across versions
PAPER_BLOCKS = [
    pytest.param("parallel", id="parallel-pgst2_layer"),
    pytest.param("serial", id="serial-sgst2_layer"),
    pytest.param("fused", id="fused-fgst2_layer"),
]
ALL_BLOCKS = PAPER_BLOCKS + ["ta_only", "sa_only"]


@pytest.mark.parametrize("variant", ALL_BLOCKS)
def test_block_shape_preserved(variant):
    x = Tensor(np.random.default_rng(20).standard_normal((2, 3, 5, 4)))
    out = att.apply_global_layer(x, layer_params(variant, dim=4, heads=2, seed=20))
    assert out.shape == x.shape


@pytest.mark.parametrize("variant", ALL_BLOCKS)
def test_block_output_mean_matches_final_norm_beta(variant):
    p = layer_params(variant, dim=4, heads=2, seed=21)
    beta = p.norms[att.BLOCKS[variant][-1]].beta
    beta.data[:] = np.array([0.5, -0.5, 1.0, 0.0])
    x = Tensor(np.random.default_rng(21).standard_normal((2, 3, 5, 4)))
    out = att.apply_global_layer(x, p)
    assert np.allclose(out.data.mean(axis=-1), beta.data.mean(), atol=1e-10)


@pytest.mark.parametrize("variant", PAPER_BLOCKS)
def test_block_gradients_vs_finite_differences(variant):
    rng = np.random.default_rng(22)
    x_arr = rng.standard_normal((1, 2, 3, 4))
    weight = rng.standard_normal((1, 2, 3, 4))
    p = layer_params(variant, dim=4, heads=2, ffn=6, seed=22)

    x = Tensor(x_arr, requires_grad=True)
    out = att.apply_global_layer(x, p)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(weight))))

    def loss_value():
        with ad.no_grad():
            result = att.apply_global_layer(Tensor(x_arr), p)
        return float((result.data * weight).sum())

    if variant == "parallel":
        checked = [p.temporal.w_q, p.spatial.w_v, p.concat_proj, p.ffn_w1,
                   p.norms["merge"].gamma]
    elif variant == "serial":
        checked = [p.temporal.w_q, p.spatial.w_v, p.ffn_w2, p.norms["spatial"].beta]
    else:
        checked = [p.fusion.w_q, p.fusion.w_v, p.spatial.w_o, p.ffn_w1,
                   p.norms["fusion"].gamma]
    fd_x = finite_diff_grad(loss_value, x_arr)
    assert (np.abs(x.grad - fd_x) / np.maximum(1.0, np.abs(fd_x))).max() < 1e-4
    for tensor in checked:
        fd = finite_diff_grad(loss_value, tensor.data)
        rel = np.abs(tensor.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4


def test_variant_none_is_identity():
    x = Tensor(np.random.default_rng(24).standard_normal((1, 2, 3, 4)))
    assert att.apply_global_layer(x, None) is x


def test_temporal_node_permutation_equivariance():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 4, 3, 4))
    p = make_params(4, 2, seed=25)
    perm = rng.permutation(4)
    base = att.temporal_attention(Tensor(x), p).data
    permuted = att.temporal_attention(Tensor(x[:, perm]), p).data
    assert np.abs(permuted - base[:, perm]).max() < 1e-12


def test_spatial_time_permutation_equivariance():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((2, 3, 4, 4))
    p = make_params(4, 2, seed=26)
    perm = rng.permutation(4)
    base = att.spatial_attention(Tensor(x), p).data
    permuted = att.spatial_attention(Tensor(x[:, :, perm]), p).data
    assert np.abs(permuted - base[:, :, perm]).max() < 1e-12


def test_block_dropout_needs_training_flag():
    # inference is bit-stable regardless of the configured rates
    x = Tensor(np.random.default_rng(27).standard_normal((1, 2, 3, 4)))
    p = layer_params("parallel", dim=4, heads=2, seed=27)
    a = att.apply_global_layer(x, p, input_dropout=0.5, inner_dropout=0.5, training=False)
    b = att.apply_global_layer(x, p, input_dropout=0.5, inner_dropout=0.5, training=False)
    assert np.array_equal(a.data, b.data)
