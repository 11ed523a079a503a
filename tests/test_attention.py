import tracemalloc

import numpy as np
import pytest

from flowcast import attention as att
from flowcast import autodiff as ad
from flowcast import data as dp
from flowcast import model as md
from flowcast import recurrent
from flowcast import training as tr
from flowcast.autodiff import Tensor
from flowcast.errors import ConfigError

from oracles import (attention_loop, attention_weights, finite_diff_grad, merge_composed,
                     multi_head_composed, multi_head_loop, relu_op, scalar_affine,
                     scaled_dot_op, softmax_rows, spatial_attention_loop, stfa_loop,
                     weighted_sum)


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
    out = scaled_dot_op(Tensor(q), Tensor(k), Tensor(v))
    assert np.array_equal(out.data, v)


def test_zero_query_gives_column_mean():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 2))
    out = scaled_dot_op(Tensor(np.zeros((4, 3))), Tensor(k), Tensor(v))
    assert np.allclose(out.data, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)


def test_scaled_dot_matches_loop_oracle():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))
    out = scaled_dot_op(Tensor(q), Tensor(k), Tensor(v))
    assert np.abs(out.data - attention_loop(q, k, v)).max() < 1e-12


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 4, 8)))
    p = make_params(8, 2, seed=4)
    with attention_weights() as captured:
        att.temporal_attention(x, p)
    assert len(captured) == 1
    sums = captured[0].sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12


def composed_attention(q, k, v, weight_dropout, rng):
    """Scaled-dot attention built from single tape ops, each keeping its own
    output: the reference the one-entry op must agree with."""
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
    weights = ad.softmax(scalar_affine(scores, 1.0 / np.sqrt(q.shape[-1]), 0.0))
    return ad.matmul(ad.dropout(weights, weight_dropout, rng), v)


def test_fused_attention_with_dropout_matches_composed_ops():
    rng = np.random.default_rng(9)
    arrays = [rng.standard_normal((2, 3, 6, 4)) for _ in range(3)]
    weight = rng.standard_normal((2, 3, 6, 4))
    values, next_draws, entries = [], [], []
    for attend in (scaled_dot_op, composed_attention):
        ad.reset_tape()
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        draws = np.random.default_rng(21)
        out = attend(q, k, v, 0.3, draws)
        entries.append(len(ad.tape().entries))
        ad.backward(weighted_sum(out, weight))
        assert len(ad.tape().entries) == 0
        values.append((out.data, q.grad, k.grad, v.grad))
        next_draws.append(draws.random())
    assert entries[0] == 1  # one tape entry for the whole attention
    undropped = scaled_dot_op(*(Tensor(a) for a in arrays))
    assert np.abs(values[0][0] - undropped.data).max() > 0.1  # dropout did act
    for fused, composed in zip(*values):
        assert np.abs(fused - composed).max() < 1e-12
    assert next_draws[0] == next_draws[1]  # both drew the same mask from the stream


# -- the scaled-dot core ----------------------------------------------------------------

# 8 groups of [16, 16] scores, which the core runs as one block (the blocks
# of multi_head_attention are tested with the op, further down)
BLOCKED_LEAD, BLOCKED_L, BLOCKED_D_K, BLOCKED_D_V = (2, 4), 16, 3, 5
SCORES_BYTES = 8 * BLOCKED_L * BLOCKED_L * int(np.prod(BLOCKED_LEAD))


def blocked_arrays(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shapes = [BLOCKED_LEAD + (BLOCKED_L, d) for d in (BLOCKED_D_K, BLOCKED_D_K, BLOCKED_D_V)]
    return [scale * rng.standard_normal(shape) for shape in shapes] + \
        [rng.standard_normal(BLOCKED_LEAD + (BLOCKED_L, BLOCKED_D_V))]


def attend_and_backward(attend, arrays, weight_dropout, seed=21):
    q_arr, k_arr, v_arr, weight = arrays
    ad.reset_tape()
    q, k, v = (Tensor(a, requires_grad=True) for a in (q_arr, k_arr, v_arr))
    draws = np.random.default_rng(seed)
    out = attend(q, k, v, weight_dropout, draws)
    ad.backward(weighted_sum(out, weight))
    return (out.data, q.grad, k.grad, v.grad), draws


def dropped_attention_loop(q, k, v, keep, scale):
    """attention_loop with each weight multiplied by its keep flag and scale."""
    out = np.zeros((q.shape[0], v.shape[-1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] / np.sqrt(q.shape[-1]) for j in range(k.shape[0])])
        e = np.exp(scores - scores.max())
        for j in range(v.shape[0]):
            if keep[i, j]:
                out[i] += e[j] / e.sum() * scale * v[j]
    return out


@pytest.mark.parametrize("weight_dropout", [0.0, 0.3])
def test_blocked_attention_matches_composed_ops_and_loop(weight_dropout):
    arrays = blocked_arrays(30)
    fused, _ = attend_and_backward(scaled_dot_op, arrays, weight_dropout)
    composed, _ = attend_and_backward(composed_attention, arrays, weight_dropout)
    for got, expected in zip(fused, composed):
        assert np.abs(got - expected).max() < 1e-12
    q, k, v = (a.reshape((-1,) + a.shape[-2:]) for a in arrays[:3])
    keep = np.random.default_rng(21).random((len(q), BLOCKED_L, BLOCKED_L)) >= weight_dropout
    values = fused[0].reshape(len(q), BLOCKED_L, BLOCKED_D_V)
    for group in range(len(q)):
        if weight_dropout == 0.0:
            expected = attention_loop(q[group], k[group], v[group])
        else:
            expected = dropped_attention_loop(q[group], k[group], v[group], keep[group],
                                              1.0 / (1.0 - weight_dropout))
        assert np.abs(values[group] - expected).max() < 1e-12


def test_blocked_dropout_mask_is_one_full_draw():
    # with v the identity the output rows are the applied weights, zero
    # exactly where the mask dropped a (positive) weight
    q_arr, k_arr, _, _ = blocked_arrays(31)
    v = np.broadcast_to(np.eye(BLOCKED_L), BLOCKED_LEAD + (BLOCKED_L, BLOCKED_L))
    draws = np.random.default_rng(5)
    out = scaled_dot_op(Tensor(q_arr), Tensor(k_arr), Tensor(v), 0.4, draws)
    reference = np.random.default_rng(5)
    assert np.array_equal(out.data != 0.0, reference.random(out.shape) >= 0.4)
    assert draws.random() == reference.random()


def test_blocked_observers_see_one_full_array_per_call():
    # the weights, read with identity values, are whole across the blocks
    q_arr, k_arr, v_arr, _ = blocked_arrays(32)
    with attention_weights() as captured:
        for _ in range(2):
            scaled_dot_op(Tensor(q_arr), Tensor(k_arr), Tensor(v_arr))
    assert len(captured) == 2
    scores = np.matmul(q_arr, np.swapaxes(k_arr, -1, -2)) / np.sqrt(BLOCKED_D_K)
    for weights in captured:
        assert weights.shape == BLOCKED_LEAD + (BLOCKED_L, BLOCKED_L)
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12
        for group, rows in zip(scores.reshape(-1, BLOCKED_L, BLOCKED_L),
                               weights.reshape(-1, BLOCKED_L, BLOCKED_L)):
            assert np.abs(rows - softmax_rows(group)).max() < 1e-12


def test_blocked_attention_stable_at_large_logits():
    arrays = blocked_arrays(33, scale=25.0)  # logits of several hundred to 1e3
    scores = np.matmul(arrays[0], np.swapaxes(arrays[1], -1, -2)) / np.sqrt(BLOCKED_D_K)
    assert np.abs(scores).max() > 500.0
    fused, _ = attend_and_backward(scaled_dot_op, arrays, 0.0)
    composed, _ = attend_and_backward(composed_attention, arrays, 0.0)
    for got, expected in zip(fused, composed):
        assert np.all(np.isfinite(got))
        assert np.abs(got - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("weight_dropout", [0.0, 0.3])
def test_unshifted_and_shifted_softmax_agree(monkeypatch, weight_dropout):
    # The default inputs' scores are bounded well below EXP_SAFE, so they are
    # exponentiated with no row max; EXP_SAFE = 0 forces the max shift.
    arrays = blocked_arrays(35)
    norm = lambda a: np.sqrt((a * a).sum(axis=-1)).max()
    assert norm(arrays[0]) * norm(arrays[1]) / np.sqrt(BLOCKED_D_K) <= att.EXP_SAFE
    unshifted, draws = attend_and_backward(scaled_dot_op, arrays, weight_dropout)
    after_unshifted = draws.random()
    monkeypatch.setattr(att, "EXP_SAFE", 0.0)
    shifted, draws = attend_and_backward(scaled_dot_op, arrays, weight_dropout)
    for got, expected in zip(unshifted, shifted):
        assert np.abs(got - expected).max() < 1e-12
    assert draws.random() == after_unshifted


@pytest.mark.parametrize("exp_safe", [None, 0.0])
def test_nan_query_gives_nan_rows(monkeypatch, exp_safe):
    if exp_safe is not None:
        monkeypatch.setattr(att, "EXP_SAFE", exp_safe)
    q_arr, k_arr, v_arr, _ = blocked_arrays(36)
    q_arr[1, 2, 5, 0] = np.nan
    out = scaled_dot_op(Tensor(q_arr), Tensor(k_arr), Tensor(v_arr)).data
    nan_rows = np.zeros(out.shape[:-1], dtype=bool)
    nan_rows[1, 2, 5] = True
    assert np.array_equal(np.isnan(out).any(axis=-1), nan_rows)
    assert np.isnan(out[1, 2, 5]).all()


def test_blocked_training_forward_retains_no_scores_buffer():
    q_arr, k_arr, v_arr, _ = blocked_arrays(34)
    ad.reset_tape()
    q, k, v = (Tensor(a, requires_grad=True) for a in (q_arr, k_arr, v_arr))
    draws = np.random.default_rng(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = scaled_dot_op(q, k, v, 0.3, draws)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    assert out.shape == BLOCKED_LEAD + (BLOCKED_L, BLOCKED_D_V)
    assert retained < SCORES_BYTES, (retained, SCORES_BYTES)


def test_attention_output_and_grads_have_the_layout_of_q():
    # q as the projections make it: a [B, N, h, T, d_k] view of [B, N, T, h, d_k]
    rng = np.random.default_rng(35)
    b, n, t, h, d_k = 2, 3, 5, 2, 4
    q, k, v = (Tensor(rng.standard_normal((b, n, t, h, d_k)).transpose(0, 1, 3, 2, 4),
                      requires_grad=True) for _ in range(3))
    ad.reset_tape()
    out = scaled_dot_op(q, k, v)
    heads = ad.transpose(out, (0, 1, 3, 2, 4))
    merged = ad.reshape(heads, (b, n, t, h * d_k))
    assert out.data.strides == q.data.strides
    assert np.shares_memory(merged.data, out.data)
    ad.backward(weighted_sum(merged, rng.standard_normal(merged.shape)))
    for leaf in (q, k, v):
        assert leaf.grad.strides == leaf.data.strides


# -- the feed-forward network ---------------------------------------------------------


def composed_feed_forward(x, p, dropout=0.0, rng=None):
    """The network as the tape ops it replaces."""
    hidden = relu_op(ad.add(ad.matmul(x, p.w1), p.b1))
    hidden = ad.dropout(hidden, dropout, rng)
    return ad.add(ad.matmul(hidden, p.w2), p.b2)


def ffn_arrays(seed, dim=4, ffn_dim=6, lead=(2, 3, 5)):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(lead + (dim,)), rng.standard_normal((dim, ffn_dim)),
            rng.standard_normal(ffn_dim), rng.standard_normal((ffn_dim, dim)),
            rng.standard_normal(dim), rng.standard_normal(lead + (dim,))]


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_feed_forward_matches_composed_ops(dropout):
    *arrays, weight = ffn_arrays(36)
    results, next_draws, entries = [], [], []
    for feed in (att.feed_forward, composed_feed_forward):
        ad.reset_tape()
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        draws = np.random.default_rng(22)
        out = feed(tensors[0], att.FfnParams(*tensors[1:]), dropout, draws)
        entries.append(len(ad.tape().entries))
        ad.backward(weighted_sum(out, weight))
        results.append([out.data] + [t.grad for t in tensors])
        next_draws.append(draws.random())
    assert entries[0] == 1  # one tape entry for the whole network
    for fused, composed in zip(*results):
        assert fused.shape == composed.shape
        assert np.abs(fused - composed).max() < 1e-12
    assert next_draws[0] == next_draws[1]  # the same mask drawn from the stream
    x, *params = (Tensor(a) for a in arrays)
    undropped = att.feed_forward(x, att.FfnParams(*params))
    assert (np.abs(results[0][0] - undropped.data).max() > 0.1) == (dropout > 0)


def test_feed_forward_rejects_dropout_of_one():
    with pytest.raises(ValueError):
        x, *params = (Tensor(a) for a in ffn_arrays(37)[:5])
        att.feed_forward(x, att.FfnParams(*params), 1.0, np.random.default_rng(0))


def test_feed_forward_training_forward_retains_one_hidden_array():
    # the tape keeps x and one [.., ffn_dim] float activation besides the
    # output; the composed ops kept four such arrays and two masks
    lead, dim, ffn_dim = (4, 8, 16), 8, 64
    x_arr, w1, b1, w2, b2, _ = ffn_arrays(38, dim, ffn_dim, lead)
    ad.reset_tape()
    params = att.FfnParams(*(Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)))
    x = Tensor(x_arr, requires_grad=True)
    draws = np.random.default_rng(7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = att.feed_forward(x, params, 0.3, draws)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    hidden_bytes = 8 * int(np.prod(lead)) * ffn_dim
    assert retained - out.data.nbytes <= hidden_bytes + 4096, (retained, hidden_bytes)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_feed_forward_backward_writes_the_hidden_gradient_in_place(dropout):
    # backward writes the hidden gradient into the spent activation's buffer:
    # with d_hidden much wider than d_in and d_out, its new arrays (the
    # boolean ReLU mask, the weight and input gradients) stay below one
    # [rows, d_hidden] float array
    lead, dim, ffn_dim = (8, 16, 8), 4, 256
    x_arr, w1, b1, w2, b2, g = ffn_arrays(39, dim, ffn_dim, lead)
    ad.reset_tape()
    params = att.FfnParams(*(Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)))
    x = Tensor(x_arr, requires_grad=True)
    att.feed_forward(x, params, dropout, np.random.default_rng(8))
    (_, _, back), = ad.tape().entries
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    hidden_bytes = 8 * int(np.prod(lead)) * ffn_dim
    assert peak < hidden_bytes, (peak, hidden_bytes)
    assert x.grad is not None and params.w1.grad is not None



# one model of each side of feed_forward's keep-or-recompute rule: d_hidden >
# d_in rebuilds the hidden activation in backward, d_hidden <= d_in keeps it
FFN_SIDES = {"recompute": (4, 6), "keep": (6, 4)}


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("side", FFN_SIDES)
def test_feed_forward_row_chunks_match_one_chunk(monkeypatch, side, dropout):
    # 30 rows in chunks of 7: four full chunks and a ragged one of 2
    dim, ffn_dim = FFN_SIDES[side]
    *arrays, weight = ffn_arrays(40, dim, ffn_dim)
    results, next_draws = [], []
    for block_bytes in (None, 8 * ffn_dim * 7):
        if block_bytes is not None:
            monkeypatch.setattr(att, "BLOCK_BYTES", block_bytes)
        for feed in (att.feed_forward, composed_feed_forward):
            ad.reset_tape()
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            draws = np.random.default_rng(23)
            out = feed(tensors[0], att.FfnParams(*tensors[1:]), dropout, draws)
            ad.backward(weighted_sum(out, weight))
            results.append([out.data] + [t.grad for t in tensors])
            next_draws.append(draws.random())
    one_chunk, _, chunked, composed = results
    assert np.array_equal(chunked[0], one_chunk[0])
    for got, want in zip(chunked, one_chunk):
        assert np.abs(got - want).max() < 1e-12
    # the chunks' dropout flags are the mask of one draw over all rows
    for got, want in zip(chunked, composed):
        assert np.abs(got - want).max() < 1e-12
    assert len(set(next_draws)) == 1


@pytest.mark.parametrize("side", FFN_SIDES)
def test_feed_forward_keeps_the_hidden_activation_only_when_no_wider_than_x(side):
    # at rate 0 the recompute side keeps no array of its own: neither the
    # activation nor the forward's chunk buffer
    lead = (4, 8, 16)
    dim, ffn_dim = {"recompute": (8, 64), "keep": (64, 8)}[side]
    x_arr, w1, b1, w2, b2, _ = ffn_arrays(41, dim, ffn_dim, lead)
    ad.reset_tape()
    params = att.FfnParams(*(Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)))
    x = Tensor(x_arr, requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = att.feed_forward(x, params)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    hidden_bytes = 8 * int(np.prod(lead)) * ffn_dim
    kept = retained - out.data.nbytes
    if side == "recompute":
        assert kept <= 4096, (kept, hidden_bytes)
    else:
        assert hidden_bytes <= kept <= hidden_bytes + 4096, (kept, hidden_bytes)


def test_retraining_with_dropout_across_ffn_chunks_is_bit_identical(monkeypatch):
    # 100-row chunks of the [B, N, T, 8] hidden activation (768 rows a
    # batch), so every FFN call spans several chunks with a ragged last one
    monkeypatch.setattr(att, "BLOCK_BYTES", 8 * 8 * 100)
    series, _ = dp.synthesize(4, 300, seed=5)
    windows = dp.make_windows(series.values[:240], 6, 3)
    val = dp.make_windows(series.values[240:], 6, 3)
    norm = dp.Normalizer.fit(series.values[:240])
    runs = []
    for _ in range(2):
        cfg = md.ModelConfig(n_nodes=4, input_steps=6, output_steps=3, embed_dim=2,
                             hidden_dim=4, heads=2, cheb_order=1, ffn_dim=8, fc_hidden=16,
                             dropout_input=0.1, dropout_inner=0.1, seed=5)
        model = md.Forecaster(cfg)
        result = tr.fit(model, windows, val, norm,
                        tr.TrainConfig(max_epochs=2, patience=30, batch_size=32, seed=5))
        runs.append(([r.train_loss for r in result.history],
                     [t.data.copy() for _, t in model.params]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)

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


SITES = ["temporal", "spatial", "fusion"]


def site_arrays(seed, lead=(2, 5, 4), dim=8):
    """x, the fusion value stream and the output weight, all [*lead, dim]."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(lead + (dim,)) for _ in range(3)]


def run_site(attend, site, arrays, params, weight_dropout):
    """One attention site with ``attend`` (the library op or the composed
    reference) on fresh leaves, then backward; returns the output, the
    gradients of x, the values (fusion only) and the four weights, and the
    stream's next draw."""
    x_arr, values_arr, weight = arrays
    ad.reset_tape()
    x = Tensor(x_arr, requires_grad=True)
    values = Tensor(values_arr, requires_grad=True) if site == "fusion" else None
    p = att.AttentionParams(*(Tensor(w.data.copy(), requires_grad=True)
                              for w in (params.w_q, params.w_k, params.w_v, params.w_o)))
    draws = np.random.default_rng(23)
    out = attend(x, p, site == "spatial", weight_dropout, draws, values=values)
    ad.backward(weighted_sum(out, weight))
    grads = [x.grad] + ([] if values is None else [values.grad]) + \
        [w.grad for w in (p.w_q, p.w_k, p.w_v, p.w_o)]
    return [out.data] + grads, draws.random()


@pytest.mark.parametrize("weight_dropout", [0.0, 0.3])
@pytest.mark.parametrize("site", SITES)
def test_multi_head_attention_matches_composed_ops(site, weight_dropout):
    arrays = site_arrays(40)
    params = make_params(8, 2, seed=40)
    fused, after_fused = run_site(att.multi_head_attention, site, arrays, params,
                                  weight_dropout)
    composed, after_composed = run_site(multi_head_composed, site, arrays, params,
                                        weight_dropout)
    assert len(fused) == len(composed) == (7 if site == "fusion" else 6)
    for got, expected in zip(fused, composed):
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() < 1e-12
    assert after_fused == after_composed  # the same dropout draws from the stream


def test_each_attention_call_is_one_tape_entry():
    x = Tensor(site_arrays(41)[0], requires_grad=True)
    p, q = make_params(8, 2, seed=41), make_params(8, 2, seed=42)
    for attend, entries in ((lambda: att.temporal_attention(x, p), 1),
                            (lambda: att.spatial_attention(x, p), 1),
                            (lambda: att.stfa(x, p, q), 2)):
        ad.reset_tape()
        attend()
        assert len(ad.tape().entries) == entries
    ad.reset_tape()


@pytest.mark.parametrize("site", SITES)
def test_multi_head_training_forward_keeps_no_projections(site):
    # the tape keeps the output, the [.., h*d_k] heads and the row
    # logsumexp; q, k and v (three more arrays the size of x) are recomputed
    x_arr, values_arr, _ = site_arrays(43, lead=(4, 16, 12), dim=16)
    p = make_params(16, 2, seed=43)
    x = Tensor(x_arr, requires_grad=True)
    values = Tensor(values_arr, requires_grad=True) if site == "fusion" else None
    ad.reset_tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = att.multi_head_attention(x, p, site == "spatial", 0.0, None, values=values)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    assert retained - out.data.nbytes < 1.5 * x_arr.nbytes, (retained, x_arr.nbytes)


@pytest.mark.parametrize("site", ["temporal", "spatial"])
def test_multi_head_backward_allocates_nothing_while_qkv_is_live(monkeypatch, site):
    # the backward's own arrays of x's size are the heads' gradient and the
    # [3, ..] q, k, v buffer (4), and x's gradient goes into spent ones of
    # them; with blocks of one group the core adds little, and the peak read
    # 4.31 arrays over time and 4.32 over nodes (5.10 each while x's
    # gradient was a new array)
    monkeypatch.setattr(att, "BLOCK_BYTES", 1)
    x_arr, _, g = site_arrays(46, lead=(4, 16, 12), dim=16)
    p = make_params(16, 2, seed=46)
    x = Tensor(x_arr, requires_grad=True)
    ad.reset_tape()
    att.multi_head_attention(x, p, site == "spatial", 0.0, None)
    (_, _, back), = ad.tape().entries
    ad.reset_tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * x_arr.nbytes, peak / x_arr.nbytes
    assert x.grad is not None and p.w_q.grad is not None


@pytest.mark.parametrize("weight_dropout", [0.0, 0.3])
@pytest.mark.parametrize("site", SITES)
def test_blocks_of_one_group_match_one_block(monkeypatch, site, weight_dropout):
    # at BLOCK_BYTES=1 each block projects one group of one head (so the
    # heads of a row split across blocks); by default these shapes fit one
    # block. Outputs, gradients and the dropout draws agree.
    arrays = site_arrays(48)
    params = make_params(8, 2, seed=48)
    one_block, after_one = run_site(att.multi_head_attention, site, arrays, params,
                                    weight_dropout)
    monkeypatch.setattr(att, "BLOCK_BYTES", 1)
    assert len(att._blocks((2, 5, 2), 8)[0]) == 20
    blocked, after_blocked = run_site(att.multi_head_attention, site, arrays, params,
                                      weight_dropout)
    for got, expected in zip(blocked, one_block):
        assert np.abs(got - expected).max() < 1e-12
    assert after_blocked == after_one


def traced(fn):
    """fn's result, its traced peak above its start and the bytes it leaves
    allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, end - base


@pytest.mark.parametrize("site", SITES + ["merge"])
def test_attention_allocates_no_input_sized_buffer(monkeypatch, site):
    # q, k and v are projected block by block, and g_heads formed per block,
    # so beyond what forward keeps (the heads and the output) and backward
    # returns (the inputs' gradients) neither allocates an array of x's size.
    # With whole-input q, k, v (and heads-gradient) buffers, these peaks read
    # 2.5-3.5 such arrays above that in forward and 3.0-6.0 in backward.
    monkeypatch.setattr(att, "BLOCK_BYTES", 16384)
    x_arr, values_arr, g = site_arrays(49, lead=(4, 16, 12), dim=16)
    x = Tensor(x_arr, requires_grad=True)
    values = Tensor(values_arr, requires_grad=True) if site == "fusion" else None
    draws = np.random.default_rng(49)
    ad.reset_tape()
    if site == "merge":
        p = layer_params("parallel", dim=16, heads=2, seed=49)
        _, peak, kept = traced(lambda: att.parallel_attention(x, p, 0.3, draws))
    else:
        p = make_params(16, 2, seed=49)
        _, peak, kept = traced(lambda: att.multi_head_attention(x, p, site == "spatial", 0.3,
                                                                draws, values=values))
    (_, _, back), = ad.tape().entries
    ad.reset_tape()
    assert peak - kept < x_arr.nbytes, (peak - kept) / x_arr.nbytes
    _, peak, kept = traced(lambda: back(g))
    assert peak - kept < x_arr.nbytes, (peak - kept) / x_arr.nbytes
    assert peak < 3 * x_arr.nbytes, peak / x_arr.nbytes
    assert x.grad is not None


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


# -- the parallel block's merge site ------------------------------------------------------


@pytest.mark.parametrize("weight_dropout", [0.0, 0.3])
def test_merge_op_matches_composed_concat_and_matmul(weight_dropout):
    # ta P[:d] + sa P[d:] as one op against concat(ta, sa) P from tape ops:
    # the output and the gradients of x and of all nine weights
    x_arr, _, weight = site_arrays(44)
    results, next_draws, entries = [], [], []
    for merge in (att.parallel_attention, merge_composed):
        ad.reset_tape()
        p = layer_params("parallel", dim=8, heads=2, seed=44)
        x = Tensor(x_arr, requires_grad=True)
        draws = np.random.default_rng(24)
        out = merge(x, p, weight_dropout, draws)
        entries.append(len(ad.tape().entries))
        ad.backward(weighted_sum(out, weight))
        weights = [p.concat_proj] + [getattr(a, w) for a in (p.temporal, p.spatial)
                                     for w in ("w_q", "w_k", "w_v", "w_o")]
        results.append([out.data, x.grad] + [w.grad for w in weights])
        next_draws.append(draws.random())
    assert entries[0] == 1
    for got, expected in zip(*results):
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() < 1e-12
    assert next_draws[0] == next_draws[1]  # the same dropout draws from the stream


def held_arrays(entries):
    """Every array the tape entries hold, with the bases of views: their
    outputs and inputs, and the arrays in the closures of their backward
    rules and of the functions those hold."""
    found, seen = [], set()

    def visit(value):
        if isinstance(value, Tensor):
            value = value.data
        if isinstance(value, np.ndarray):
            while value is not None:
                found.append(value)
                value = value.base
        elif callable(value) and id(value) not in seen:
            seen.add(id(value))
            for cell in getattr(value, "__closure__", None) or ():
                visit(cell.cell_contents)

    for out, inputs, back in entries:
        for value in (out, *inputs, back):
            visit(value)
    return found


def test_parallel_training_forward_keeps_no_concat_or_branch_output():
    # the merge op keeps what the two attentions keep (x, heads, logsumexp)
    # and neither branch output nor their [B, N, T, 2d] concatenation
    cfg = md.ModelConfig(n_nodes=5, input_steps=4, output_steps=3, embed_dim=3, hidden_dim=8,
                         heads=2, cheb_order=2, ffn_dim=16, fc_hidden=8,
                         dropout_input=0.0, dropout_inner=0.0)
    model = md.Forecaster(cfg)
    rng = np.random.default_rng(45)
    x, y = rng.standard_normal((2, 4, 5, 1)), rng.standard_normal((2, 3, 5))
    ad.reset_tape()
    md.l1_loss(model.forward(Tensor(x), training=True), Tensor(y))
    held = held_arrays(ad.tape().entries)
    ad.reset_tape()
    with ad.no_grad():
        h = recurrent.encode_sequence(Tensor(x), model.cell, model.build_bundle(), model.bank)
        block_in = Tensor(h.data + att.positional_encoding(4, 8).data)
        branches = [att.temporal_attention(block_in, model.gst2.temporal).data,
                    att.spatial_attention(block_in, model.gst2.spatial).data]
    assert any(a.shape == block_in.shape for a in held)
    assert all(a.shape != (2, 5, 4, 16) for a in held)
    for branch in branches:
        assert not any(a.shape == branch.shape and np.array_equal(a, branch) for a in held)


def test_retraining_the_parallel_block_with_dropout_is_bit_identical():
    series, _ = dp.synthesize(4, 300, seed=6)
    windows = dp.make_windows(series.values[:240], 6, 3)
    val = dp.make_windows(series.values[240:], 6, 3)
    norm = dp.Normalizer.fit(series.values[:240])
    runs = []
    for _ in range(2):
        cfg = md.ModelConfig(n_nodes=4, input_steps=6, output_steps=3, embed_dim=2,
                             hidden_dim=4, heads=2, cheb_order=1, gst2_variant="parallel",
                             ffn_dim=8, fc_hidden=16, dropout_input=0.1, dropout_inner=0.1,
                             seed=6)
        model = md.Forecaster(cfg)
        result = tr.fit(model, windows, val, norm,
                        tr.TrainConfig(max_epochs=2, patience=30, batch_size=32, seed=6))
        runs.append(([r.train_loss for r in result.history],
                     [t.data.copy() for _, t in model.params]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


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
    beta = p.norm[att.BLOCKS[variant][-1]].beta
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
    ad.backward(weighted_sum(out, weight))

    def loss_value():
        with ad.no_grad():
            result = att.apply_global_layer(Tensor(x_arr), p)
        return float((result.data * weight).sum())

    if variant == "parallel":
        checked = [p.temporal.w_q, p.spatial.w_v, p.concat_proj, p.ffn.w1,
                   p.norm["merge"].gamma]
    elif variant == "serial":
        checked = [p.temporal.w_q, p.spatial.w_v, p.ffn.w2, p.norm["spatial"].beta]
    else:
        checked = [p.fusion.w_q, p.fusion.w_v, p.spatial.w_o, p.ffn.w1,
                   p.norm["fusion"].gamma]
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
