import ast
import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest

from flowcast import attention as att
from flowcast import autodiff as ad
from flowcast import graphs, recurrent
from flowcast.autodiff import Tensor
from flowcast.errors import ShapeError

from oracles import finite_diff_grad, mul, scalar_affine, weighted_sum


def grads_of(build_loss, *arrays):
    """Autodiff gradients of a scalar loss built from the given arrays."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    ad.backward(loss)
    return [t.grad for t in tensors]


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_1x2_2x1():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    ga, gb = grads_of(lambda x, y: weighted_sum(ad.matmul(x, y)), a, b)
    assert np.allclose(ga, np.ones((3, 5)) @ b.T, atol=1e-12)
    assert np.allclose(gb, a.T @ np.ones((3, 5)), atol=1e-12)


def test_matmul_grad_vs_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    ga, gb = grads_of(lambda x, y: weighted_sum(ad.matmul(x, y)), a, b)

    def loss():
        return float(np.sum(a @ b))

    for analytic, arr in ((ga, a), (gb, b)):
        fd = finite_diff_grad(loss, arr)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-6


def test_matmul_broadcast_batches():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((5, 6))
    out = ad.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 3, 4, 6)
    assert np.allclose(out.data, a @ b)
    ga, gb = grads_of(lambda x, y: weighted_sum(ad.matmul(x, y)), a, b)
    assert ga.shape == a.shape and gb.shape == b.shape


@pytest.mark.parametrize("a_grad,b_grad", [(True, True), (True, False), (False, True)])
@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "transposed"])
def test_matmul_weight_gradient_matches_einsum(a_grad, b_grad, contiguous):
    # a [B, N, T, d] activation times a [d, f] weight, as the model's heads
    # and feed-forward layers multiply them
    rng = np.random.default_rng(11)
    a_arr = rng.standard_normal((3, 5, 4, 6))
    if not contiguous:
        a_arr = rng.standard_normal((3, 4, 5, 6)).transpose(0, 2, 1, 3)
    b_arr = rng.standard_normal((6, 7))
    weight = rng.standard_normal((3, 5, 4, 7))
    a, b = Tensor(a_arr, requires_grad=a_grad), Tensor(b_arr, requires_grad=b_grad)
    ad.backward(weighted_sum(ad.matmul(a, b), weight))
    if a_grad:
        assert np.abs(a.grad - np.einsum("bntf,df->bntd", weight, b_arr)).max() < 1e-12
    else:
        assert a.grad is None
    if b_grad:
        assert np.abs(b.grad - np.einsum("bntd,bntf->df", a_arr, weight)).max() < 1e-12
    else:
        assert b.grad is None


def test_add_of_a_transposed_view_is_c_contiguous():
    # the encoder's states reach the positional add as a [B, N, T, d] view
    # of a [T, N, d, B] buffer; the sum is the block's first C-order array
    rng = np.random.default_rng(14)
    a = Tensor(rng.standard_normal((5, 3, 2, 4)).transpose(3, 1, 0, 2), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 2)))
    out = ad.add(a, b)
    assert out.data.flags.c_contiguous
    assert np.array_equal(out.data, a.data + b.data)
    ad.backward(weighted_sum(out))
    assert np.array_equal(a.grad, np.ones(a.shape))


def test_matmul_gradient_of_a_transposed_view_keeps_its_layout():
    # a [N, B, K] viewed from a contiguous [N, K, B] base: the gradient
    # comes back in the base's axis order
    rng = np.random.default_rng(13)
    base = Tensor(rng.standard_normal((5, 6, 4)), requires_grad=True)
    b_arr = rng.standard_normal((5, 6, 3))
    weight = rng.standard_normal((5, 4, 3))
    out = ad.matmul(ad.transpose(base, (0, 2, 1)), Tensor(b_arr))
    ad.backward(weighted_sum(out, weight))
    assert np.abs(base.grad - np.einsum("nbo,nko->nkb", weight, b_arr)).max() < 1e-12


def test_matmul_weight_gradient_needs_no_per_row_products():
    # summing one [d, f] product per leading index would hold a [B, N, d, f]
    # array, 16 times the activation here; one GEMM holds only [d, f]
    shape, f = (4, 8, 2, 16), 32
    rng = np.random.default_rng(12)
    ad.reset_tape()
    a = Tensor(rng.standard_normal(shape))
    b = Tensor(rng.standard_normal((shape[-1], f)), requires_grad=True)
    loss = weighted_sum(ad.matmul(a, b))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_row_products = 8 * shape[0] * shape[1] * shape[-1] * f
    assert peak < per_row_products / 2, (peak, per_row_products)
    assert np.abs(b.grad - a.data.reshape(-1, shape[-1]).sum(axis=0)[:, None]).max() < 1e-12


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_direct_evaluation():
    # exp([1,2,3]) / sum(exp([1,2,3]))
    out = ad.softmax(Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 5, 6)) * 10
    out = ad.softmax(Tensor(x))
    sums = out.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_softmax_grad_vs_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))  # fixed weighting to make a scalar loss

    (gx,) = grads_of(lambda t: weighted_sum(ad.softmax(t), w), x)

    def loss():
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return float(np.sum(e / e.sum(axis=-1, keepdims=True) * w))

    fd = finite_diff_grad(loss, x)
    assert (np.abs(gx - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_hand_case():
    out = ad.layer_norm(Tensor([1.0, -1.0]), Tensor(0.0), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.999995, -0.999995], atol=1e-5)


def test_layer_norm_constant_slice_gives_beta():
    beta = np.array([3.0, -1.0, 0.5])
    out = ad.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(0.0), Tensor(np.ones(3)), Tensor(beta))
    assert np.array_equal(out.data, beta)


def test_layer_norm_mean_is_mean_beta_for_uniform_gamma():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 6))
    beta = rng.standard_normal(6)
    out = ad.layer_norm(Tensor(x), Tensor(0.0), Tensor(np.full(6, 2.0)), Tensor(beta))
    assert np.allclose(out.data.mean(axis=-1), beta.mean(), atol=1e-10)


def test_layer_norm_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(0.0), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_layer_norm_grad_vs_finite_differences():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 5))
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    weight = rng.standard_normal((2, 5))

    gx, gg, gb = grads_of(
        lambda a, g, b: weighted_sum(ad.layer_norm(a, Tensor(0.0), g, b), weight),
        x, gamma, beta,
    )

    def loss():
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (x - mu) / np.sqrt(var + 1e-5)
        return float(np.sum((gamma * xhat + beta) * weight))

    for analytic, arr in ((gx, x), (gg, gamma), (gb, beta)):
        fd = finite_diff_grad(loss, arr)
        assert (np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


def test_layer_norm_matches_composed_formula():
    rng = np.random.default_rng(20)
    x = 3.0 * rng.standard_normal((2, 3, 5, 32)) + 1.5
    gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
    weight = rng.standard_normal(x.shape)
    tensors = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = ad.layer_norm(tensors[0], Tensor(0.0), *tensors[1:])
    ad.backward(weighted_sum(out, weight))

    # the textbook forward and backward, one numpy expression each
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    dxhat = weight * gamma
    expected = [
        gamma * xhat + beta,
        inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
               - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)),
        (weight * xhat).sum(axis=(0, 1, 2)),
        weight.sum(axis=(0, 1, 2)),
    ]
    for got, want in zip([out.data] + [t.grad for t in tensors], expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12



def test_layer_norm_of_a_broadcast_sum_matches_composed_formula():
    # the graph bank's case: node embeddings [N, d_e] plus per-step
    # embeddings [T, 1, d_e]
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((6, 8)), rng.standard_normal((5, 1, 8))
    gamma, beta = rng.standard_normal(8), rng.standard_normal(8)
    weight = rng.standard_normal((5, 6, 8))
    tensors = [Tensor(t, requires_grad=True) for t in (a, b, gamma, beta)]
    out = ad.layer_norm(*tensors)
    ad.backward(weighted_sum(out, weight))

    x = a + b
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    dxhat = weight * gamma
    gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    expected = [gamma * xhat + beta, gx.sum(axis=0), gx.sum(axis=1, keepdims=True),
                (weight * xhat).sum(axis=(0, 1)), weight.sum(axis=(0, 1))]
    for got, want in zip([out.data] + [t.grad for t in tensors], expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_layer_norm_summands_that_do_not_broadcast():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 3\)"):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))),
                      Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_layer_norm_training_forward_retains_only_its_output():
    # the op keeps the row mean and inverse deviation, [rows, 1] each; x-hat
    # and the sum are rebuilt in backward from the summands, kept anyway
    rng = np.random.default_rng(22)
    a, b = (Tensor(rng.standard_normal((16, 32, 32)), requires_grad=True) for _ in range(2))
    gamma, beta = Tensor(np.ones(32), requires_grad=True), Tensor(np.zeros(32), requires_grad=True)
    ad.reset_tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.layer_norm(a, b, gamma, beta)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ad.reset_tape()
    rows = 16 * 32
    assert retained - out.data.nbytes <= 2 * 8 * rows + 4096, (retained, out.data.nbytes)


def layer_norm_backward(a_arr, b_arr, g):
    """The gradients of a, b, gamma and beta from one layer_norm backward run
    by hand, and the traced peak of that backward above its start."""
    a, b = Tensor(a_arr, requires_grad=True), Tensor(b_arr, requires_grad=True)
    d = a_arr.shape[-1]
    gamma = Tensor(np.linspace(0.5, 1.5, d), requires_grad=True)
    beta = Tensor(np.zeros(d), requires_grad=True)
    ad.reset_tape()
    ad.layer_norm(a, b, gamma, beta)
    (_, _, back), = ad.tape().entries
    ad.reset_tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return [t.grad for t in (a, b, gamma, beta)], peak


def test_layer_norm_backward_allocates_one_sum_sized_array(monkeypatch):
    # x-hat is rebuilt and turned into the gradient of the sum in place, in
    # row blocks whose temporaries stay within BLOCK_BYTES (the arrays here
    # are 8 of them); both summands get that one array. Blocks of 3 rows give
    # the gradients of blocks of BLOCK_BYTES.
    rng = np.random.default_rng(23)
    a_arr, b_arr, g = (rng.standard_normal((8, 64, 64, 32)) for _ in range(3))
    grads, peak = layer_norm_backward(a_arr, b_arr, g)
    assert peak < 1.5 * g.nbytes, peak / g.nbytes
    assert grads[0] is grads[1]
    monkeypatch.setattr(att, "BLOCK_BYTES", 3 * 8 * 32)
    blocked, _ = layer_norm_backward(a_arr, b_arr, g)
    for got, expected in zip(blocked, grads):
        assert np.abs(got - expected).max() < 1e-12

# -- elementwise --------------------------------------------------------------


def test_tanh_at_zero():
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0


def relu_by_feed_forward(x: Tensor) -> Tensor:
    """att.feed_forward with 1-wide layers (w1 = w2 = [[1]], b1 = b2 = [0])
    on x [n, 1]: elementwise ReLU, in values and in gradients."""
    one, zero = np.array([[1.0]]), np.array([0.0])
    return att.feed_forward(x, att.FfnParams(Tensor(one), Tensor(zero), Tensor(one), Tensor(zero)))


def test_relu_subgradient_zero_at_zero():
    (g,) = grads_of(lambda x: weighted_sum(relu_by_feed_forward(x)),
                    np.array([[-1.0], [0.0], [2.0]]))
    assert np.array_equal(g, [[0.0], [0.0], [1.0]])


def test_relu_values_match_where_on_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300])[:, None]
    expected = np.where(x > 0, x, 0.0)
    out = relu_by_feed_forward(Tensor(x, requires_grad=True))
    assert np.array_equal(out.data, expected)  # NaN -> 0, so no NaN is compared
    (g,) = grads_of(lambda t: weighted_sum(relu_by_feed_forward(t)), x)
    assert np.array_equal(g, (x > 0).astype(float))


def test_concat_lastdim_shape():
    a = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.ones((2, 3, 4)))
    assert ad.concat([a, b], axis=-1).shape == (2, 3, 8)


def test_concat_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=-1)


def test_elementwise_grads_vs_finite_differences():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 3))
    (g,) = grads_of(lambda t: weighted_sum(ad.tanh(t)), x)
    fd = finite_diff_grad(lambda: float(np.sum(np.tanh(x))), x)
    assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


def test_reshape_transpose_preserve_values():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3, 4, 5))
    r = ad.reshape(Tensor(x), (5, 12))
    t = ad.transpose(Tensor(x), (2, 0, 1))
    assert sorted(r.data.reshape(-1)) == sorted(x.reshape(-1))
    assert sorted(t.data.reshape(-1)) == sorted(x.reshape(-1))


# -- dropout ------------------------------------------------------------------


def test_dropout_identity_cases():
    # rate 0 returns x and needs no stream to draw from
    x = Tensor(np.arange(6.0))
    assert ad.dropout(x, 0.0, None) is x


def test_dropout_rejects_p_of_one():
    with pytest.raises(ValueError):
        ad.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))


def test_dropout_empirical_rate():
    rng = np.random.default_rng(42)
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, 0.1, rng)
    drop_rate = float((out.data == 0.0).mean())
    assert abs(drop_rate - 0.1) < 0.01
    survivors = out.data[out.data != 0.0]
    assert np.allclose(survivors, 1.0 / 0.9)


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(7)
    x = np.ones((50, 50))
    t = Tensor(x, requires_grad=True)
    out = ad.dropout(t, 0.3, rng)
    ad.backward(weighted_sum(out))
    assert np.array_equal(t.grad != 0.0, out.data != 0.0)


# -- backward / tape ----------------------------------------------------------


def test_backward_sum_gives_ones():
    (g,) = grads_of(weighted_sum, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    (g,) = grads_of(lambda x: weighted_sum(mul(x, x)), np.array([1.0, 2.0]))
    assert np.array_equal(g, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    with pytest.raises(ValueError):
        ad.backward(y)


def test_backward_accumulates_over_shared_use():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    ad.backward(weighted_sum(y))
    assert x.grad[0] == 2.0


def test_tape_consumed_by_backward():
    x = Tensor(np.ones(2), requires_grad=True)
    loss = weighted_sum(mul(x, x))
    ad.backward(loss)
    assert len(ad.tape().entries) == 0


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    assert len(ad.tape().entries) == 0


def test_broadcast_add_grad_shapes():
    a = np.random.default_rng(0).standard_normal((2, 3, 4))
    b = np.random.default_rng(1).standard_normal((4,))
    ga, gb = grads_of(lambda x, y: weighted_sum(ad.add(x, y)), a, b)
    assert ga.shape == a.shape
    assert gb.shape == b.shape
    assert np.array_equal(gb, np.full(4, 6.0))


def test_add_sums_no_gradient_for_a_constant(monkeypatch):
    # the positional table is a constant [T, d] added to [B, N, T, d]: its
    # gradient would be a sum over B and N that nothing reads
    summed = []
    unbroadcast = ad._unbroadcast
    monkeypatch.setattr(ad, "_unbroadcast", lambda g, shape: summed.append(shape) or
                        unbroadcast(g, shape))
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4)), requires_grad=True)
    constant = Tensor(np.random.default_rng(3).standard_normal((3, 4)))
    ad.backward(weighted_sum(ad.add(x, constant)))
    assert summed == [x.shape]
    assert np.array_equal(x.grad, np.ones(x.shape))
    assert constant.grad is None


def test_select_roundtrip_grads():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((4, 5))

    def build(t):
        s = ad.select(t, 1, axis=0)
        return weighted_sum(s, w)

    (g,) = grads_of(build, x)
    expected = np.zeros_like(x)
    expected[1] = w
    assert np.array_equal(g, expected)


def test_backward_releases_op_grads_and_keeps_leaf_grads():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    hidden = ad.tanh(mul(x, w))
    loss = weighted_sum(scalar_affine(hidden, 2.0, 1.0))
    ad.backward(loss)
    assert len(ad.tape().entries) == 0
    for out in (hidden, loss):
        assert out.grad is None
    y = np.tanh(x.data * w.data)
    assert np.allclose(x.grad, 2.0 * (1.0 - y * y) * w.data, atol=1e-15)
    assert np.allclose(w.grad, 2.0 * (1.0 - y * y) * x.data, atol=1e-15)


def test_backward_peak_memory_below_tape_plus_all_grads():
    # A chain of elementwise ops on a 1 MB leaf: the forward pass keeps about
    # one array per op alive. Releasing each entry and its output gradient as
    # backward passes it keeps the peak near that; holding every op output's
    # gradient until backward returns would add another array per op.
    ops = 20
    ad.reset_tape()
    x = Tensor(np.random.default_rng(0).standard_normal((128, 1024)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = x
        for i in range(ops):
            h = ad.tanh(h) if i % 2 else scalar_affine(h, 0.5, 0.1)
        loss = weighted_sum(h)
        retained = tracemalloc.get_traced_memory()[0] - base
        del h
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    all_grads = ops * x.data.nbytes
    assert retained > 0.9 * all_grads  # one array per op
    assert peak < retained + all_grads / 2, (peak, retained, all_grads)
    assert x.grad is not None


# -- the module's surface --------------------------------------------------------------


def names_used_from(module) -> set:
    """The names the package's other modules take from ``module``: reached as
    ``<alias of module>.<name>`` or imported by name."""
    stem = pathlib.Path(module.__file__).stem
    used = set()
    for path in pathlib.Path(module.__file__).parent.glob("*.py"):
        if path.stem == stem:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == stem:
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == stem)
        used.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases)
    return used


def public_functions(module) -> set:
    return {name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


def test_every_public_op_is_run_by_the_library():
    # the ops are the public functions defined in autodiff, except the tape
    # controls; each one must be reached from another module of the package
    controls = {"tape", "reset_tape", "no_grad", "backward"}
    ops = public_functions(ad) - controls
    used = names_used_from(ad)
    assert ops and not ops - used, sorted(ops - used)


@pytest.mark.parametrize("module", [att, graphs, recurrent], ids=lambda m: m.__name__)
def test_every_public_function_is_used_by_the_library(module):
    # a function only tests call is a second path to keep in step: each public
    # function must be named by another module or, outside its own definition,
    # by its own
    used = names_used_from(module)
    for top in ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")).body:
        own = getattr(top, "name", None)
        used.update(node.id for node in ast.walk(top)
                    if isinstance(node, ast.Name) and node.id != own)
    functions = public_functions(module)
    assert functions and not functions - used, sorted(functions - used)
