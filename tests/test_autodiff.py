import tracemalloc

import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast.autodiff import Tensor
from flowcast.errors import ShapeError

from oracles import finite_diff_grad


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
    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), a, b)
    assert np.allclose(ga, np.ones((3, 5)) @ b.T, atol=1e-12)
    assert np.allclose(gb, a.T @ np.ones((3, 5)), atol=1e-12)


def test_matmul_grad_vs_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), a, b)

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
    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), a, b)
    assert ga.shape == a.shape and gb.shape == b.shape


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_direct_evaluation():
    # exp([1,2,3]) / sum(exp([1,2,3]))
    out = ad.softmax(Tensor([1.0, 2.0, 3.0]), axis=-1)
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 5, 6)) * 10
    out = ad.softmax(Tensor(x), axis=-1)
    sums = out.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_softmax_grad_vs_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))  # fixed weighting to make a scalar loss

    (gx,) = grads_of(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=-1), Tensor(w))), x)

    def loss():
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return float(np.sum(e / e.sum(axis=-1, keepdims=True) * w))

    fd = finite_diff_grad(loss, x)
    assert (np.abs(gx - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


def test_softmax_axis_validation():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.ones((2, 2))), axis=5)


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_hand_case():
    out = ad.layer_norm(Tensor([1.0, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=1e-5)
    assert np.allclose(out.data, [0.999995, -0.999995], atol=1e-5)


def test_layer_norm_constant_slice_gives_beta():
    beta = np.array([3.0, -1.0, 0.5])
    out = ad.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(beta), eps=1e-5)
    assert np.array_equal(out.data, beta)


def test_layer_norm_mean_is_mean_beta_for_uniform_gamma():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 6))
    beta = rng.standard_normal(6)
    out = ad.layer_norm(Tensor(x), Tensor(np.full(6, 2.0)), Tensor(beta))
    assert np.allclose(out.data.mean(axis=-1), beta.mean(), atol=1e-10)


def test_layer_norm_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_layer_norm_grad_vs_finite_differences():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 5))
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    weight = rng.standard_normal((2, 5))

    gx, gg, gb = grads_of(
        lambda a, g, b: ad.reduce_sum(ad.mul(ad.layer_norm(a, g, b), Tensor(weight))),
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


# -- elementwise --------------------------------------------------------------


def test_sigmoid_tanh_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0


def test_relu_subgradient_zero_at_zero():
    (g,) = grads_of(lambda x: ad.reduce_sum(ad.relu(x)), np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(g, [0.0, 0.0, 1.0])


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
    for op, ref in (
        (ad.sigmoid, lambda v: 1 / (1 + np.exp(-v))),
        (ad.tanh, np.tanh),
        (ad.relu, lambda v: np.maximum(v, 0.0)),
        (ad.absolute, np.abs),
    ):
        (g,) = grads_of(lambda t: ad.reduce_sum(op(t)), x)
        fd = finite_diff_grad(lambda: float(np.sum(ref(x))), x)
        assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


def test_reshape_transpose_preserve_values():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3, 4, 5))
    r = ad.reshape(Tensor(x), (5, 12))
    t = ad.transpose(Tensor(x), (2, 0, 1))
    assert sorted(r.data.reshape(-1)) == sorted(x.reshape(-1))
    assert sorted(t.data.reshape(-1)) == sorted(x.reshape(-1))


def test_einsum_matches_numpy_and_finite_differences():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4, 2, 5))
    spec = "nd,dkio->nkio"
    out = ad.einsum(spec, Tensor(a), Tensor(b))
    assert np.allclose(out.data, np.einsum(spec, a, b))
    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.einsum(spec, x, y)), a, b)
    fd_a = finite_diff_grad(lambda: float(np.einsum(spec, a, b).sum()), a)
    fd_b = finite_diff_grad(lambda: float(np.einsum(spec, a, b).sum()), b)
    assert (np.abs(ga - fd_a) / np.maximum(1.0, np.abs(fd_a))).max() < 1e-6
    assert (np.abs(gb - fd_b) / np.maximum(1.0, np.abs(fd_b))).max() < 1e-6


@pytest.mark.parametrize("spec,sizes", [
    pytest.param("knm,bmi->nkib", "k3 n5 m5 b4 i2", id="graph_propagation"),
    pytest.param("nkib,nkio->bno", "n5 k3 i2 b4 o3", id="per_node_mix"),
    pytest.param("bgld,hde->bghle", "b2 g3 l4 d5 h2 e3", id="head_projection"),
    pytest.param("ij,jk->ki", "i2 j3 k4", id="product_transposed"),
    pytest.param("ab,c->abc", "a2 b3 c2", id="outer_product"),
    pytest.param("i,i->", "i4", id="dot"),
])
def test_einsum_as_matmul_matches_numpy(spec, sizes):
    # Forward and both gradients against np.einsum, with the first operand
    # given as a transposed, non-contiguous view.
    size = {item[0]: int(item[1:]) for item in sizes.split()}
    (a_spec, b_spec), out_spec = spec.split("->")[0].split(","), spec.split("->")[1]
    rng = np.random.default_rng(37)
    a = rng.standard_normal([size[i] for i in reversed(a_spec)]).T
    b = rng.standard_normal([size[i] for i in b_spec])
    weight = rng.standard_normal([size[i] for i in out_spec])
    out = ad.einsum(spec, Tensor(a), Tensor(b))
    assert np.abs(out.data - np.einsum(spec, a, b)).max() < 1e-12
    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.mul(ad.einsum(spec, x, y), Tensor(weight))),
                      a, b)
    assert np.abs(ga - np.einsum(f"{out_spec},{b_spec}->{a_spec}", weight, b)).max() < 1e-12
    assert np.abs(gb - np.einsum(f"{out_spec},{a_spec}->{b_spec}", weight, a)).max() < 1e-12


def test_einsum_rejects_mismatched_sizes_and_unknown_output():
    with pytest.raises(ShapeError):
        ad.einsum("ij,jk->ik", Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ad.einsum("ij,jk->ik", Tensor(np.ones((2, 3, 1))), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        ad.einsum("ij,jk->iz", Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_einsum_rejects_undifferentiable_spec():
    with pytest.raises(ValueError):
        ad.einsum("ab,bc->c", Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


# -- dropout ------------------------------------------------------------------


def test_dropout_identity_cases():
    x = Tensor(np.arange(6.0))
    rng = np.random.default_rng(0)
    assert ad.dropout(x, 0.0, True, rng) is x
    assert ad.dropout(x, 0.1, False, rng) is x


def test_dropout_rejects_p_of_one():
    with pytest.raises(ValueError):
        ad.dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))


def test_dropout_empirical_rate():
    rng = np.random.default_rng(42)
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, 0.1, True, rng)
    drop_rate = float((out.data == 0.0).mean())
    assert abs(drop_rate - 0.1) < 0.01
    survivors = out.data[out.data != 0.0]
    assert np.allclose(survivors, 1.0 / 0.9)


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(7)
    x = np.ones((50, 50))
    t = Tensor(x, requires_grad=True)
    out = ad.dropout(t, 0.3, True, rng)
    ad.backward(ad.reduce_sum(out))
    assert np.array_equal(t.grad != 0.0, out.data != 0.0)


# -- backward / tape ----------------------------------------------------------


def test_backward_sum_gives_ones():
    (g,) = grads_of(lambda x: ad.reduce_sum(x), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    (g,) = grads_of(lambda x: ad.reduce_sum(ad.mul(x, x)), np.array([1.0, 2.0]))
    assert np.array_equal(g, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, x)
    with pytest.raises(ValueError):
        ad.backward(y)


def test_backward_accumulates_over_shared_use():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    ad.backward(ad.reduce_sum(y))
    assert x.grad[0] == 2.0


def test_tape_consumed_by_backward():
    x = Tensor(np.ones(2), requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    assert len(ad.tape().entries) == 0


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    assert len(ad.tape().entries) == 0


def test_broadcast_add_grad_shapes():
    a = np.random.default_rng(0).standard_normal((2, 3, 4))
    b = np.random.default_rng(1).standard_normal((4,))
    ga, gb = grads_of(lambda x, y: ad.reduce_sum(ad.add(x, y)), a, b)
    assert ga.shape == a.shape
    assert gb.shape == b.shape
    assert np.array_equal(gb, np.full(4, 6.0))


def test_select_and_stack_roundtrip_grads():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((4, 5))

    def build(t):
        s = ad.select(t, 1, axis=0)
        return ad.reduce_sum(ad.mul(s, Tensor(w)))

    (g,) = grads_of(build, x)
    expected = np.zeros_like(x)
    expected[1] = w
    assert np.array_equal(g, expected)

    parts = [Tensor(rng.standard_normal((2, 2)), requires_grad=True) for _ in range(3)]
    stacked = ad.stack(parts, axis=1)
    assert stacked.shape == (2, 3, 2)
    ad.backward(ad.reduce_sum(stacked))
    for p in parts:
        assert np.array_equal(p.grad, np.ones((2, 2)))


def test_backward_releases_op_grads_and_keeps_leaf_grads():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    hidden = ad.tanh(ad.mul(x, w))
    loss = ad.reduce_sum(ad.scalar_affine(hidden, 2.0, 1.0))
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
            h = ad.tanh(h) if i % 2 else ad.scalar_affine(h, 0.5, 0.1)
        loss = ad.reduce_sum(h)
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


def test_detach_copies_the_value():
    t = Tensor(np.arange(4.0), requires_grad=True)
    d = t.detach()
    assert not d.requires_grad
    assert not np.shares_memory(d.data, t.data)
    assert np.array_equal(d.data, t.data)
