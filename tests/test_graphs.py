import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import graphs
from flowcast.autodiff import Tensor
from flowcast.errors import InvalidGraphError

from oracles import cheb_polynomial, finite_diff_grad, sgcn_loop, softmax_rows


def make_bank(n=3, steps=4, d=2, seed=0):
    return graphs.EmbeddingBank.create(n, steps, d, np.random.default_rng(seed))


# -- sequence-aware graphs ------------------------------------------------------


def test_identical_rows_give_uniform_matrix():
    bank = make_bank(n=3, steps=2, d=2, seed=1)
    bank.node.data[:] = np.array([[0.3, -0.7]] * 3)
    bank.position.data[:] = 0.0
    bundle = graphs.build_sequence_graphs(bank, order=1)
    assert np.allclose(bundle.laplacians.data, 1.0 / 3.0, atol=1e-12)


def test_uniform_matrix_t2_is_antidiagonal():
    # T_2(L) = 2 L^2 - I at the uniform 2x2 matrix
    lap = Tensor(np.full((1, 2, 2), 0.5))
    stack = graphs._cheb_stack(lap, order=2)
    assert np.allclose(stack.data[2, 0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_distinct_position_embeddings_give_distinct_graphs():
    for seed in range(5):
        bank = make_bank(n=4, steps=3, d=3, seed=seed)
        bundle = graphs.build_sequence_graphs(bank, order=1)
        lap = bundle.laplacians.data
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(lap[i] - lap[j]).max() > 0


def test_sequence_rows_are_stochastic():
    bank = make_bank(n=5, steps=4, d=3, seed=9)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    sums = bundle.laplacians.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_sequence_graphs_differentiable_wrt_bank():
    bank = make_bank(n=3, steps=2, d=2, seed=5)
    weight = np.random.default_rng(0).standard_normal((2, 3, 3))

    bundle = graphs.build_sequence_graphs(bank, order=1)
    loss = ad.reduce_sum(ad.mul(bundle.laplacians, Tensor(weight)))
    ad.backward(loss)

    def loss_value():
        e_all = bank.node.data + bank.position.data
        mu = e_all.mean(axis=-1, keepdims=True)
        var = ((e_all - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (e_all - mu) / np.sqrt(var + graphs.LN_EPS)
        e = bank.ln_gamma.data * xhat + bank.ln_beta.data
        total = 0.0
        for t in range(2):
            total += float((softmax_rows(e[t] @ e[t].T) * weight[t]).sum())
        return total

    for p in (bank.node, bank.position, bank.ln_gamma, bank.ln_beta):
        fd = finite_diff_grad(loss_value, p.data)
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-6


# -- adaptive graphs ------------------------------------------------------------


def test_adaptive_mode_has_one_graph():
    bank = make_bank(n=4, steps=5, d=3, seed=2)
    bundle = graphs.build_adaptive_graph(bank.node, order=1)
    assert bundle.laplacians.shape == (4, 4)
    assert bundle.cheb.shape == (2, 4, 4)
    assert bundle.node_features is None
    assert np.array_equal(bundle.cheb.data[1], bundle.laplacians.data)


def test_adaptive_identical_rows_uniform():
    node = Tensor(np.tile([[1.0, 2.0]], (4, 1)), requires_grad=True)
    bundle = graphs.build_adaptive_graph(node, order=1)
    assert np.allclose(bundle.laplacians.data, 0.25, atol=1e-12)


def test_adaptive_rows_sum_to_one():
    bank = make_bank(n=6, steps=3, d=4, seed=3)
    bundle = graphs.build_adaptive_graph(bank.node, order=2)
    assert np.abs(bundle.laplacians.data.sum(axis=-1) - 1.0).max() < 1e-9


# -- static graphs ---------------------------------------------------------------


def test_static_complete_graph_k2():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = graphs.normalized_laplacian(adjacency)
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    lam = graphs.spectral_bound(lap)
    assert abs(lam - 2.0) < 1e-9
    bundle = graphs.build_static_graph(adjacency, order=1)
    assert np.allclose(bundle.laplacians.data, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)


def test_static_isolated_node_rejected():
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    with pytest.raises(InvalidGraphError):
        graphs.build_static_graph(adjacency, order=1)


def test_static_asymmetric_rejected():
    adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidGraphError):
        graphs.build_static_graph(adjacency, order=1)


def test_static_scaled_laplacian_symmetric():
    rng = np.random.default_rng(4)
    raw = rng.random((6, 6))
    adjacency = (raw + raw.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    bundle = graphs.build_static_graph(adjacency, order=1)
    lap = bundle.laplacians.data
    assert np.abs(lap - lap.T).max() < 1e-12


def test_spectral_bound_matches_eigvalsh():
    rng = np.random.default_rng(8)
    for _ in range(5):
        raw = rng.random((5, 5))
        adjacency = (raw + raw.T) / 2
        np.fill_diagonal(adjacency, 0.0)
        lap = graphs.normalized_laplacian(adjacency)
        assert abs(graphs.spectral_bound(lap) - np.linalg.eigvalsh(lap).max()) < 1e-8


# -- Chebyshev stack --------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cheb_recurrence_invariant(order):
    bank = make_bank(n=4, steps=3, d=3, seed=order)
    bundle = graphs.build_sequence_graphs(bank, order=order)
    cheb = bundle.cheb.data
    lap = bundle.laplacians.data
    for t in range(3):
        assert np.array_equal(cheb[0, t], np.eye(4))
        assert np.array_equal(cheb[1, t], lap[t])
        for k in range(1, order):
            expected = 2.0 * lap[t] @ cheb[k, t] - cheb[k - 1, t]
            assert np.abs(cheb[k + 1, t] - expected).max() < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cheb_stack_matches_matrix_power_oracle(order):
    rng = np.random.default_rng(100 + order)
    for n in (2, 4, 6):
        scores = rng.standard_normal((2, n, n))
        lap = Tensor(softmax_rows(scores.reshape(-1, n)).reshape(2, n, n))
        stack = graphs._cheb_stack(lap, order)
        for k in range(order + 1):
            for t in range(2):
                assert np.abs(stack.data[k, t] - cheb_polynomial(lap.data[t], k)).max() < 1e-10


# -- convolution -------------------------------------------------------------------


def test_bundle_at_returns_the_shared_graph_outside_sequence_mode():
    adjacency = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    bank = graphs.EmbeddingBank.create(3, 4, 2, np.random.default_rng(9), with_positions=False)
    for bundle in (graphs.build_static_graph(adjacency, order=2),
                   graphs.build_adaptive_graph(bank.node, order=2)):
        assert bundle.laplacians.shape == (3, 3)
        for t in range(4):
            cheb_t, e_t = bundle.at(t, bank)
            assert cheb_t is bundle.cheb and cheb_t.shape == (3, 3, 3)
            assert e_t is bank.node


def test_bundle_at_selects_step_t_in_sequence_mode():
    bank = make_bank(n=3, steps=4, d=2, seed=10)
    bundle = graphs.build_sequence_graphs(bank, order=2)
    for t in range(4):
        cheb_t, e_t = bundle.at(t, bank)
        assert np.array_equal(cheb_t.data, bundle.cheb.data[:, t])
        assert np.array_equal(e_t.data, bundle.node_features.data[t])


def make_sgcn(n=2, d=2, order=1, c_in=1, c_out=1, seed=0):
    rng = np.random.default_rng(seed)
    return graphs.SGCNParams.create(d, order, c_in, c_out, rng)


def test_sgcn_zero_input_zero_bias():
    bank = make_bank(n=2, steps=2, d=2, seed=6)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    params = make_sgcn(seed=6)
    params.bias_pool.data[:] = 0.0
    out = graphs.sgcn_forward(Tensor(np.zeros((3, 2, 1))), *bundle.at(0, bank), params)
    assert np.array_equal(out.data, np.zeros((3, 2, 1)))


def test_sgcn_bias_only_path():
    bank = make_bank(n=2, steps=2, d=2, seed=7)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    params = make_sgcn(seed=7)
    out = graphs.sgcn_forward(Tensor(np.zeros((4, 2, 1))), *bundle.at(1, bank), params)
    e_t = bundle.node_features.data[1]
    expected = e_t @ params.bias_pool.data
    for b in range(4):
        assert np.allclose(out.data[b], expected, atol=1e-12)


def test_sgcn_matches_loop_oracle():
    rng = np.random.default_rng(21)
    bank = make_bank(n=2, steps=3, d=2, seed=21)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    params = make_sgcn(n=2, d=2, order=1, c_in=1, c_out=1, seed=21)
    x = rng.standard_normal((2, 2, 1))
    out = graphs.sgcn_forward(Tensor(x), *bundle.at(2, bank), params)
    expected = sgcn_loop(x, bundle.cheb.data[:, 2], bundle.node_features.data[2],
                         params.weight_pool.data, params.bias_pool.data)
    assert np.abs(out.data - expected).max() < 1e-12


def _graph_bundle(mode, bank, order):
    """The bundle of a graph mode; static mode reads a ring adjacency."""
    if mode == "static":
        ring = np.roll(np.eye(bank.node.shape[0]), 1, axis=1)
        return graphs.build_static_graph(ring + ring.T, order)
    if mode == "adaptive":
        return graphs.build_adaptive_graph(bank.node, order)
    return graphs.build_sequence_graphs(bank, order)


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [2, 3])
def test_sgcn_matches_loop_oracle_at_higher_order(mode, order):
    # B=3, N=5, C_in=3, C_out=4, against Chebyshev terms from matrix powers
    rng = np.random.default_rng(60 + order)
    bank = make_bank(n=5, steps=3, d=2, seed=61)
    bundle = _graph_bundle(mode, bank, order)
    params = make_sgcn(d=2, order=order, c_in=3, c_out=4, seed=62)
    x = rng.standard_normal((3, 5, 3))
    for t in range(3):
        cheb_t, e_t = bundle.at(t, bank)
        lap = bundle.laplacians.data[t] if mode == "sequence_aware" else bundle.laplacians.data
        terms = np.stack([cheb_polynomial(lap, k) for k in range(order + 1)])
        out = graphs.sgcn_forward(Tensor(x), cheb_t, e_t, params)
        expected = sgcn_loop(x, terms, e_t.data, params.weight_pool.data, params.bias_pool.data)
        assert np.abs(out.data - expected).max() < 1e-12


def test_sgcn_time_index_out_of_range():
    bank = make_bank(n=2, steps=2, d=2, seed=8)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    with pytest.raises(IndexError):
        bundle.at(2, bank)


def test_sgcn_static_mode_uses_node_embedding():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    bundle = graphs.build_static_graph(adjacency, order=1)
    bank = graphs.EmbeddingBank.create(2, 2, 2, np.random.default_rng(5), with_positions=False)
    params = make_sgcn(seed=5)
    out = graphs.sgcn_forward(Tensor(np.zeros((1, 2, 1))), *bundle.at(0, bank), params)
    expected = bank.node.data @ params.bias_pool.data
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_sgcn_gradients_vs_finite_differences():
    rng = np.random.default_rng(33)
    bank = make_bank(n=3, steps=2, d=2, seed=33)
    params = make_sgcn(n=3, d=2, order=1, c_in=2, c_out=2, seed=34)
    x = rng.standard_normal((2, 3, 2))
    weight = rng.standard_normal((2, 3, 2))

    bundle = graphs.build_sequence_graphs(bank, order=1)
    out = graphs.sgcn_forward(Tensor(x), *bundle.at(1, bank), params)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(weight))))

    def loss_value():
        e_all = bank.node.data + bank.position.data
        mu = e_all.mean(axis=-1, keepdims=True)
        var = ((e_all - mu) ** 2).mean(axis=-1, keepdims=True)
        e = bank.ln_gamma.data * ((e_all - mu) / np.sqrt(var + graphs.LN_EPS)) + bank.ln_beta.data
        lap = softmax_rows(e[1] @ e[1].T)
        cheb_t = np.stack([np.eye(3), lap])
        z = sgcn_loop(x, cheb_t, e[1], params.weight_pool.data, params.bias_pool.data)
        return float((z * weight).sum())

    for p in (bank.node, bank.position, params.weight_pool, params.bias_pool):
        fd = finite_diff_grad(loss_value, p.data)
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4


def test_sgcn_permutation_equivariance():
    rng = np.random.default_rng(55)
    n = 4
    bank = make_bank(n=n, steps=2, d=3, seed=55)
    params = make_sgcn(n=n, d=3, order=1, c_in=2, c_out=3, seed=56)
    x = rng.standard_normal((2, n, 2))
    perm = rng.permutation(n)

    bundle = graphs.build_sequence_graphs(bank, order=1)
    base = graphs.sgcn_forward(Tensor(x), *bundle.at(0, bank), params).data

    bank_p = graphs.EmbeddingBank(
        Tensor(bank.node.data[perm]), bank.position, bank.ln_gamma, bank.ln_beta
    )
    bundle_p = graphs.build_sequence_graphs(bank_p, order=1)
    permuted = graphs.sgcn_forward(Tensor(x[:, perm]), *bundle_p.at(0, bank_p), params).data
    assert np.abs(permuted - base[:, perm]).max() < 1e-10
