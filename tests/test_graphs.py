import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import graphs, recurrent
from flowcast.autodiff import Tensor
from flowcast.errors import InvalidGraphError

from oracles import (cheb_polynomial, finite_diff_grad, scalar_affine, sgcn_loop,
                     softmax_rows, sub, weighted_sum)


def make_bank(n=3, steps=4, d=2, seed=0):
    return graphs.EmbeddingBank.create(n, steps, d, np.random.default_rng(seed))


def cheb_matrices(lap, order):
    """T_0(L) .. T_order(L) of lap [N, N] as [K+1, N, N]: the terms
    graphs.cheb_recurrence gives for the identity signal."""
    n = lap.shape[0]
    flat = np.empty((n, order + 1, n))
    flat[:, 0] = np.eye(n)
    graphs.cheb_recurrence(lap, flat)
    return flat.transpose(1, 0, 2)


# -- sequence-aware graphs ------------------------------------------------------


def test_identical_rows_give_uniform_matrix():
    bank = make_bank(n=3, steps=2, d=2, seed=1)
    bank.node.data[:] = np.array([[0.3, -0.7]] * 3)
    bank.position.data[:] = 0.0
    bundle = graphs.build_sequence_graphs(bank)
    assert np.allclose(bundle.laplacians.data, 1.0 / 3.0, atol=1e-12)


def test_uniform_matrix_t2_is_antidiagonal():
    # T_2(L) = 2 L^2 - I at the uniform 2x2 matrix
    t2 = cheb_matrices(np.full((2, 2), 0.5), 2)[2]
    assert np.allclose(t2, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_distinct_position_embeddings_give_distinct_graphs():
    for seed in range(5):
        bank = make_bank(n=4, steps=3, d=3, seed=seed)
        bundle = graphs.build_sequence_graphs(bank)
        lap = bundle.laplacians.data
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(lap[i] - lap[j]).max() > 0


def test_sequence_rows_are_stochastic():
    bank = make_bank(n=5, steps=4, d=3, seed=9)
    bundle = graphs.build_sequence_graphs(bank)
    sums = bundle.laplacians.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_sequence_graphs_differentiable_wrt_bank():
    bank = make_bank(n=3, steps=2, d=2, seed=5)
    weight = np.random.default_rng(0).standard_normal((2, 3, 3))

    bundle = graphs.build_sequence_graphs(bank)
    loss = weighted_sum(bundle.laplacians, weight)
    ad.backward(loss)

    def loss_value():
        e_all = bank.node.data + bank.position.data
        mu = e_all.mean(axis=-1, keepdims=True)
        var = ((e_all - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (e_all - mu) / np.sqrt(var + ad.LN_EPS)
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
    bundle = graphs.build_adaptive_graph(bank.node)
    assert bundle.laplacians.shape == (4, 4)
    assert bundle.node_features is None
    cheb = cheb_matrices(bundle.laplacians.data, 1)
    for k in range(2):
        assert np.array_equal(cheb[k], cheb_polynomial(bundle.laplacians.data, k))


def test_adaptive_identical_rows_uniform():
    node = Tensor(np.tile([[1.0, 2.0]], (4, 1)), requires_grad=True)
    bundle = graphs.build_adaptive_graph(node)
    assert np.allclose(bundle.laplacians.data, 0.25, atol=1e-12)


def test_adaptive_rows_sum_to_one():
    bank = make_bank(n=6, steps=3, d=4, seed=3)
    bundle = graphs.build_adaptive_graph(bank.node)
    assert np.abs(bundle.laplacians.data.sum(axis=-1) - 1.0).max() < 1e-9


# -- static graphs ---------------------------------------------------------------


def test_static_complete_graph_k2():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = graphs.normalized_laplacian(adjacency)
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    lam = graphs.spectral_bound(lap)
    assert abs(lam - 2.0) < 1e-9
    bundle = graphs.build_static_graph(adjacency)
    assert np.allclose(bundle.laplacians.data, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)


def test_static_isolated_node_rejected():
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    with pytest.raises(InvalidGraphError):
        graphs.build_static_graph(adjacency)


def test_static_asymmetric_rejected():
    adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidGraphError):
        graphs.build_static_graph(adjacency)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_static_non_finite_rejected(bad):
    adjacency = np.ones((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = bad
    with pytest.raises(InvalidGraphError, match="finite"):
        graphs.build_static_graph(adjacency)


def test_static_scaled_laplacian_symmetric():
    rng = np.random.default_rng(4)
    raw = rng.random((6, 6))
    adjacency = (raw + raw.T) / 2
    np.fill_diagonal(adjacency, 0.0)
    bundle = graphs.build_static_graph(adjacency)
    lap = bundle.laplacians.data
    assert np.abs(lap - lap.T).max() < 1e-12


def test_spectral_bound_of_an_even_ring_is_two():
    # the normalized Laplacian of an n-ring has eigenvalues 1 - cos(2 pi j / n),
    # so an even ring (bipartite) has lambda_max exactly 2
    for n in (4, 6, 10, 100):
        adjacency = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
        lam = graphs.spectral_bound(graphs.normalized_laplacian(adjacency))
        assert abs(lam - 2.0) < 1e-12, n


# -- Chebyshev terms --------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cheb_recurrence_invariant(order):
    bank = make_bank(n=4, steps=3, d=3, seed=order)
    bundle = graphs.build_sequence_graphs(bank)
    for lap in bundle.laplacians.data:
        cheb = cheb_matrices(lap, order)
        assert np.array_equal(cheb[0], np.eye(4))
        assert np.array_equal(cheb[1], lap)
        for k in range(1, order):
            expected = 2.0 * lap @ cheb[k] - cheb[k - 1]
            assert np.abs(cheb[k + 1] - expected).max() < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cheb_stack_matches_matrix_power_oracle(order):
    rng = np.random.default_rng(100 + order)
    for n in (2, 4, 6):
        scores = rng.standard_normal((2, n, n))
        for lap in softmax_rows(scores.reshape(-1, n)).reshape(2, n, n):
            cheb = cheb_matrices(lap, order)
            for k in range(order + 1):
                assert np.abs(cheb[k] - cheb_polynomial(lap, k)).max() < 1e-10


# -- Chebyshev propagation ----------------------------------------------------------


def _propagate(lap, x, order):
    """graphs.cheb_recurrence and its adjoint as one tape op: the terms
    [N, K+1, M] of the signal x [N, M] on the graph lap [N, N]."""
    n, m = x.shape
    flat = np.empty((n, order + 1, m))
    flat[:, 0] = x.data
    lap2 = graphs.cheb_recurrence(lap.data, flat)

    def back(g):
        g_x = graphs.cheb_recurrence_adjoint(lap, lap2, flat, g, x.requires_grad)
        if x.requires_grad:
            ad._accum(x, g_x)

    return ad._record(Tensor(flat), (lap, x), back)


def _propagate_by_matrices(lap, x, order):
    """The same terms as products of x with the matrices T_k(L), built by the
    matrix recurrence from matmul, scalar_affine and sub tape ops and joined
    by concat."""
    mats = [Tensor(np.eye(lap.shape[0])), lap]
    for _ in range(2, order + 1):
        mats.append(sub(scalar_affine(ad.matmul(lap, mats[-1]), 2.0, 0.0), mats[-2]))
    n, m = x.shape
    return ad.concat([ad.reshape(ad.matmul(t, x), (n, 1, m)) for t in mats[: order + 1]], axis=1)


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_propagate_matches_matrix_power_terms(mode, order):
    # B=2, N=5, C=3 in the GRU ops' [N, K+1, C, B] layout: T_k(L) x from
    # explicit matrix powers, every step's graph
    rng = np.random.default_rng(70 + order)
    bank = make_bank(n=5, steps=3, d=2, seed=71)
    bundle = _graph_bundle(mode, bank)
    x = rng.standard_normal((2, 5, 3))
    for t in range(3):
        lap_t, _ = bundle.at(t, bank)
        terms = np.empty((5, order + 1, 3, 2))
        terms[:, 0] = x.transpose(1, 2, 0)
        graphs.cheb_recurrence(lap_t.data, terms.reshape(5, order + 1, 6))
        for k in range(order + 1):
            term = cheb_polynomial(lap_t.data, k)
            for b in range(2):
                assert np.abs(terms[:, k, :, b] - term @ x[b]).max() < 1e-12


@pytest.mark.parametrize("grads", [(True, True), (True, False), (False, True)],
                         ids=["lap_and_x", "lap_only", "x_only"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_propagate_gradients_match_matrix_stack_and_finite_differences(order, grads):
    rng = np.random.default_rng(80 + order)
    lap_data = softmax_rows(rng.standard_normal((4, 4)))
    x_data = rng.standard_normal((4, 6))
    weight = rng.standard_normal((4, order + 1, 6))

    def grads_of(propagate):
        lap = Tensor(lap_data.copy(), requires_grad=grads[0])
        x = Tensor(x_data.copy(), requires_grad=grads[1])
        ad.backward(weighted_sum(propagate(lap, x), weight))
        return lap.grad, x.grad

    got = grads_of(lambda lap, x: _propagate(lap, x, order))
    ref = grads_of(lambda lap, x: _propagate_by_matrices(lap, x, order))

    def loss_value():
        return float((_propagate(Tensor(lap_data), Tensor(x_data), order).data * weight).sum())

    for wanted, g, r, array in zip(grads, got, ref, (lap_data, x_data)):
        if not wanted:
            assert g is None
            continue
        assert np.abs(g - r).max() < 1e-12 * np.abs(r).max()
        fd = finite_diff_grad(loss_value, array)
        assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-4


# -- convolution -------------------------------------------------------------------


def test_bundle_at_returns_the_shared_graph_outside_sequence_mode():
    adjacency = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    bank = graphs.EmbeddingBank.create(3, 4, 2, np.random.default_rng(9), with_positions=False)
    for bundle in (graphs.build_static_graph(adjacency),
                   graphs.build_adaptive_graph(bank.node)):
        assert bundle.laplacians.shape == (3, 3)
        for t in range(4):
            lap_t, e_t = bundle.at(t, bank)
            assert lap_t is bundle.laplacians
            assert e_t is bank.node


def test_bundle_at_selects_step_t_in_sequence_mode():
    bank = make_bank(n=3, steps=4, d=2, seed=10)
    bundle = graphs.build_sequence_graphs(bank)
    for t in range(4):
        lap_t, e_t = bundle.at(t, bank)
        assert np.array_equal(lap_t.data, bundle.laplacians.data[t])
        assert np.array_equal(e_t.data, bundle.node_features.data[t])


def make_sgcn(n=2, d=2, order=1, c_in=1, c_out=1, seed=0):
    rng = np.random.default_rng(seed)
    return graphs.SGCNParams.create(d, order, c_in, c_out, rng)


def conv(x, lap_t, e_t, params):
    """The model's graph convolution of x [B, N, C_in] with the node weights
    of params at e_t [N, d_e], as [B, N, C_out]: recurrent.candidate_op with
    an empty state (d_h = 0), so that its input [x_t, r h] is x_t."""
    b, n, _ = x.shape
    empty = Tensor(np.zeros((n, 0, b)))
    out = recurrent.candidate_op(ad.transpose(x, (1, 2, 0)), empty, empty, lap_t, e_t, params,
                                 recurrent.terms_buffer(params, n, b))
    return ad.transpose(out, (2, 0, 1))


def test_sgcn_zero_input_zero_bias():
    bank = make_bank(n=2, steps=2, d=2, seed=6)
    bundle = graphs.build_sequence_graphs(bank)
    params = make_sgcn(seed=6)
    params.bias_pool.data[:] = 0.0
    out = conv(Tensor(np.zeros((3, 2, 1))), *bundle.at(0, bank), params)
    assert np.array_equal(out.data, np.zeros((3, 2, 1)))


def test_sgcn_bias_only_path():
    bank = make_bank(n=2, steps=2, d=2, seed=7)
    bundle = graphs.build_sequence_graphs(bank)
    params = make_sgcn(seed=7)
    out = conv(Tensor(np.zeros((4, 2, 1))), *bundle.at(1, bank), params)
    e_t = bundle.node_features.data[1]
    expected = e_t @ params.bias_pool.data
    for b in range(4):
        assert np.allclose(out.data[b], expected, atol=1e-12)


def test_sgcn_matches_loop_oracle():
    rng = np.random.default_rng(21)
    bank = make_bank(n=2, steps=3, d=2, seed=21)
    bundle = graphs.build_sequence_graphs(bank)
    params = make_sgcn(n=2, d=2, order=1, c_in=1, c_out=1, seed=21)
    x = rng.standard_normal((2, 2, 1))
    out = conv(Tensor(x), *bundle.at(2, bank), params)
    terms = np.stack([cheb_polynomial(bundle.laplacians.data[2], k) for k in range(2)])
    expected = sgcn_loop(x, terms, bundle.node_features.data[2],
                         params.weight_pool.data, params.bias_pool.data)
    assert np.abs(out.data - expected).max() < 1e-12


def _graph_bundle(mode, bank):
    """The bundle of a graph mode; static mode reads a ring adjacency."""
    if mode == "static":
        ring = np.roll(np.eye(bank.node.shape[0]), 1, axis=1)
        return graphs.build_static_graph(ring + ring.T)
    if mode == "adaptive":
        return graphs.build_adaptive_graph(bank.node)
    return graphs.build_sequence_graphs(bank)


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [2, 3])
def test_sgcn_matches_loop_oracle_at_higher_order(mode, order):
    # B=3, N=5, C_in=3, C_out=4, against Chebyshev terms from matrix powers
    rng = np.random.default_rng(60 + order)
    bank = make_bank(n=5, steps=3, d=2, seed=61)
    bundle = _graph_bundle(mode, bank)
    params = make_sgcn(d=2, order=order, c_in=3, c_out=4, seed=62)
    x = rng.standard_normal((3, 5, 3))
    for t in range(3):
        lap_t, e_t = bundle.at(t, bank)
        lap = bundle.laplacians.data[t] if mode == "sequence_aware" else bundle.laplacians.data
        terms = np.stack([cheb_polynomial(lap, k) for k in range(order + 1)])
        out = conv(Tensor(x), lap_t, e_t, params)
        expected = sgcn_loop(x, terms, e_t.data, params.weight_pool.data, params.bias_pool.data)
        assert np.abs(out.data - expected).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_node_weights_and_convolve_match_einsum_references(order):
    # The op's two contractions, e @ weight_pool (built inside the op and
    # rebuilt in its backward) and the per-node mix of the Chebyshev terms,
    # with two gates' pools concatenated along their outputs as gate_op's z
    # and r are. Forward and the gradients of x, L, both pools and e against
    # np.einsum and the adjoints of the matrix recurrence; x is a
    # non-contiguous view.
    rng = np.random.default_rng(90 + order)
    b, n, c_in, c_out, d = 3, 5, 2, 4, 3
    x_data = rng.standard_normal((c_in, n, b)).T                   # [B, N, C_in], a view
    lap_data = softmax_rows(rng.standard_normal((n, n)))
    e_data = rng.standard_normal((n, d))
    upstream = rng.standard_normal((2, b, n, c_out))
    x = Tensor(x_data, requires_grad=True)
    lap = Tensor(lap_data, requires_grad=True)
    e = Tensor(e_data, requires_grad=True)
    gates = [make_sgcn(d=d, order=order, c_in=c_in, c_out=c_out, seed=91 + g) for g in range(2)]
    both = graphs.SGCNParams(ad.concat([gate.weight_pool for gate in gates], axis=-1),
                             ad.concat([gate.bias_pool for gate in gates], axis=-1))
    out = conv(x, lap, e, both)
    ad.backward(weighted_sum(out, np.concatenate(upstream, axis=-1)))
    outs = (out.data[..., :c_out], out.data[..., c_out:])

    cheb = np.stack([cheb_polynomial(lap_data, k) for k in range(order + 1)])
    terms = np.einsum("knm,bmi->nkib", cheb, x_data)
    g_terms = np.zeros_like(terms)
    g_e = np.zeros_like(e_data)
    for gate, out, g in zip(gates, outs, upstream):
        pool, bias_pool = gate.weight_pool.data, gate.bias_pool.data
        theta = np.einsum("nd,dkio->nkio", e_data, pool)
        expected = np.einsum("nkib,nkio->bno", terms, theta) + e_data @ bias_pool
        assert np.abs(out - expected).max() < 1e-12 * np.abs(expected).max()
        g_theta = np.einsum("nkib,bno->nkio", terms, g)
        g_terms += np.einsum("nkio,bno->nkib", theta, g)
        g_e += np.einsum("nkio,dkio->nd", g_theta, pool) + np.einsum("bno,do->nd", g, bias_pool)
        for got, want in ((gate.weight_pool.grad, np.einsum("nd,nkio->dkio", e_data, g_theta)),
                          (gate.bias_pool.grad, np.einsum("nd,bno->do", e_data, g))):
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    # adjoints of the matrix recurrence T_k = 2 L T_{k-1} - T_{k-2}, top down
    adj = list(np.einsum("nkib,bmi->knm", g_terms, x_data))
    g_lap = np.zeros_like(lap_data)
    for k in range(order, 1, -1):
        g_lap += 2.0 * adj[k] @ cheb[k - 1].T
        adj[k - 1] = adj[k - 1] + 2.0 * lap_data.T @ adj[k]
        adj[k - 2] = adj[k - 2] - adj[k]
    g_lap += adj[1]
    for got, want in ((x.grad, np.einsum("knm,nkib->bmi", cheb, g_terms)),
                      (lap.grad, g_lap), (e.grad, g_e)):
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_sgcn_time_index_out_of_range():
    bank = make_bank(n=2, steps=2, d=2, seed=8)
    bundle = graphs.build_sequence_graphs(bank)
    with pytest.raises(IndexError):
        bundle.at(2, bank)


def test_sgcn_static_mode_uses_node_embedding():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    bundle = graphs.build_static_graph(adjacency)
    bank = graphs.EmbeddingBank.create(2, 2, 2, np.random.default_rng(5), with_positions=False)
    params = make_sgcn(seed=5)
    out = conv(Tensor(np.zeros((1, 2, 1))), *bundle.at(0, bank), params)
    expected = bank.node.data @ params.bias_pool.data
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_sgcn_permutation_equivariance():
    rng = np.random.default_rng(55)
    n = 4
    bank = make_bank(n=n, steps=2, d=3, seed=55)
    params = make_sgcn(n=n, d=3, order=1, c_in=2, c_out=3, seed=56)
    x = rng.standard_normal((2, n, 2))
    perm = rng.permutation(n)

    bundle = graphs.build_sequence_graphs(bank)
    base = conv(Tensor(x), *bundle.at(0, bank), params).data

    bank_p = graphs.EmbeddingBank(
        Tensor(bank.node.data[perm]), bank.position, bank.ln_gamma, bank.ln_beta
    )
    bundle_p = graphs.build_sequence_graphs(bank_p)
    permuted = conv(Tensor(x[:, perm]), *bundle_p.at(0, bank_p), params).data
    assert np.abs(permuted - base[:, perm]).max() < 1e-10
