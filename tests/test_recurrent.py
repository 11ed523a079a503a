import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import graphs, recurrent
from flowcast.autodiff import Tensor

from oracles import cheb_polynomial, finite_diff_grad, gru_step_loop, sgcn_loop, softmax_rows


def setup_cell(n=2, steps=3, d=2, d_h=2, c=1, seed=0):
    rng = np.random.default_rng(seed)
    bank = graphs.EmbeddingBank.create(n, steps, d, rng)
    cell = recurrent.GruCellParams.create(c, d_h, d, 1, rng)
    bundle = graphs.build_sequence_graphs(bank, order=1)
    return bank, cell, bundle


def zero_cell(cell):
    for gate in (cell.update, cell.reset, cell.candidate):
        gate.weight_pool.data[:] = 0.0
        gate.bias_pool.data[:] = 0.0


def test_all_zero_step_stays_zero():
    bank, cell, bundle = setup_cell(seed=1)
    zero_cell(cell)
    h = recurrent.gru_cell_step(
        Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((2, 2, 2))), cell, bundle, bank, t=0
    )
    assert np.array_equal(h.data, np.zeros((2, 2, 2)))


def test_zero_params_halve_previous_state():
    # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0
    bank, cell, bundle = setup_cell(seed=2)
    zero_cell(cell)
    h_prev = np.random.default_rng(3).standard_normal((2, 2, 2))
    h = recurrent.gru_cell_step(
        Tensor(np.zeros((2, 2, 1))), Tensor(h_prev), cell, bundle, bank, t=1
    )
    assert np.allclose(h.data, 0.5 * h_prev, atol=1e-15)


def test_cell_step_matches_loop_oracle():
    bank, cell, bundle = setup_cell(n=2, d_h=2, c=1, seed=5)
    rng = np.random.default_rng(6)
    x_t = rng.standard_normal((1, 2, 1))
    h_prev = rng.standard_normal((1, 2, 2))
    out = recurrent.gru_cell_step(Tensor(x_t), Tensor(h_prev), cell, bundle, bank, t=0)
    pools = {
        "update": (cell.update.weight_pool.data, cell.update.bias_pool.data),
        "reset": (cell.reset.weight_pool.data, cell.reset.bias_pool.data),
        "candidate": (cell.candidate.weight_pool.data, cell.candidate.bias_pool.data),
    }
    expected = gru_step_loop(x_t, h_prev, bundle.cheb.data[:, 0],
                             bundle.node_features.data[0], pools)
    assert np.abs(out.data - expected).max() < 1e-12


def test_single_step_sequence_equals_cell_step():
    bank, cell, bundle = setup_cell(steps=1, seed=7)
    x = np.random.default_rng(8).standard_normal((2, 1, 2, 1))
    h_seq = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    h_one = recurrent.gru_cell_step(
        Tensor(x[:, 0]), Tensor(np.zeros((2, 2, 2))), cell, bundle, bank, t=0
    )
    assert np.array_equal(h_seq.data[:, :, 0], h_one.data)


def test_zero_input_zero_params_zero_sequence():
    bank, cell, bundle = setup_cell(seed=9)
    zero_cell(cell)
    h = recurrent.encode_sequence(Tensor(np.zeros((2, 3, 2, 1))), cell, bundle, bank)
    assert np.array_equal(h.data, np.zeros((2, 2, 3, 2)))


def test_encode_matches_manual_iteration_bit_exact():
    bank, cell, bundle = setup_cell(seed=10)
    x = np.random.default_rng(11).standard_normal((2, 3, 2, 1))
    h_seq = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    h = Tensor(np.zeros((2, 2, 2)))
    for t in range(3):
        h = recurrent.gru_cell_step(Tensor(x[:, t]), h, cell, bundle, bank, t)
        assert np.array_equal(h_seq.data[:, :, t], h.data)


def test_hidden_values_stay_in_unit_interval():
    bank, cell, bundle = setup_cell(seed=12)
    x = np.random.default_rng(13).standard_normal((4, 3, 2, 1)) * 5
    h = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    assert h.data.max() < 1.0 and h.data.min() > -1.0


def test_convex_combination_bound():
    bank, cell, bundle = setup_cell(seed=14)
    rng = np.random.default_rng(15)
    h_prev = rng.standard_normal((2, 2, 2)) * 2
    x_t = rng.standard_normal((2, 2, 1))

    joint = np.concatenate([x_t, h_prev], axis=-1)
    pools = {
        "update": (cell.update.weight_pool.data, cell.update.bias_pool.data),
        "reset": (cell.reset.weight_pool.data, cell.reset.bias_pool.data),
        "candidate": (cell.candidate.weight_pool.data, cell.candidate.bias_pool.data),
    }
    cheb_t = bundle.cheb.data[:, 0]
    e_t = bundle.node_features.data[0]
    r = 1.0 / (1.0 + np.exp(-sgcn_loop(joint, cheb_t, e_t, *pools["reset"])))
    cand = np.tanh(sgcn_loop(np.concatenate([x_t, r * h_prev], axis=-1), cheb_t, e_t,
                             *pools["candidate"]))

    h = recurrent.gru_cell_step(Tensor(x_t), Tensor(h_prev), cell, bundle, bank, t=0).data
    lo = np.minimum(h_prev, cand)
    hi = np.maximum(h_prev, cand)
    assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


def test_bptt_gradients_vs_finite_differences():
    # three unrolled steps, loss = weighted sum of the stacked hidden states
    bank, cell, bundle = setup_cell(n=2, steps=3, d=2, d_h=2, seed=16)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 3, 2, 1))
    weight = rng.standard_normal((1, 2, 3, 2))

    bundle = graphs.build_sequence_graphs(bank, order=1)
    h = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    ad.backward(ad.reduce_sum(ad.mul(h, Tensor(weight))))

    pools = {
        "update": (cell.update.weight_pool.data, cell.update.bias_pool.data),
        "reset": (cell.reset.weight_pool.data, cell.reset.bias_pool.data),
        "candidate": (cell.candidate.weight_pool.data, cell.candidate.bias_pool.data),
    }

    def loss_value():
        e_all = bank.node.data + bank.position.data
        mu = e_all.mean(axis=-1, keepdims=True)
        var = ((e_all - mu) ** 2).mean(axis=-1, keepdims=True)
        e = bank.ln_gamma.data * ((e_all - mu) / np.sqrt(var + graphs.LN_EPS)) + bank.ln_beta.data
        h_prev = np.zeros((1, 2, 2))
        total = 0.0
        for t in range(3):
            lap = softmax_rows(e[t] @ e[t].T)
            cheb_t = np.stack([np.eye(2), lap])
            h_prev = gru_step_loop(x[:, t], h_prev, cheb_t, e[t], pools)
            total += float((h_prev * weight[:, :, t]).sum())
        return total

    checked = [bank.node, bank.position, cell.update.weight_pool, cell.reset.bias_pool,
               cell.candidate.weight_pool]
    for p in checked:
        fd = finite_diff_grad(loss_value, p.data)
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4


def cell_pools(cell):
    return {name: (gate.weight_pool.data, gate.bias_pool.data)
            for name, gate in (("update", cell.update), ("reset", cell.reset),
                               ("candidate", cell.candidate))}


def cheb_terms(lap, order):
    return np.stack([cheb_polynomial(lap, k) for k in range(order + 1)])


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [2, 3])
def test_encoder_and_cell_step_match_loop_oracle_at_higher_order(mode, order):
    # B=3, N=5, 3 input channels, d_h=4, T=3. Outside sequence-aware mode the
    # encoder builds the node weights once for all steps.
    rng = np.random.default_rng(70 + order)
    bank = graphs.EmbeddingBank.create(5, 3, 2, rng, with_positions=mode == "sequence_aware")
    cell = recurrent.GruCellParams.create(3, 4, 2, order, rng)
    if mode == "static":
        ring = np.roll(np.eye(5), 1, axis=1)
        bundle = graphs.build_static_graph(ring + ring.T, order)
    elif mode == "adaptive":
        bundle = graphs.build_adaptive_graph(bank.node, order)
    else:
        bundle = graphs.build_sequence_graphs(bank, order)
    x = rng.standard_normal((3, 3, 5, 3))
    encoded = recurrent.encode_sequence(Tensor(x), cell, bundle, bank).data
    h_prev = np.zeros((3, 5, 4))
    for t in range(3):
        lap = bundle.laplacians.data[t] if mode == "sequence_aware" else bundle.laplacians.data
        e_t = bank.node.data if bundle.node_features is None else bundle.node_features.data[t]
        step = recurrent.gru_cell_step(Tensor(x[:, t]), Tensor(h_prev), cell, bundle, bank, t)
        h_prev = gru_step_loop(x[:, t], h_prev, cheb_terms(lap, order), e_t, cell_pools(cell))
        assert np.abs(step.data - h_prev).max() < 1e-12
        assert np.abs(encoded[:, :, t] - h_prev).max() < 1e-12


def test_bptt_gradients_vs_finite_differences_adaptive_order_two():
    # The node weights are built once for all steps and z/r share one
    # propagation: the embedding and every gate pool must still receive the
    # gradient of every step.
    rng = np.random.default_rng(80)
    bank = graphs.EmbeddingBank.create(3, 3, 2, rng, with_positions=False)
    cell = recurrent.GruCellParams.create(1, 2, 2, 2, rng)
    x = rng.standard_normal((2, 3, 3, 1))
    weight = rng.standard_normal((2, 3, 3, 2))

    bundle = graphs.build_adaptive_graph(bank.node, order=2)
    h = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    ad.backward(ad.reduce_sum(ad.mul(h, Tensor(weight))))
    pools = cell_pools(cell)

    def loss_value():
        cheb = cheb_terms(softmax_rows(bank.node.data @ bank.node.data.T), 2)
        h_prev = np.zeros((2, 3, 2))
        total = 0.0
        for t in range(3):
            h_prev = gru_step_loop(x[:, t], h_prev, cheb, bank.node.data, pools)
            total += float((h_prev * weight[:, :, t]).sum())
        return total

    checked = [bank.node] + [p for gate in (cell.update, cell.reset, cell.candidate)
                             for p in (gate.weight_pool, gate.bias_pool)]
    for p in checked:
        fd = finite_diff_grad(loss_value, p.data)
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4
