import tracemalloc
from unittest import mock

import numpy as np
import pytest

from flowcast import attention
from flowcast import autodiff as ad
from flowcast import graphs, recurrent
from flowcast import model as md
from flowcast.autodiff import Tensor

from oracles import (cheb_polynomial, encode_composed, finite_diff_grad, gru_step_loop,
                     sgcn_loop, softmax_rows, weighted_sum)


def setup_cell(n=2, steps=3, d=2, d_h=2, c=1, seed=0):
    rng = np.random.default_rng(seed)
    bank = graphs.EmbeddingBank.create(n, steps, d, rng)
    cell = recurrent.GruCellParams.create(c, d_h, d, 1, rng)
    bundle = graphs.build_sequence_graphs(bank)
    return bank, cell, bundle


def cheb_terms(lap, order):
    return np.stack([cheb_polynomial(lap, k) for k in range(order + 1)])


def cell_step(x_t, h_prev, cell, bundle, bank, t):
    """One update of encode_sequence (recurrent._step) at step t on
    batch-first x_t [B, N, C] and h_prev [B, N, d_h]; all three gates read
    the step-t graph."""
    lap_t, e_t = bundle.at(t, bank)
    b, n, _ = x_t.shape
    h = recurrent._step(ad.transpose(x_t, (1, 2, 0)), ad.transpose(h_prev, (1, 2, 0)), lap_t,
                        e_t, cell.gate_params(), recurrent.terms_buffer(cell.candidate, n, b))
    return ad.transpose(h, (2, 0, 1))


def zero_cell(cell):
    for gate in (cell.update, cell.reset, cell.candidate):
        gate.weight_pool.data[:] = 0.0
        gate.bias_pool.data[:] = 0.0


def test_all_zero_step_stays_zero():
    bank, cell, bundle = setup_cell(seed=1)
    zero_cell(cell)
    h = cell_step(
        Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((2, 2, 2))), cell, bundle, bank, t=0
    )
    assert np.array_equal(h.data, np.zeros((2, 2, 2)))


def test_zero_params_halve_previous_state():
    # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0
    bank, cell, bundle = setup_cell(seed=2)
    zero_cell(cell)
    h_prev = np.random.default_rng(3).standard_normal((2, 2, 2))
    h = cell_step(
        Tensor(np.zeros((2, 2, 1))), Tensor(h_prev), cell, bundle, bank, t=1
    )
    assert np.allclose(h.data, 0.5 * h_prev, atol=1e-15)


def test_cell_step_matches_loop_oracle():
    bank, cell, bundle = setup_cell(n=2, d_h=2, c=1, seed=5)
    rng = np.random.default_rng(6)
    x_t = rng.standard_normal((1, 2, 1))
    h_prev = rng.standard_normal((1, 2, 2))
    out = cell_step(Tensor(x_t), Tensor(h_prev), cell, bundle, bank, t=0)
    pools = {
        "update": (cell.update.weight_pool.data, cell.update.bias_pool.data),
        "reset": (cell.reset.weight_pool.data, cell.reset.bias_pool.data),
        "candidate": (cell.candidate.weight_pool.data, cell.candidate.bias_pool.data),
    }
    expected = gru_step_loop(x_t, h_prev, cheb_terms(bundle.laplacians.data[0], 1),
                             bundle.node_features.data[0], pools)
    assert np.abs(out.data - expected).max() < 1e-12


def test_single_step_sequence_equals_cell_step():
    bank, cell, bundle = setup_cell(steps=1, seed=7)
    x = np.random.default_rng(8).standard_normal((2, 1, 2, 1))
    h_seq = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    h_one = cell_step(
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
        h = cell_step(Tensor(x[:, t]), h, cell, bundle, bank, t)
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
    cheb_t = cheb_terms(bundle.laplacians.data[0], 1)
    e_t = bundle.node_features.data[0]
    r = 1.0 / (1.0 + np.exp(-sgcn_loop(joint, cheb_t, e_t, *pools["reset"])))
    cand = np.tanh(sgcn_loop(np.concatenate([x_t, r * h_prev], axis=-1), cheb_t, e_t,
                             *pools["candidate"]))

    h = cell_step(Tensor(x_t), Tensor(h_prev), cell, bundle, bank, t=0).data
    lo = np.minimum(h_prev, cand)
    hi = np.maximum(h_prev, cand)
    assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


def test_bptt_gradients_vs_finite_differences():
    # three unrolled steps, loss = weighted sum of the stacked hidden states
    bank, cell, bundle = setup_cell(n=2, steps=3, d=2, d_h=2, seed=16)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 3, 2, 1))
    weight = rng.standard_normal((1, 2, 3, 2))

    bundle = graphs.build_sequence_graphs(bank)
    h = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    ad.backward(weighted_sum(h, weight))

    pools = {
        "update": (cell.update.weight_pool.data, cell.update.bias_pool.data),
        "reset": (cell.reset.weight_pool.data, cell.reset.bias_pool.data),
        "candidate": (cell.candidate.weight_pool.data, cell.candidate.bias_pool.data),
    }

    def loss_value():
        e_all = bank.node.data + bank.position.data
        mu = e_all.mean(axis=-1, keepdims=True)
        var = ((e_all - mu) ** 2).mean(axis=-1, keepdims=True)
        e = bank.ln_gamma.data * ((e_all - mu) / np.sqrt(var + ad.LN_EPS)) + bank.ln_beta.data
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


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [2, 3])
def test_encoder_and_cell_step_match_loop_oracle_at_higher_order(mode, order):
    # B=3, N=5, 3 input channels, d_h=4, T=3. Outside sequence-aware mode
    # every step rebuilds the shared node weights from the node embedding.
    rng = np.random.default_rng(70 + order)
    bank = graphs.EmbeddingBank.create(5, 3, 2, rng, with_positions=mode == "sequence_aware")
    cell = recurrent.GruCellParams.create(3, 4, 2, order, rng)
    if mode == "static":
        ring = np.roll(np.eye(5), 1, axis=1)
        bundle = graphs.build_static_graph(ring + ring.T)
    elif mode == "adaptive":
        bundle = graphs.build_adaptive_graph(bank.node)
    else:
        bundle = graphs.build_sequence_graphs(bank)
    x = rng.standard_normal((3, 3, 5, 3))
    encoded = recurrent.encode_sequence(Tensor(x), cell, bundle, bank).data
    h_prev = np.zeros((3, 5, 4))
    for t in range(3):
        lap = bundle.laplacians.data[t] if mode == "sequence_aware" else bundle.laplacians.data
        e_t = bank.node.data if bundle.node_features is None else bundle.node_features.data[t]
        step = cell_step(Tensor(x[:, t]), Tensor(h_prev), cell, bundle, bank, t)
        h_prev = gru_step_loop(x[:, t], h_prev, cheb_terms(lap, order), e_t, cell_pools(cell))
        assert np.abs(step.data - h_prev).max() < 1e-12
        assert np.abs(encoded[:, :, t] - h_prev).max() < 1e-12


def test_bptt_gradients_vs_finite_differences_adaptive_order_two():
    # Every step rebuilds the shared node weights from the one embedding and
    # z/r share one propagation: the embedding and every gate pool must
    # receive the gradient of every step.
    rng = np.random.default_rng(80)
    bank = graphs.EmbeddingBank.create(3, 3, 2, rng, with_positions=False)
    cell = recurrent.GruCellParams.create(1, 2, 2, 2, rng)
    x = rng.standard_normal((2, 3, 3, 1))
    weight = rng.standard_normal((2, 3, 3, 2))

    bundle = graphs.build_adaptive_graph(bank.node)
    h = recurrent.encode_sequence(Tensor(x), cell, bundle, bank)
    ad.backward(weighted_sum(h, weight))
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


# -- the fused step ops ----------------------------------------------------------


def build_bundle(mode, bank):
    if mode == "static":
        ring = np.roll(np.eye(bank.node.shape[0]), 1, axis=1)
        return graphs.build_static_graph(ring + ring.T)
    if mode == "adaptive":
        return graphs.build_adaptive_graph(bank.node)
    return graphs.build_sequence_graphs(bank)


def assert_grads_match_finite_differences(run, leaves):
    # run() gives the op output; the loss is its weighted sum
    def output():
        with ad.no_grad():
            return run().data

    weight = np.random.default_rng(99).standard_normal(output().shape)
    ad.backward(weighted_sum(run(), weight))
    loss_value = lambda: float((output() * weight).sum())

    for name, p in leaves.items():
        fd = finite_diff_grad(loss_value, p.data)
        assert p.grad is not None, name
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4, (name, rel.max())


@pytest.mark.parametrize("op", ["gate", "candidate"])
@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_conv_ops_match_finite_differences(op, mode, order):
    # Every input: x_t, h, the gate output (candidate), the pools the op
    # builds its node weights from (the gate op's z|r pools are a concat of
    # the update and reset pools, as GruCellParams.gate_params makes them),
    # and the embeddings the step-1 graph and node features e_t come from.
    # In static mode e_t is the node embedding itself.
    rng = np.random.default_rng(90 + order)
    n, c, d_h, b = 4, 2, 3, 2
    bank = graphs.EmbeddingBank.create(n, 3, 2, rng, with_positions=mode == "sequence_aware")
    cell = recurrent.GruCellParams.create(c, d_h, 2, order, rng)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    leaves = {"x_t": leaf(n, c, b), "h": leaf(n, d_h, b), "embed.node": bank.node}
    gates = (("update", cell.update), ("reset", cell.reset)) if op == "gate" else (
        ("candidate", cell.candidate),)
    for name, gate in gates:
        leaves[name + ".weight_pool"] = gate.weight_pool
        leaves[name + ".bias_pool"] = gate.bias_pool
    if mode == "sequence_aware":
        leaves.update({"embed.position": bank.position, "embed.ln_gamma": bank.ln_gamma,
                       "embed.ln_beta": bank.ln_beta})
    if op == "candidate":
        leaves["gates"] = Tensor(rng.uniform(0.05, 0.95, (n, 2 * d_h, b)), requires_grad=True)

    def run():
        lap, e_t = build_bundle(mode, bank).at(1, bank)
        zr, cand = cell.gate_params()
        terms = recurrent.terms_buffer(cand, n, b)
        if op == "gate":
            return recurrent.gate_op(leaves["x_t"], leaves["h"], lap, e_t, zr, terms)
        return recurrent.candidate_op(leaves["x_t"], leaves["h"], leaves["gates"], lap, e_t,
                                      cand, terms)

    assert_grads_match_finite_differences(run, leaves)


def test_blend_op_matches_finite_differences():
    rng = np.random.default_rng(95)
    leaves = {"gates": Tensor(rng.uniform(0.05, 0.95, (4, 6, 2)), requires_grad=True),
              "h": Tensor(rng.standard_normal((4, 3, 2)), requires_grad=True),
              "c": Tensor(np.tanh(rng.standard_normal((4, 3, 2))), requires_grad=True)}
    assert_grads_match_finite_differences(lambda: recurrent.blend_op(*leaves.values()), leaves)


def test_gate_sigmoid_saturates_without_overflow():
    # with e = I and zero weight pools the gate inputs are the bias pool rows
    n, d_h, b = 2, 1, 3
    params = graphs.SGCNParams(Tensor(np.zeros((n, 2, 1 + d_h, 2 * d_h))),
                               Tensor(np.array([[800.0, -800.0], [0.0, -30.0]])))
    with np.errstate(over="raise", invalid="raise"):
        s = recurrent.gate_op(Tensor(np.zeros((n, 1, b))), Tensor(np.zeros((n, d_h, b))),
                              Tensor(np.eye(n)), Tensor(np.eye(n)), params,
                              recurrent.terms_buffer(params, n, b)).data
    assert np.array_equal(s[0, 0], [1.0] * b) and np.array_equal(s[0, 1], [0.0] * b)
    assert np.array_equal(s[1, 0], [0.5] * b)
    assert np.abs(s[1, 1] - 1.0 / (1.0 + np.exp(30.0))).max() < 1e-15


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
def test_node_chunks_leave_the_forward_bit_identical(monkeypatch, mode):
    # With the byte budget at three nodes' z|r weights, the gate op builds
    # them for the 8 nodes in chunks of 3, 3 and 2 (the candidate in 6 and 2).
    rng = np.random.default_rng(130)
    bank = graphs.EmbeddingBank.create(8, 3, 2, rng, with_positions=mode == "sequence_aware")
    cell = recurrent.GruCellParams.create(2, 4, 2, 2, rng)
    x = Tensor(rng.standard_normal((3, 3, 8, 2)))
    _, k1, c_in, c_out = cell.gate_params()[0].weight_pool.shape
    node_bytes = 8 * k1 * c_in * c_out
    assert 8 * node_bytes <= attention.BLOCK_BYTES  # one chunk by default
    with ad.no_grad():
        one_chunk = recurrent.encode_sequence(x, cell, build_bundle(mode, bank), bank).data
        monkeypatch.setattr(attention, "BLOCK_BYTES", 3 * node_bytes)
        chunked = recurrent.encode_sequence(x, cell, build_bundle(mode, bank), bank).data
    assert np.array_equal(chunked, one_chunk)


def test_gate_op_forward_never_holds_all_node_weights(monkeypatch):
    # The node weights of 8 nodes span 4 chunks of the byte budget; the
    # forward builds them chunk by chunk in one buffer, so its peak allocation
    # stays below the bytes of all 8 nodes' weights.
    rng = np.random.default_rng(131)
    n, c, d_h, d_e, b = 8, 1, 16, 2, 2
    zr, _ = recurrent.GruCellParams.create(c, d_h, d_e, 2, rng).gate_params()
    _, k1, c_in, c_out = zr.weight_pool.shape
    theta_bytes = 8 * n * k1 * c_in * c_out
    monkeypatch.setattr(attention, "BLOCK_BYTES", theta_bytes // 3)
    x_t, h = Tensor(rng.standard_normal((n, c, b))), Tensor(rng.standard_normal((n, d_h, b)))
    lap = Tensor(softmax_rows(rng.standard_normal((n, n))))
    e = Tensor(rng.standard_normal((n, d_e)))
    terms = recurrent.terms_buffer(zr, n, b)
    with ad.no_grad():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            recurrent.gate_op(x_t, h, lap, e, zr, terms)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < theta_bytes, (peak, theta_bytes)


def encoder_case(mode, order, seed):
    rng = np.random.default_rng(seed)
    bank = graphs.EmbeddingBank.create(5, 4, 3, rng, with_positions=mode == "sequence_aware")
    cell = recurrent.GruCellParams.create(2, 4, 3, order, rng)
    x = Tensor(rng.standard_normal((3, 4, 5, 2)), requires_grad=True)
    leaves = [x, bank.node] + [p for gate in (cell.update, cell.reset, cell.candidate)
                               for p in (gate.weight_pool, gate.bias_pool)]
    if mode == "sequence_aware":
        leaves += [bank.position, bank.ln_gamma, bank.ln_beta]

    return x, cell, bank, lambda: build_bundle(mode, bank), leaves


def values_and_grads(encode, x, cell, bank, bundle, leaves, before_backward=lambda: None):
    for p in leaves:
        p.zero_grad()
    out = encode(x, cell, bundle(), bank)
    weight = np.random.default_rng(7).standard_normal(out.shape)
    loss = weighted_sum(out, weight)
    before_backward()
    ad.backward(loss)
    return [out.data] + [p.grad for p in leaves]


def closure_arrays(fn, seen=None):
    """The arrays the closure of fn holds, directly or through the closures
    of the functions it holds."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value) and hasattr(value, "__closure__"):
            found += closure_arrays(value, seen)
    return found


def tape_terms_buffers(entries, shape):
    """The distinct base arrays of the given shape that the backward rules of
    the tape entries hold: the Chebyshev terms buffers of the conv ops."""
    bases = {}
    for _, _, back in entries:
        for a in closure_arrays(back):
            while a.base is not None:
                a = a.base
            if a.shape == shape:
                bases[id(a)] = a
    return list(bases.values())


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_encoder_matches_composed_oracle_in_values_and_gradients(mode, order):
    # The fused ops against an encoder composed of generic tape ops
    # (tests/oracles.py) that shares no Chebyshev or GRU code with them: the
    # states and the gradients of the input, the embeddings and every pool.
    case = encoder_case(mode, order, 100 + order)
    fused = values_and_grads(recurrent.encode_sequence, *case)
    composed = values_and_grads(encode_composed, *case)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_backward_rebuilds_the_terms_it_reads(mode, order):
    # The conv ops share one terms buffer and keep none of their terms, so
    # each backward must refill it: with the buffer all NaN between the loss
    # and backward, every gradient is still bit-identical.
    case = encoder_case(mode, order, 120 + order)
    exact = values_and_grads(recurrent.encode_sequence, *case)
    x, cell = case[0], case[1]
    b, _, n, c = x.shape
    shape = (n, order + 1, c + cell.hidden_dim, b)
    found = []

    def poison():
        found.extend(tape_terms_buffers(ad.tape().entries, shape))
        for buf in found:
            buf.fill(np.nan)

    poisoned = values_and_grads(recurrent.encode_sequence, *case, before_backward=poison)
    assert found
    for got, want in zip(poisoned, exact):
        assert np.array_equal(got, want)


def tape_entries_of_forward(steps):
    cfg = md.ModelConfig(n_nodes=8, input_steps=steps, embed_dim=8, hidden_dim=32,
                         cheb_order=2, graph_mode="static", gst2_variant="none",
                         dropout_input=0.0, dropout_inner=0.0)
    ring = np.roll(np.eye(8), 1, axis=1)
    model = md.Forecaster(cfg, adjacency=ring + ring.T)
    x = np.random.default_rng(0).standard_normal((4, steps, 8, 1))
    model.forward(Tensor(x), training=True)
    count = len(ad.tape().entries)
    ad.reset_tape()
    return count


def test_static_forward_records_four_tape_entries_per_step():
    # gate op, candidate op, tanh and blend op per step; the rest is the pool
    # concatenation, the step selects, the stacked states and the head
    assert tape_entries_of_forward(12) - tape_entries_of_forward(6) == 4 * 6
    assert tape_entries_of_forward(12) <= 4 * 12 + 20


def sequence_training_tape():
    """The tape entries of a sequence-aware training forward and the loss
    (N = 5, T = 4, C = 1, d_h = 4, K = 2, B = 2)."""
    cfg = md.ModelConfig(n_nodes=5, input_steps=4, output_steps=3, embed_dim=3, hidden_dim=4,
                         cheb_order=2, heads=2, graph_mode="sequence_aware", ffn_dim=8,
                         fc_hidden=8, dropout_input=0.0, dropout_inner=0.0)
    model = md.Forecaster(cfg)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 4, 5, 1)), rng.standard_normal((2, 3, 5))
    md.l1_loss(model.forward(Tensor(x), training=True), Tensor(y))
    entries = ad.tape().entries
    ad.reset_tape()
    return entries


def test_training_tape_holds_no_node_weights():
    # The gate and candidate ops build each step's node weights [N, (K+1)
    # (C + d_h), C_out] as a temporary and rebuild them in backward, so after
    # a sequence-aware training forward and the loss no tape entry's output
    # or input has their shape.
    entries = sequence_training_tape()
    shapes = {t.shape for out, inputs, _ in entries for t in (out, *inputs)}
    weights = {(5, 3 * (1 + 4), c_out) for c_out in (4, 8)}
    assert len(entries) > 4 * 4 and not shapes & weights


def test_training_tape_holds_one_terms_buffer():
    # The gate and candidate ops of all T steps write their Chebyshev terms
    # [N, K+1, C + d_h, B] into one buffer and rebuild them in backward, so
    # the tape's backward rules hold one such buffer, not one per op (2 T).
    assert len(tape_terms_buffers(sequence_training_tape(), (5, 3, 1 + 4, 2))) == 1


def test_encoder_result_is_a_view_of_the_step_states():
    # each step's blend op writes its state into slice t of one
    # [T, N, d_h, B] buffer, so the [B, N, T, d_h] result copies nothing
    x, cell, bank, bundle, _ = encoder_case("sequence_aware", 2, 130)
    ad.reset_tape()
    h = recurrent.encode_sequence(x, cell, bundle(), bank)
    out, states, _ = ad.tape().entries[-1]
    ad.reset_tape()
    assert out is h and len(states) == x.shape[1]
    for t, state in enumerate(states):
        assert np.shares_memory(h.data, state.data)
        assert np.array_equal(h.data[:, :, t], state.data.transpose(2, 0, 1))


def test_wrong_tanh_backward_moves_encoder_gradients():
    # The benchmark's self-test checks its correctness gate by patching
    # ad.tanh's backward; that only works while the encoder's training path
    # runs ad.tanh.
    x, cell, bank, bundle, leaves = encoder_case("adaptive", 2, 110)
    exact = values_and_grads(recurrent.encode_sequence, x, cell, bank, bundle, leaves)
    tanh = ad.tanh

    def tanh_with_wrong_backward(t):
        out = tanh(t)
        entries = ad.tape().entries
        if entries and entries[-1][0] is out:
            _, inputs, back = entries[-1]
            entries[-1] = (out, inputs, lambda g: back(g * (1 + 1e-6)))
        return out

    with mock.patch.object(ad, "tanh", tanh_with_wrong_backward):
        wrong = values_and_grads(recurrent.encode_sequence, x, cell, bank, bundle, leaves)
    moved = max(np.abs(w - e).max() / np.abs(e).max() for w, e in zip(wrong[2:], exact[2:]))
    assert moved > 1e-9, "the encoder's training path no longer runs ad.tanh"
