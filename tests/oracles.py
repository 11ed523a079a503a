"""Independent reference implementations used to check the library.

Everything here is written as plain scalar/nested loops over numpy arrays,
deliberately avoiding the code paths under test, except:

- the tape ops the model does not run, each recorded with the library's
  ``_record``/``_accum``: ``mul``, ``scalar_affine`` and ``sub`` for the
  composed references, ``sigmoid_op`` and ``relu_op``, and ``weighted_sum``,
  the scalar loss the gradient tests backpropagate from;
- the composed convolution and encoder (conv_composed, encode_composed),
  which build the recurrent update from generic tape ops (matmul, concat,
  transpose, ...) and none of the encoder's own Chebyshev or GRU code;
- ``scaled_dot_op``, a tape op over the library's scaled-dot core
  (``att._attend``/``att._attend_back``), which the core's tests record;
- ``multi_head_composed``, multi-head attention from generic tape ops
  around ``scaled_dot_op``, and ``merge_composed``, the parallel block's
  merge site from two of them, concat and matmul;
- ``attention_weights``, which reads the library's own attention weights
  by running its attention core with identity values.
"""

import math
from contextlib import contextmanager

import numpy as np

from flowcast import attention as att
from flowcast import autodiff as ad
from flowcast.autodiff import Tensor


def finite_diff_grad(loss_fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. every element of
    ``array`` (perturbed in place and restored)."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = loss_fn()
        flat[i] = original - h
        down = loss_fn()
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def softmax_rows(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        e = np.exp(m[i] - m[i].max())
        out[i] = e / e.sum()
    return out


def cheb_polynomial(lap: np.ndarray, k: int) -> np.ndarray:
    """T_k evaluated at a matrix via explicit matrix powers (K <= 3)."""
    n = lap.shape[0]
    eye = np.eye(n)
    if k == 0:
        return eye
    if k == 1:
        return lap.copy()
    if k == 2:
        return 2.0 * (lap @ lap) - eye
    if k == 3:
        return 4.0 * np.linalg.matrix_power(lap, 3) - 3.0 * lap
    raise ValueError(f"oracle only covers K <= 3, got {k}")


def sgcn_loop(x, cheb_t, e_t, weight_pool, bias_pool):
    """Nested-loop node-adaptive graph convolution.

    x: [B, N, C_in]; cheb_t: [K+1, N, N]; e_t: [N, d_e];
    weight_pool: [d_e, K+1, C_in, C_out]; bias_pool: [d_e, C_out].
    """
    b_sz, n, c_in = x.shape
    k_terms = cheb_t.shape[0]
    c_out = weight_pool.shape[-1]
    theta = np.zeros((n, k_terms, c_in, c_out))
    for node in range(n):
        for d in range(e_t.shape[1]):
            theta[node] += e_t[node, d] * weight_pool[d]
    bias = np.zeros((n, c_out))
    for node in range(n):
        for d in range(e_t.shape[1]):
            bias[node] += e_t[node, d] * bias_pool[d]
    z = np.zeros((b_sz, n, c_out))
    for b in range(b_sz):
        for node in range(n):
            for k in range(k_terms):
                prop = np.zeros(c_in)
                for m in range(n):
                    prop += cheb_t[k, node, m] * x[b, m]
                z[b, node] += prop @ theta[node, k]
            z[b, node] += bias[node]
    return z


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_step_loop(x_t, h_prev, cheb_t, e_t, cell_pools):
    """Scalar recomputation of the gated recurrent update with convolutional
    gates. cell_pools is a dict with keys update/reset/candidate, each a
    (weight_pool, bias_pool) pair."""
    joint = np.concatenate([x_t, h_prev], axis=-1)
    z = sigmoid(sgcn_loop(joint, cheb_t, e_t, *cell_pools["update"]))
    r = sigmoid(sgcn_loop(joint, cheb_t, e_t, *cell_pools["reset"]))
    gated = np.concatenate([x_t, r * h_prev], axis=-1)
    c = np.tanh(sgcn_loop(gated, cheb_t, e_t, *cell_pools["candidate"]))
    return z * h_prev + (1.0 - z) * c


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b of two same-shape tensors as one tape op."""
    assert a.shape == b.shape, (a.shape, b.shape)

    def back(g):
        ad._accum(a, g * b.data)
        ad._accum(b, g * a.data)

    return ad._record(Tensor(a.data * b.data), (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b of two same-shape tensors as one tape op."""
    assert a.shape == b.shape, (a.shape, b.shape)

    def back(g):
        ad._accum(a, g)
        ad._accum(b, -g)

    return ad._record(Tensor(a.data - b.data), (a, b), back)


def scalar_affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale * x + shift with python-scalar coefficients."""

    def back(g):
        ad._accum(x, g * scale)

    return ad._record(Tensor(x.data * scale + shift), (x,), back)


def weighted_sum(x: Tensor, w=1.0) -> Tensor:
    """The scalar (x * w).sum() as one tape op, for a constant array w that
    broadcasts to x's shape (1.0, the default, gives the plain sum); x's
    gradient is g * w."""
    w = np.broadcast_to(w, x.shape)

    def back(g):
        ad._accum(x, g * w)

    return ad._record(Tensor((x.data * w).sum()), (x,), back)


def sigmoid_op(x: Tensor) -> Tensor:
    """The logistic function as one tape op: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so no exp overflows."""
    ex = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0, ex) / (1.0 + ex)

    def back(g):
        ad._accum(x, g * y * (1.0 - y))

    return ad._record(Tensor(y), (x,), back)


def relu_op(x: Tensor) -> Tensor:
    """ReLU as one tape op: fmax(x, 0), which maps NaN to 0; the gradient
    passes where the output is positive, so the subgradient at 0 is 0."""
    y = np.fmax(x.data, 0.0)

    def back(g):
        ad._accum(x, g * (y > 0))

    return ad._record(Tensor(y), (x,), back)


def conv_composed(x, lap, e, gates):
    """Node-adaptive Chebyshev graph convolution of x [B, N, C_in] on the
    graph lap [N, N] from generic tape ops, one [B, N, C_out] output per
    SGCNParams in gates (they share the terms). T_0 x = x, T_1 x = L x and
    T_k x = 2 L T_{k-1} x - T_{k-2} x by matmul, scalar_affine and sub; the
    terms are joined by concat into per-node rows [N, B, (K+1) C_in], each
    multiplied by that node's weights e @ weight_pool."""
    _, n, c_in = x.shape
    k1 = gates[0].weight_pool.shape[1]
    terms = [x, ad.matmul(lap, x)][:k1]
    while len(terms) < k1:
        terms.append(sub(scalar_affine(ad.matmul(lap, terms[-1]), 2.0, 0.0), terms[-2]))
    rows = ad.transpose(ad.concat(terms, axis=-1), (1, 0, 2))
    outs = []
    for gate in gates:
        d, _, _, c_out = gate.weight_pool.shape
        theta = ad.reshape(ad.matmul(e, ad.reshape(gate.weight_pool, (d, -1))),
                           (n, k1 * c_in, c_out))
        outs.append(ad.add(ad.transpose(ad.matmul(rows, theta), (1, 0, 2)),
                           ad.matmul(e, gate.bias_pool)))
    return outs


def encode_composed(x, cell, bundle, bank):
    """The GRU encoder of x [B, T, N, C] -> [B, N, T, d_h] from generic tape
    ops: conv_composed (z and r share one set of terms), sigmoid_op, mul,
    tanh, scalar_affine and add per step, the states joined by concat. It
    reads the pools of cell and the graphs of bundle, and nothing else of
    the encoder under test."""
    b, steps, n, _ = x.shape
    h = Tensor(np.zeros((b, n, cell.hidden_dim)))
    states = []
    for t in range(steps):
        lap, e = bundle.at(t, bank)
        x_t = ad.select(x, t, axis=1)
        z, r = (sigmoid_op(g) for g in
                conv_composed(ad.concat([x_t, h], axis=-1), lap, e, (cell.update, cell.reset)))
        (cand,) = conv_composed(ad.concat([x_t, mul(r, h)], axis=-1), lap, e, (cell.candidate,))
        h = ad.add(mul(z, h), mul(scalar_affine(z, -1.0, 1.0), ad.tanh(cand)))
        states.append(ad.reshape(h, (b, n, 1, cell.hidden_dim)))
    return ad.concat(states, axis=2)


def attend_buffers(qs, k, v):
    """A fresh output, in the memory layout of qs, and a fresh scores
    scratch for one ``att._attend`` call on the whole of qs, k and v."""
    out = np.empty_like(qs, shape=qs.shape[:-1] + (v.shape[-1],))
    return out, np.empty(math.prod(qs.shape[:-1]) * k.shape[-2])


@contextmanager
def attention_weights():
    """Collect the softmax weights of every scaled-dot attention the library
    runs inside the block, one [.., L, L] array per call. Each call of the
    attention core is run a second time, undropped, with v = I (an identity
    [L, L] per group), whose output is exactly the weights of the real call."""
    attend = att._attend
    captured = []

    def recording(qs, k, v, *args):
        l_k = k.shape[-2]
        identity = np.broadcast_to(np.eye(l_k), k.shape[:-2] + (l_k, l_k))
        captured.append(attend(qs, k, identity, 0.0, None, *attend_buffers(qs, k, identity))[0])
        return attend(qs, k, v, *args)

    att._attend = recording
    try:
        yield captured
    finally:
        att._attend = attend


def scaled_dot_op(q: Tensor, k: Tensor, v: Tensor, weight_dropout: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over the second-to-last axis as one tape
    op over the library's core, ``att._attend`` and ``att._attend_back``
    (looked up at call time, so ``attention_weights`` sees them). q, k are
    [..., L, d_k] and v is [..., L, d_v] with the same leading axes. With
    ``weight_dropout`` > 0 the weights go through inverted dropout before the
    product with v. The output has the memory layout of q and each gradient
    that of its input."""
    inv_sqrt_dk = 1.0 / np.sqrt(q.shape[-1])
    qs = q.data * inv_sqrt_dk
    out, lse, keep = att._attend(qs, k.data, v.data, weight_dropout, rng,
                                 *attend_buffers(qs, k.data, v.data))

    def back(g):
        # the core overwrites its inputs with their gradients and rebuilds
        # the output: give it copies, and a buffer of its own for the output
        grads = (q.data * inv_sqrt_dk, np.copy(k.data), np.copy(v.data))
        scratch = np.empty(math.prod(q.shape[:-1]) * (2 * k.shape[-2] + q.shape[-1]))
        att._attend_back(g, *grads, np.empty_like(out), lse, keep, weight_dropout, scratch)
        for t, grad in zip((q, k, v), grads):
            ad._accum(t, grad)

    return ad._record(Tensor(out), (q, k, v), back)


def multi_head_composed(x, p, over_nodes, weight_dropout=0.0, rng=None, values=None):
    """Multi-head attention from generic tape ops, one projection at a time:
    each of q, k and v is transpose -> reshape -> matmul -> reshape ->
    transpose, then ``scaled_dot_op``, then transpose -> reshape -> matmul
    with w_o. The reference ``att.multi_head_attention`` with one attention
    must agree with."""
    order = (0, 2, 3, 1, 4) if over_nodes else (0, 1, 3, 2, 4)

    def project(stream, w):
        h, d, d_k = w.shape
        matrix = ad.reshape(ad.transpose(w, (1, 0, 2)), (d, h * d_k))
        per_head = ad.reshape(ad.matmul(stream, matrix), stream.shape[:-1] + (h, d_k))
        return ad.transpose(per_head, order)

    heads = scaled_dot_op(project(x, p.w_q), project(x, p.w_k),
                          project(x if values is None else values, p.w_v), weight_dropout, rng)
    merged = ad.transpose(heads, tuple(np.argsort(order)))
    b, n, t, h, d_k = merged.shape
    return ad.matmul(ad.reshape(merged, (b, n, t, h * d_k)), p.w_o)


def merge_composed(x, p, weight_dropout=0.0, rng=None):
    """The parallel block's merge site from generic tape ops: temporal and
    spatial ``multi_head_composed`` over x (temporal drawing its dropout
    first), joined by concat and projected by matmul with concat_proj. The
    reference ``att.multi_head_attention`` with both attentions and
    ``proj=concat_proj`` must agree with."""
    ta = multi_head_composed(x, p.temporal, False, weight_dropout, rng)
    sa = multi_head_composed(x, p.spatial, True, weight_dropout, rng)
    return ad.matmul(ad.concat([ta, sa], axis=-1), p.concat_proj)


def attention_loop(q, k, v):
    """Explicit exp/normalize/weighted-sum attention for 2-d q, k, v."""
    d_k = q.shape[-1]
    out = np.zeros((q.shape[0], v.shape[-1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] / np.sqrt(d_k) for j in range(k.shape[0])])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        for j in range(v.shape[0]):
            out[i] += w[j] * v[j]
    return out


def multi_head_loop(x, w_q, w_k, w_v, w_o):
    """Per-head loop attention over the L axis of x [B, G, L, d]."""
    b_sz, g_sz, l_sz, d = x.shape
    heads = w_q.shape[0]
    out = np.zeros_like(x)
    for b in range(b_sz):
        for g in range(g_sz):
            seq = x[b, g]                              # [L, d]
            per_head = []
            for j in range(heads):
                per_head.append(attention_loop(seq @ w_q[j], seq @ w_k[j], seq @ w_v[j]))
            out[b, g] = np.concatenate(per_head, axis=-1) @ w_o
    return out


def spatial_attention_loop(x, w_q, w_k, w_v, w_o):
    flipped = x.transpose(0, 2, 1, 3)
    return multi_head_loop(flipped, w_q, w_k, w_v, w_o).transpose(0, 2, 1, 3)


def stfa_loop(x, fusion, spatial):
    """Fusion attention oracle: spatial attention output feeds the value slot
    of a per-head temporal attention. fusion/spatial are (wq, wk, wv, wo)."""
    s = spatial_attention_loop(x, *spatial)
    w_q, w_k, w_v, w_o = fusion
    b_sz, n_sz, t_sz, d = x.shape
    heads = w_q.shape[0]
    out = np.zeros_like(x)
    for b in range(b_sz):
        for n in range(n_sz):
            seq = x[b, n]
            val = s[b, n]
            per_head = []
            for j in range(heads):
                per_head.append(attention_loop(seq @ w_q[j], seq @ w_k[j], val @ w_v[j]))
            out[b, n] = np.concatenate(per_head, axis=-1) @ w_o
    return out


def metrics_loop(pred, truth, mean, std):
    """Scalar-loop MAE/RMSE/MAPE on normalized inputs, denormalized inside."""
    p = pred.reshape(-1)
    t = truth.reshape(-1)
    abs_sum = 0.0
    sq_sum = 0.0
    ratio_sum = 0.0
    masked_in = 0
    for i in range(p.size):
        pv = p[i] * std + mean
        tv = t[i] * std + mean
        err = pv - tv
        abs_sum += abs(err)
        sq_sum += err * err
        if tv != 0:
            masked_in += 1
            ratio_sum += abs(err / tv)
    mae = abs_sum / p.size
    rmse = np.sqrt(sq_sum / p.size)
    mape = (ratio_sum / masked_in * 100.0) if masked_in else None
    return mae, rmse, mape, masked_in
