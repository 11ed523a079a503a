"""Recurrent encoder: a GRU whose gates are graph convolutions.

Each gate applies a node-adaptive Chebyshev graph convolution (_conv: the
terms of graphs.cheb_recurrence mixed by node weights from the pools of
graphs.SGCNParams) to the concatenation of the step input and the previous
hidden state, so spatial mixing happens inside every recurrent update:

    [z, r] = sigmoid(conv_zr([x_t, h]))     update and reset gates
    c = tanh(conv_c([x_t, r * h]))          candidate state
    h' = c + z * (h - c)                    (= z * h + (1 - z) * c)

A step records four tape entries:

* ``gate_op``: [x_t, h] -> Chebyshev terms -> one per-node product into the
  2 d_h channels of z and r together -> bias -> sigmoid, computed in place as
  0.5 + 0.5 tanh(x / 2), which cannot overflow;
* ``candidate_op``: [x_t, r * h] -> terms -> product -> bias;
* ``ad.tanh`` of the candidate;
* ``blend_op``: h' = c + z (h - c), which encode_sequence has write step
  t's state into slice t of one [T, N, d_h, B] buffer, so the stacked
  [B, N, T, d_h] states it returns are a transposed view, not a copy.

The three ops of this module have hand-written backward rules. The gate and
blend ops both read z from the gate output, so the gradients of z and r
meet there. The state is carried node-major and batch-last, [N, d_h, B]:
that is the layout of the Chebyshev terms [N, K+1, C, B], so z and r are row
blocks of the gate output and no step copies between [B, N] and [N, B]. The
z and r pools are concatenated once per forward (GruCellParams.gate_params).
The gate and candidate ops take the step's node features, not node weights:
the forward builds them block by block of nodes in one buffer of about
autodiff.BLOCK_BYTES, and the backward rebuilds them whole, so the tape
keeps no step's weights, and every graph mode runs one path. Likewise
they keep no Chebyshev terms: encode_sequence allocates one terms buffer per
call, every op writes its terms into it, and each backward refills term 0
from the op's inputs and reruns the recurrence there (the candidate's r * h
is rebuilt from the gate output and h). That costs K [N, N] GEMMs per op in
backward and saves (K+1)(C + d_h) N B floats per op on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import (EmbeddingBank, GraphBundle, SGCNParams, cheb_recurrence,
                     cheb_recurrence_adjoint)


@dataclass
class GruCellParams:
    """Three independent convolution parameter sets, one per gate."""

    update: SGCNParams
    reset: SGCNParams
    candidate: SGCNParams
    hidden_dim: int

    @staticmethod
    def create(in_channels: int, hidden_dim: int, embed_dim: int, order: int,
               rng: np.random.Generator) -> "GruCellParams":
        c_in = in_channels + hidden_dim
        make = lambda: SGCNParams.create(embed_dim, order, c_in, hidden_dim, rng)
        return GruCellParams(make(), make(), make(), hidden_dim)

    def gate_params(self) -> tuple[SGCNParams, SGCNParams]:
        """The pools of gate_op, z's and r's concatenated along the output
        channels (z first), and the pools of candidate_op."""
        zr = SGCNParams(ad.concat([self.update.weight_pool, self.reset.weight_pool], axis=-1),
                        ad.concat([self.update.bias_pool, self.reset.bias_pool], axis=-1))
        return zr, self.candidate


def terms_buffer(params: SGCNParams, n: int, b: int) -> np.ndarray:
    """An uninitialised [N, K+1, C_in, B] Chebyshev terms buffer for the conv
    ops of params on n nodes and batch b: the ``terms`` argument of _conv."""
    _, k1, c_in, _ = params.weight_pool.shape
    return np.empty((n, k1, c_in, b))


def _conv(x_t: Tensor, h: Tensor, r: np.ndarray | None, lap: Tensor, e: Tensor,
          params: SGCNParams, terms: np.ndarray):
    """Chebyshev graph convolution of the concatenation [x_t, y] of x_t
    [N, C, B] and y [N, d_h, B] on the graph lap [N, N], with y = h, or
    r * h when r is given: the terms [N, K+1, C + d_h, B] (cheb_recurrence),
    then one per-node product with the node weights theta = e @ weight_pool
    [N, (K+1)(C + d_h), C_out] (rows ordered (k, i)) and the bias
    e @ bias_pool [N, C_out], for node features e [N, d_e].

    The forward never holds theta for all N nodes: it walks the nodes in
    the blocks of ``autodiff._blocks`` at theta's bytes a node, and for
    each builds that theta and its per-node product in one reused block
    buffer that stays in cache. A node's theta and product are the same GEMM
    arithmetic in any block, so the output is bit for bit that of one block.
    The backward rebuilds theta for all nodes as one GEMM.

    The terms are written into ``terms``, a buffer of that shape which the
    ops of a whole encoder pass share. The backward keeps none of them: it
    refills term 0 from x_t and y and reruns the recurrence into the buffer
    before it reads them (gradient checkpointing, Chen et al., arXiv
    1604.06174), so the tape holds no step's terms, y or 2L.

    Returns the [N, C_out, B] output and its backward. Given the output's
    gradient and whether y needs one, the backward accumulates the gradients
    of x_t, lap, e and both pools and returns y's gradient (None when
    nothing upstream of the terms needs one)."""
    n, c, b = x_t.shape
    d, k1, c_in, c_out = params.weight_pool.shape
    pool = params.weight_pool.data.reshape(d, -1)
    flat = terms.reshape(n, k1, c_in * b)            # views of terms
    rows = terms.reshape(n, k1 * c_in, b)

    def fill():
        terms[:, 0, :c] = x_t.data
        if r is None:
            terms[:, 0, c:] = h.data
        else:
            np.multiply(r, h.data, out=terms[:, 0, c:])
        return cheb_recurrence(lap.data, flat)

    fill()
    out = np.empty((n, c_out, b))    # before theta, so freeing theta leaves no heap hole
    blocks, block_nodes = ad._blocks((n,), 8 * pool.shape[1])
    theta = np.empty((block_nodes, k1 * c_in, c_out))
    for blk in blocks:
        part = theta[:len(out[blk])]
        np.matmul(e.data[blk], pool, out=part.reshape(len(part), -1))
        np.matmul(part.transpose(0, 2, 1), rows[blk], out=out[blk])
    out += (e.data @ params.bias_pool.data)[:, :, None]

    def back(g, need_y):
        lap2 = fill()
        g_bias = g.sum(axis=2)
        g_theta = np.matmul(rows, g.transpose(0, 2, 1)).reshape(n, -1)
        ad._accum(params.bias_pool, e.data.T @ g_bias)
        ad._accum(params.weight_pool, (e.data.T @ g_theta).reshape(params.weight_pool.shape))
        ad._accum(e, g_theta @ pool.T + g_bias @ params.bias_pool.data.T)
        need_signal = need_y or x_t.requires_grad
        if not (need_signal or lap.requires_grad):
            return None
        theta = np.matmul(e.data, pool, out=g_theta)  # rebuilt in g_theta's spent buffer
        g_terms = np.matmul(theta.reshape(n, -1, c_out), g).reshape(flat.shape)
        g_in = cheb_recurrence_adjoint(lap, lap2, flat, g_terms, need_signal)
        if g_in is None:
            return None
        g_in = g_in.reshape(n, c_in, b)
        ad._accum(x_t, g_in[:, :c])
        return g_in[:, c:]

    return out, back


def gate_op(x_t: Tensor, h: Tensor, lap: Tensor, e: Tensor, params: SGCNParams,
            terms: np.ndarray) -> Tensor:
    """sigmoid(conv([x_t, h])) for x_t [N, C, B] and h [N, d_h, B] (see
    _conv, which writes the Chebyshev terms into ``terms``): one
    [N, C_out, B] tape entry. With the z and r pools of
    GruCellParams.gate_params, C_out = 2 d_h: z, then r."""
    s, conv_back = _conv(x_t, h, None, lap, e, params, terms)
    s *= 0.5
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5

    def back(g):
        g = g * s
        g *= 1.0 - s
        ad._accum(h, conv_back(g, h.requires_grad))

    return ad._record(Tensor(s), (x_t, h, lap, e, params.weight_pool, params.bias_pool), back)


def candidate_op(x_t: Tensor, h: Tensor, gates: Tensor, lap: Tensor, e: Tensor,
                 params: SGCNParams, terms: np.ndarray) -> Tensor:
    """conv([x_t, r * h]) (see _conv, which writes the Chebyshev terms into
    ``terms``), before its tanh, with r the last d_h channels of the gate_op
    output gates [N, 2 d_h, B]: one [N, d_h, B] tape entry. r * h is
    written into term 0 and rebuilt there in backward, not kept."""
    d_h = h.shape[1]
    r = gates.data[:, d_h:]
    out, conv_back = _conv(x_t, h, r, lap, e, params, terms)

    def back(g):
        g_rh = conv_back(g, h.requires_grad or gates.requires_grad)
        if g_rh is None:
            return
        ad._accum(h, g_rh * r)
        if gates.requires_grad:
            g_gates = np.zeros(gates.shape)
            np.multiply(g_rh, h.data, out=g_gates[:, d_h:])
            ad._accum(gates, g_gates)

    return ad._record(Tensor(out), (x_t, h, gates, lap, e, params.weight_pool,
                                    params.bias_pool), back)


def blend_op(gates: Tensor, h: Tensor, c: Tensor, out: np.ndarray | None = None) -> Tensor:
    """h' = c + z (h - c) for h and c [N, d_h, B], with z the first d_h
    channels of the gate_op output gates [N, 2 d_h, B]: one tape entry,
    written into ``out`` (an [N, d_h, B] array) when given, else into a new
    array."""
    d_h = h.shape[1]
    z = gates.data[:, :d_h]
    out = np.subtract(h.data, c.data, out=out)
    out *= z
    out += c.data

    def back(g):
        g_h = g * z
        ad._accum(h, g_h)
        ad._accum(c, g - g_h)
        if gates.requires_grad:
            g_gates = np.empty(gates.shape)
            np.subtract(h.data, c.data, out=g_gates[:, :d_h])
            g_gates[:, :d_h] *= g
            g_gates[:, d_h:] = 0.0
            ad._accum(gates, g_gates)

    return ad._record(Tensor(out), (gates, h, c), back)


def _step(x_t: Tensor, h: Tensor, lap_t: Tensor, e_t: Tensor, pools: tuple,
          terms: np.ndarray, out: np.ndarray | None = None) -> Tensor:
    """The four tape entries of one update on batch-last x_t [N, C, B] and h
    [N, d_h, B] on the step's lap_t and e_t; pools from gate_params, and
    terms the [N, K+1, C + d_h, B] Chebyshev buffer both conv ops write. The
    new state is written into ``out`` when given (see blend_op)."""
    zr, cand = pools
    gates = gate_op(x_t, h, lap_t, e_t, zr, terms)
    c = ad.tanh(candidate_op(x_t, h, gates, lap_t, e_t, cand, terms))
    return blend_op(gates, h, c, out)


def _stack_states(states: list[Tensor], buf: np.ndarray) -> Tensor:
    """The states [N, d_h, B] of the T steps, which the blend ops wrote into
    the slices of buf [T, N, d_h, B], as one [B, N, T, d_h] tape entry: a
    transposed view of buf, not a copy."""

    def back(g):
        for h, g_t in zip(states, np.ascontiguousarray(g.transpose(2, 1, 3, 0))):
            ad._accum(h, g_t)

    return ad._record(Tensor(buf.transpose(3, 1, 0, 2)), tuple(states), back)


def encode_sequence(x: Tensor, cell: GruCellParams, bundle: GraphBundle,
                    bank: EmbeddingBank) -> Tensor:
    """Run the cell over x [B, T, N, C] from a zero initial state and return
    the hidden states as one [B, N, T, d_h] tape entry: step t's blend op
    writes its state into slice t of one [T, N, d_h, B] buffer, and the
    result is a transposed view of that buffer, so the states are never
    copied (a consumer that needs C order, such as the global block's
    positional add, makes the first C-contiguous copy). Every graph
    mode runs the same path: step t reads its graph and node features from
    bundle.at(t, bank), and its ops build their node weights from those
    features (outside sequence-aware mode, bank.node at every step).

    One [N, K+1, C + d_h, B] Chebyshev terms buffer serves every gate and
    candidate op of the call, in forward and in backward, where each op
    rebuilds its terms in it. So the tape keeps, per step, the ops' inputs
    (x_t, h, the gate output, the graph and node features) and outputs, but
    no terms and no node weights."""
    b, steps, n, _ = x.shape
    # the states' buffer, before the call's temporaries, so that freeing them
    # leaves no heap hole below it (allocated after them, it raised the peak
    # RSS of N=307 inference by 2 MB)
    buf = np.empty((steps, n, cell.hidden_dim, b))
    xs = ad.transpose(x, (1, 2, 3, 0))                 # [T, N, C, B], a view
    h = Tensor(np.zeros((n, cell.hidden_dim, b)))
    pools = cell.gate_params()
    terms = terms_buffer(cell.candidate, n, b)
    states = []
    for t in range(steps):
        lap_t, e_t = bundle.at(t, bank)
        h = _step(ad.select(xs, t, axis=0), h, lap_t, e_t, pools, terms, buf[t])
        states.append(h)
    return _stack_states(states, buf)
