"""Global awareness layer: positional encoding, multi-head temporal/spatial
attention, fusion attention, and the one transformer-like block that reads
the full hidden-state sequence at once.

All attention operates on [B, N, T, d] hidden sequences. Temporal attention
attends over the T axis per node; spatial attention attends over nodes per
step; fusion attention is temporal attention whose value stream is the output
of an inner spatial attention. Every attention site is one tape op,
``multi_head_attention``, given the site's attentions: one for the temporal
and spatial sites and for each of fusion's two calls, and temporal and
spatial for the parallel block's merge site, concat(ta, sa) P with
P = concat_proj [2 d, d]. It outputs the sum over its attentions of
heads_i w_i, with w_i = w_o,i, or w_o,i P[i d:(i+1) d] at the merge site, so
neither branch output nor their concatenation is ever formed (concatenating
heads and projecting them is the sum of per-head projections, as in the
head merge of Vaswani et al., arXiv 1706.03762).

Each attention is ``_attention``. Its groups are the (batch, node, head)
triples over time and the (batch, step, head) triples over nodes, and it
walks them in the blocks of ``autodiff._blocks``, sized so that a block's q,
k, v and [L, L] scores fit ``autodiff.BLOCK_BYTES``. Each block projects its
own q, k and v: its rows of the input (of the value stream, for fusion's v)
times its heads' columns of w_q, w_k and w_v as one [3, d, h d_k] stack, into
one buffer that every block reuses. The scaled-dot core runs on views of that
buffer and writes the block's heads into the same buffer, and the block adds
its heads times its rows of w_i into its rows of the output; the merged
[B, N, T, h d_k] heads are never formed. Backward keeps only the input and
each block's row logsumexp and, when weight dropout runs, boolean mask. It
walks the same blocks: it forms the block's heads gradient from g and w_i,
recomputes its q, k and v, and has the core rebuild the block's heads and
overwrite q, k and v with their gradients. It adds heads^T g into w_i's
gradient, x^T dqkv into the weights' gradient and dq w_q^T + dk w_k^T +
dv w_v^T into x's. So neither pass allocates an array of the input's size
but the output and the inputs' gradients (FlashAttention's recompute, Dao et
al., arXiv 2205.14135, and the blocked attention of Rabe and Staats, arXiv
2112.05682, carried to the projections and the heads; per-op recompute as in
Chen et al., arXiv 1604.06174).

The scaled-dot core (``_attend`` and ``_attend_back``, on one block's
arrays) bounds the block's scores by Cauchy-Schwarz, max_i |q_i| max_j |k_j|
/ sqrt(d_k); when that bound is at most ``EXP_SAFE`` it exponentiates them
with no row-max pass (one pass fewer over the scores; Milakov and
Gimelshein, arXiv 1805.02867), otherwise it shifts each row by its max. Its
backward recomputes the block's softmax weights from the row logsumexp, and
the block's output from them, so no float [.., L, L] array outlives one
block. The blocks draw their dropout flags in C order over the groups, the
values one draw of the whole [.., L, L] mask takes from the stream. It
returns no weights: run with v = I, an identity [L, L] value per group, its
output is the weights themselves, bit for bit.

Dropout is given to every function here as rates, which the model sets to 0
outside training; a rate of 0 draws nothing from the stream.

Every block variant is a row of the ``BLOCKS`` site table: after positional
encoding, each site applies its sublayer (its attentions, or the
feed-forward network, itself one tape entry) with a residual connection and
layer normalization, the one op ``autodiff.layer_norm(sublayer, x, ...)``,
which keeps neither the sum nor x-hat. The feed-forward network walks its
rows with ``autodiff._blocks`` in forward and in backward; at the FFN site,
whose hidden activation is wider than x, it keeps no activation and rebuilds
each block's in backward. The three paper blocks combine temporal and
spatial attention in parallel, in series, or fused; ``ta_only`` and
``sa_only`` keep one attention for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

# scores bounded by this in magnitude are exponentiated unshifted: exp(+-300)
# is about 1e+-130, so no row sum overflows and no row underflows to 0
EXP_SAFE = 300.0


def positional_encoding(steps: int, dim: int) -> Tensor:
    """Sinusoidal position table [steps, dim]:
    PE[t, 2c] = sin(t / 1000^(2c/dim)), PE[t, 2c+1] = cos(same angle)."""
    if dim < 1:
        raise ConfigError(f"positional encoding dim must be >= 1, got {dim}")
    pe = np.zeros((steps, dim))
    t = np.arange(steps, dtype=np.float64)[:, None]
    even = np.arange(0, dim, 2, dtype=np.float64)
    angles = t / np.power(1000.0, even / dim)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)[:, : pe[:, 1::2].shape[1]]
    return Tensor(pe)


@dataclass
class AttentionParams:
    """Per-head projections stacked as [heads, d, d/heads] plus the output
    projection [d, d]."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    @staticmethod
    def create(dim: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        if heads < 1 or dim % heads != 0:
            raise ConfigError(f"hidden dim {dim} is not divisible by {heads} heads")
        d_k = dim // heads
        bound = np.sqrt(1.0 / dim)
        mk = lambda shape: Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
        return AttentionParams(
            w_q=mk((heads, dim, d_k)),
            w_k=mk((heads, dim, d_k)),
            w_v=mk((heads, dim, d_k)),
            w_o=mk((dim, dim)),
        )


def _attend(qs: np.ndarray, k: np.ndarray, v: np.ndarray, weight_dropout: float,
            rng: np.random.Generator | None, out: np.ndarray, scratch: np.ndarray) -> tuple:
    """The forward of the scaled-dot core on one block's arrays:
    softmax(qs k^T) v, for queries qs [..., L_q, d_k] already scaled by
    1/sqrt(d_k), keys k [..., L_k, d_k] and values v [..., L_k, d_v] with the
    same leading axes (not checked: ``_attention`` passes views of one
    buffer). Returns the output (written into ``out``), the row logsumexp
    [..., L, 1] and the boolean dropout mask (None at rate 0).

    The scores are written into the front of ``scratch`` and exponentiated in place: unshifted when the Cauchy-Schwarz bound
    max_i |qs_i| max_j |k_j| is at most ``EXP_SAFE``, else (a NaN bound
    included) shifted by the row max. The dropout mask is one
    ``autodiff._dropout_mask`` draw of the [..., L, L] weights."""
    if not 0.0 <= weight_dropout < 1.0:
        raise ValueError(f"attention: weight dropout must be in [0, 1), got {weight_dropout}")
    l_k = k.shape[-2]
    # |score| <= the bound (Cauchy-Schwarz); a NaN bound fails the test too
    shift = not _row_norm_max(qs) * _row_norm_max(k) <= EXP_SAFE
    e = _scores(qs, k, scratch)
    if shift:
        row_max = e.max(axis=-1, keepdims=True)
        e -= row_max
    np.exp(e, out=e)
    row_sum = np.matmul(e.reshape(-1, l_k), np.ones((l_k, 1))).reshape(e.shape[:-1] + (1,))
    lse = np.log(row_sum)
    if shift:
        lse += row_max
    keep = None
    if weight_dropout > 0.0:
        keep, drop_scale = ad._dropout_mask(e.shape, weight_dropout, rng)
        e *= keep
        e *= drop_scale
    np.matmul(e, v, out=out)
    out /= row_sum
    return out, lse, keep


def _attend_back(g: np.ndarray, qs: np.ndarray, k: np.ndarray, v: np.ndarray,
                 out: np.ndarray, lse: np.ndarray, keep, weight_dropout: float,
                 scratch: np.ndarray):
    """The backward of ``_attend`` on the same block: writes the output of
    ``_attend``, rebuilt, into ``out``, and overwrites qs, k and v in place
    with the gradients of the unscaled queries, of k and of v, which is safe
    because each is read for the last time before its gradient is written.
    The weights are recomputed as exp(qs k^T - lse), the output as the
    dropped weights times v, and the softmax row term is rowsum(g * out).
    Two [..., L, L] arrays and the queries' gradient go into the front of
    ``scratch``."""
    l_k, d_k = k.shape[-2], qs.shape[-1]
    rows = math.prod(qs.shape[:-1])
    drop_scale = 1.0 / (1.0 - weight_dropout)
    w = _scores(qs, k, scratch)
    w -= lse
    np.exp(w, out=w)
    applied = w
    if keep is not None:
        applied = np.multiply(w, keep)
        applied *= drop_scale
    np.matmul(applied, v, out=out)
    # the softmax row term sum_j W_ij dW_ij, as rowsum(dO * O)
    row_dot = np.einsum("...d,...d->...", g, out)[..., None]
    g_w = _scores(g, v, scratch[rows * l_k:])
    if keep is not None:
        g_w *= keep
        g_w *= drop_scale
    np.matmul(np.swapaxes(applied, -1, -2), g, out=v)
    # softmax backward, in place: the gradient of the scaled scores
    g_w -= row_dot
    g_w *= w
    g_qs = _scores(g_w, np.swapaxes(k, -1, -2), scratch[2 * rows * l_k:])
    np.matmul(np.swapaxes(g_w, -1, -2), qs, out=k)
    np.multiply(g_qs, 1.0 / np.sqrt(d_k), out=qs)


def _row_norm_max(a: np.ndarray) -> float:
    """The largest Euclidean norm of a row (last axis) of a; NaN if a holds one."""
    return float(np.sqrt(np.einsum("...d,...d->...", a, a).max(initial=0.0)))


def _scores(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """a b^T over the last two axes, written into the front of ``scratch``
    (reused block after block, which keeps the peak RSS of a pass lower than
    a fresh array per block)."""
    shape = a.shape[:-1] + b.shape[-2:-1]
    return np.matmul(a, np.swapaxes(b, -1, -2), out=scratch[:math.prod(shape)].reshape(shape))


def _attention(x: Tensor, p: AttentionParams, over_nodes: bool, weight_dropout: float, rng,
               values: Tensor | None, w_out: np.ndarray, out: np.ndarray):
    """One attention of ``multi_head_attention``, which records it: adds
    heads w_out, for the merged heads [B, N, T, h d_k] and a [h d_k, d]
    matrix w_out, into ``out`` [B, N, T, d], and returns its backward,
    ``back(g, grads)``. Given g, the gradient of ``out``, it accumulates the
    gradients of w_q, w_k and w_v, adds those of x and ``values`` into
    ``grads``, one array per input stream (None where a stream needs none),
    and returns heads^T g [h d_k, d], the gradient of w_out. See the module
    docstring for the blocks it walks."""
    h, d, d_k = p.w_q.shape
    if values is not None and values.shape != x.shape:
        raise ShapeError(f"attention: values {values.shape} are not shaped like x {x.shape}")
    # w_q, w_k and w_v as one [3, d, h d_k] stack, and which of them each
    # input stream is projected with
    w3 = np.stack([w.data.transpose(1, 0, 2).reshape(d, h * d_k) for w in (p.w_q, p.w_k, p.w_v)])
    streams = [(x, slice(0, 3))] if values is None else [(x, slice(0, 2)), (values, slice(2, 3))]

    def rows(a):
        # [B, N, T, c] as [B, G, L, c]: the groups' axis, then the attended one
        return a.swapaxes(1, 2) if over_nodes else a

    def split(a):
        # [.., L, n d_k] as the [.., n, L, d_k] groups of n heads (a view)
        return np.swapaxes(a.reshape(a.shape[:-1] + (-1, d_k)), -2, -3)

    batch, groups, length, _ = rows(x.data).shape
    # a block is groups consecutive in C order over [B, G, h]: its rows of
    # the streams, blk[:2], and its head columns of w3, blk[2:]
    blocks, block_groups = ad._blocks((batch, groups, h), 8 * length * (length + 3 * d_k))
    cols = [slice(None) if len(blk) < 3 else slice(blk[2].start * d_k, blk[2].stop * d_k)
            for blk in blocks]
    block_size = block_groups * length * d_k

    def project(blk, c, buf):
        # the block's q (scaled), k and v as [3, .., L, c] in the front of buf
        shape = rows(x.data)[blk[:2]].shape[:-1] + (w3[0, 0, c].size,)
        qkv = buf[:3 * math.prod(shape)].reshape((3,) + shape)
        for t, ws in streams:
            for i in range(ws.start, ws.stop):
                np.matmul(rows(t.data)[blk[:2]], w3[i, :, c], out=qkv[i])
        qkv[0] *= 1.0 / np.sqrt(d_k)
        return qkv

    buf, scratch = np.empty(4 * block_size), np.empty(block_groups * length * length)
    saved = []
    for blk, c in zip(blocks, cols):
        qkv = project(blk, c, buf)
        heads = buf[qkv.size:qkv.size + qkv[0].size].reshape(qkv.shape[1:])
        saved.append(_attend(*(split(a) for a in qkv), weight_dropout, rng, split(heads),
                             scratch)[1:])
        rows(out)[blk[:2]] += np.matmul(heads, w_out[c])

    def back(g, grads):
        g_w = np.zeros((3, d, h * d_k))
        g_w_out = np.zeros(w_out.shape)
        buf = np.empty(5 * block_size)
        scratch = np.empty(block_groups * length * (2 * length + d_k))
        for blk, c, (lse, keep) in zip(blocks, cols, saved):
            r = blk[:2]
            qkv = project(blk, c, buf)
            g_heads, heads = buf[qkv.size:qkv.size + 2 * qkv[0].size].reshape((2,) + qkv.shape[1:])
            g_rows = rows(g)[r]
            np.matmul(g_rows, w_out[c].T, out=g_heads)
            _attend_back(split(g_heads), *(split(a) for a in qkv), split(heads), lse, keep,
                         weight_dropout, scratch)
            g_w_out[c] += np.matmul(heads.reshape(-1, heads.shape[-1]).T, g_rows.reshape(-1, d))
            # qkv holds the gradients of q, k and v now
            for (t, ws), g_t in zip(streams, grads):
                rows_t = rows(t.data)[r].reshape(-1, d)
                g_qkv = qkv[ws].reshape(ws.stop - ws.start, len(rows_t), -1)
                g_w[ws, :, c] += np.matmul(rows_t.T, g_qkv)
                if g_t is not None:
                    g_t_rows = rows(g_t)[r]
                    for i in range(ws.start, ws.stop):
                        g_t_rows += np.matmul(qkv[i], w3[i, :, c].T)
        for w, g_w_i in zip((p.w_q, p.w_k, p.w_v), g_w):
            ad._accum(w, g_w_i.reshape(d, h, d_k).transpose(1, 0, 2))
        return g_w_out

    return back


def multi_head_attention(x: Tensor, attentions: tuple, weight_dropout: float, rng,
                         values: Tensor | None = None, proj: Tensor | None = None) -> Tensor:
    """Every attention site over x [B, N, T, d] as one tape entry (see the
    module docstring). ``attentions`` holds (AttentionParams, over_nodes)
    pairs, run in order: each attends over time per (batch, node), or with
    ``over_nodes`` over nodes per (batch, step). Their value stream is
    projected from ``values`` (shaped like x) when given.

    The output is the sum of heads_i w_i, with w_i = w_o,i, or
    w_o,i proj[i d:(i+1) d] when the [n d, d] ``proj`` is given; every
    attention adds its term block by block. Backward runs the attentions in
    reverse order: each returns heads_i^T g, from which the gradients of its
    w_o and of proj are taken, and adds into the one gradient of x (and of
    ``values``)."""
    d = x.shape[-1]
    out = np.zeros(x.shape)
    terms = []
    for i, (a, over_nodes) in enumerate(attentions):
        rows = slice(i * d, (i + 1) * d)
        w_out = a.w_o.data if proj is None else np.matmul(a.w_o.data, proj.data[rows])
        terms.append((a, rows, _attention(x, a, over_nodes, weight_dropout, rng, values, w_out,
                                          out)))
    streams = (x,) if values is None else (x, values)

    def back_op(g):
        g_proj = None if proj is None else np.empty(proj.shape)
        grads = [np.zeros(t.shape) if t.requires_grad else None for t in streams]
        for a, rows, back in terms[::-1]:
            g_w_out = back(g, grads)
            if proj is None:
                ad._accum(a.w_o, g_w_out)
            else:
                ad._accum(a.w_o, np.matmul(g_w_out, proj.data[rows].T))
                np.matmul(a.w_o.data.T, g_w_out, out=g_proj[rows])
        if proj is not None:
            ad._accum(proj, g_proj)
        for t, g_t in zip(streams, grads):
            if g_t is not None:
                ad._accum(t, g_t)

    weights = tuple(w for a, _ in attentions for w in (a.w_q, a.w_k, a.w_v, a.w_o))
    return ad._record(Tensor(out), streams + weights + (() if proj is None else (proj,)),
                      back_op)


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    @staticmethod
    def create(dim: int) -> "LayerNormParams":
        return LayerNormParams(Tensor(np.ones(dim), requires_grad=True),
                               Tensor(np.zeros(dim), requires_grad=True))


# sublayer sites of each global block, in application order; every site maps
# x to LayerNorm_site(sublayer_site(x) + x). The order of the keys is the
# order of the ablation grid.
BLOCKS = {
    "ta_only": ("temporal",),
    "sa_only": ("spatial",),
    "parallel": ("merge", "ffn"),
    "serial": ("temporal", "spatial", "ffn"),
    "fused": ("fusion", "ffn"),
}


@dataclass
class FfnParams:
    """Two dense layers, w1 [d_in, d_hidden] and w2 [d_hidden, d_out] with
    their biases, run by ``feed_forward``: the FFN site of a block and the
    model's output head."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @staticmethod
    def create(d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator) -> "FfnParams":
        # weights uniform in +-sqrt(1/fan_in), w1 drawn before w2; zero biases
        bound1, bound2 = np.sqrt(1.0 / d_in), np.sqrt(1.0 / d_hidden)
        return FfnParams(
            Tensor(rng.uniform(-bound1, bound1, (d_in, d_hidden)), requires_grad=True),
            Tensor(np.zeros(d_hidden), requires_grad=True),
            Tensor(rng.uniform(-bound2, bound2, (d_hidden, d_out)), requires_grad=True),
            Tensor(np.zeros(d_out), requires_grad=True),
        )


@dataclass
class Gst2Params:
    """Parameters of one global awareness block; only the fields the sites of
    the variant use are allocated."""

    variant: str
    temporal: AttentionParams | None = None
    spatial: AttentionParams | None = None
    fusion: AttentionParams | None = None
    concat_proj: Tensor | None = None          # [2d, d], merge site only
    ffn: FfnParams | None = None
    norm: dict = field(default_factory=dict)   # site name -> LayerNormParams

    @staticmethod
    def create(variant: str, dim: int, heads: int, ffn_dim: int,
               rng: np.random.Generator) -> "Gst2Params":
        # the allocation order (temporal, spatial, fusion, concat_proj, FFN)
        # decides which draws of the seeded stream each tensor gets; keep it so
        # a seed gives the same model on every version
        if variant not in BLOCKS:
            raise ConfigError(f"unknown global layer variant '{variant}'")
        sites = set(BLOCKS[variant])
        p = Gst2Params(variant)
        if sites & {"temporal", "merge"}:
            p.temporal = AttentionParams.create(dim, heads, rng)
        if sites & {"spatial", "merge", "fusion"}:
            p.spatial = AttentionParams.create(dim, heads, rng)
        if "fusion" in sites:
            p.fusion = AttentionParams.create(dim, heads, rng)
        if "merge" in sites:
            bound = np.sqrt(1.0 / (2 * dim))
            p.concat_proj = Tensor(rng.uniform(-bound, bound, (2 * dim, dim)), requires_grad=True)
        if "ffn" in sites:
            p.ffn = FfnParams.create(dim, ffn_dim, dim, rng)
        p.norm = {site: LayerNormParams.create(dim) for site in BLOCKS[variant]}
        return p


def feed_forward(x: Tensor, p: FfnParams, dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """The feed-forward network relu(x w1 + b1) w2 + b2 over the last axis
    of x, with inverted dropout on the hidden activation when ``dropout`` > 0,
    as one tape entry. It is the position-wise FFN site
    of the global block and, with dropout 0, the model's output head.

    Forward and backward walk the rows of x in the same blocks, those of
    ``autodiff._blocks`` at the [rows, d_hidden] hidden activation's bytes a
    row. Per block, x w1 is written into a hidden buffer, and the bias, the
    ReLU and the block's dropout flags act on it in place before its product
    with w2 (times the dropout scale) fills the block's output rows. The ReLU
    is ``np.fmax(h, 0)``, which maps NaN to 0. The flags are drawn block by
    block in C order, the values one ``autodiff.dropout`` draw of the whole
    mask takes from the stream. A row's products are the same GEMM
    arithmetic in any block, so the output is bit for bit that of one block.

    The hidden activation is kept exactly when d_hidden <= d_in (the output
    head): the blocks fill one kept [rows, d_hidden] array. Otherwise (the
    block's FFN site) it is larger than x, which its producer keeps anyway,
    so the forward reuses one block buffer, the tape keeps x and the boolean
    dropout flags, and backward rebuilds each block's activation from x in a
    block buffer of its own (gradient checkpointing, Chen et al., arXiv
    1604.06174). Either way ReLU and dropout pass a gradient exactly where
    the activation is positive (so the subgradient at 0 is 0), the hidden
    gradient is written over the block's activation, which nothing reads
    after it, and the weight and bias gradients are added up block by block.
    Backward skips the products for the gradients of x, w1 and w2 when that
    input needs none; bias gradients are products with a ones vector."""
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {dropout}")
    w1, b1, w2, b2 = p.w1, p.b1, p.w2, p.b2
    d_in, d_hidden = w1.shape
    rows = x.data.reshape(-1, d_in)
    n = len(rows)
    blocks, block_rows = ad._blocks((n,), 8 * d_hidden)
    scale = 1.0 / (1.0 - dropout)
    hidden = np.empty((n, d_hidden)) if d_hidden <= d_in else None
    keep = np.empty((n, d_hidden), dtype=bool) if dropout > 0.0 and hidden is None else None

    def relu_rows(blk, buf, flags):
        # relu(x w1 + b1) of the rows blk, times their dropout flags, in
        # their slice of the kept activation or the front of buf
        x_b = rows[blk]
        h = buf[:len(x_b)] if hidden is None else hidden[blk]
        np.matmul(x_b, w1.data, out=h)
        h += b1.data
        np.fmax(h, 0.0, out=h)
        if flags is not None:
            h *= flags
        return h

    out = np.empty((n, w2.shape[1]))
    buf = np.empty((block_rows, d_hidden)) if hidden is None else None
    w2_scaled = w2.data * scale
    for blk in blocks:
        flags = None
        if dropout > 0.0:
            flags = ad._dropout_mask((len(out[blk]), d_hidden), dropout, rng)[0]
            if keep is not None:
                keep[blk] = flags
        np.matmul(relu_rows(blk, buf, flags), w2_scaled, out=out[blk])
    out += b2.data

    def back(g):
        g_rows = g.reshape(out.shape)
        ad._accum(b2, np.matmul(np.ones(n), g_rows))
        ones = np.ones(block_rows)
        g_x = np.empty_like(rows) if x.requires_grad else None
        w2_t = (w2.data * scale).T
        h_buf = np.empty((block_rows, d_hidden)) if hidden is None else None
        for blk in blocks:
            h = (relu_rows(blk, h_buf, None if keep is None else keep[blk])
                 if hidden is None else hidden[blk])
            g_b = g_rows[blk]
            if w2.requires_grad:
                g_w2 = np.matmul(h.T, g_b)
                g_w2 *= scale
                ad._accum(w2, g_w2)
            mask = h > 0.0
            g_h = np.matmul(g_b, w2_t, out=h)
            g_h *= mask
            ad._accum(b1, np.matmul(ones[:len(g_h)], g_h))
            if w1.requires_grad:
                ad._accum(w1, np.matmul(rows[blk].T, g_h))
            if g_x is not None:
                np.matmul(g_h, w1.data.T, out=g_x[blk])
        if g_x is not None:
            ad._accum(x, g_x.reshape(x.shape))

    return ad._record(Tensor(out.reshape(x.shape[:-1] + (w2.shape[1],))),
                      (x, w1, b1, w2, b2), back)


def _sublayer(site: str, x: Tensor, p: Gst2Params, dropout: float, rng) -> Tensor:
    if site == "temporal":
        return multi_head_attention(x, ((p.temporal, False),), dropout, rng)
    if site == "spatial":
        return multi_head_attention(x, ((p.spatial, True),), dropout, rng)
    if site == "merge":
        return multi_head_attention(x, ((p.temporal, False), (p.spatial, True)), dropout, rng,
                                    proj=p.concat_proj)
    if site == "fusion":
        s = multi_head_attention(x, ((p.spatial, True),), dropout, rng)
        return multi_head_attention(x, ((p.fusion, False),), dropout, rng, values=s)
    # "ffn": the position-wise feed-forward network
    return feed_forward(x, p.ffn, dropout, rng)


def apply_global_layer(h: Tensor, p: Gst2Params | None, input_dropout: float = 0.0,
                       inner_dropout: float = 0.0, rng=None) -> Tensor:
    """Global awareness block over h [B, N, T, d]: add positional encoding and
    input dropout, then run the sites of ``BLOCKS[p.variant]`` in order.
    ``p is None`` (variant 'none') passes h through unchanged."""
    if p is None:
        return h
    pe = positional_encoding(h.shape[2], h.shape[3])
    x = ad.dropout(ad.add(h, pe), input_dropout, rng)
    for site in BLOCKS[p.variant]:
        norm = p.norm[site]
        x = ad.layer_norm(_sublayer(site, x, p, inner_dropout, rng), x, norm.gamma, norm.beta)
    return x
