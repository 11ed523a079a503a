"""Global awareness layer: positional encoding, multi-head temporal/spatial
attention, fusion attention, and the one transformer-like block that reads
the full hidden-state sequence at once.

All attention operates on [B, N, T, d] hidden sequences. Temporal attention
attends over the T axis per node; spatial attention transposes N and T and
attends over nodes per step; fusion attention is temporal attention whose
value stream is the output of an inner spatial attention.

Every block variant is a row of the ``BLOCKS`` site table: after positional
encoding, each site applies its sublayer (an attention, the parallel merge of
temporal and spatial attention, or the feed-forward network) with a residual
connection and layer normalization. The three paper blocks combine temporal
and spatial attention in parallel, in series, or fused; ``ta_only`` and
``sa_only`` keep one attention for ablation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

LN_EPS = 1e-5

# test instrumentation: callables receiving every softmaxed attention matrix
_WEIGHT_OBSERVERS: list = []


@contextmanager
def capture_attention_weights():
    """Collect the row-stochastic attention weight arrays computed inside the
    block, for inspection in tests."""
    captured: list[np.ndarray] = []
    _WEIGHT_OBSERVERS.append(captured.append)
    try:
        yield captured
    finally:
        _WEIGHT_OBSERVERS.remove(captured.append)


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
    heads: int

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
            heads=heads,
        )


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         weight_dropout: float = 0.0, training: bool = False,
                         rng: np.random.Generator | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over the second-to-last axis.

    q, k are [..., L, d_k] and v is [..., L, d_v]; the weight rows are
    row-stochastic and the output lies in the convex hull of the v rows.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: q/k depth mismatch {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: k/v length mismatch {k.shape} vs {v.shape}")
    d_k = q.shape[-1]
    scores = ad.scalar_affine(ad.matmul(q, _swap_last(k)), 1.0 / np.sqrt(d_k), 0.0)
    weights = ad.softmax(scores, axis=-1)
    for observe in _WEIGHT_OBSERVERS:
        observe(weights.data)
    if weight_dropout > 0.0 and training:
        weights = ad.dropout(weights, weight_dropout, training, rng)
    return ad.matmul(weights, v)


def _swap_last(x: Tensor) -> Tensor:
    axes = list(range(x.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return ad.transpose(x, tuple(axes))


def _merge_heads(per_head: Tensor, w_o: Tensor) -> Tensor:
    # [B, G, h, L, d_k] -> [B, G, L, h*d_k] -> output projection
    b, g, h, l, d_k = per_head.shape
    merged = ad.reshape(ad.transpose(per_head, (0, 1, 3, 2, 4)), (b, g, l, h * d_k))
    return ad.matmul(merged, w_o)


def _multi_head(x: Tensor, p: AttentionParams, weight_dropout: float,
                training: bool, rng) -> Tensor:
    """Multi-head attention over the third axis of x [B, G, L, d]; each of the
    B*G groups attends independently over its L positions."""
    q = ad.einsum("bgld,hde->bghle", x, p.w_q)
    k = ad.einsum("bgld,hde->bghle", x, p.w_k)
    v = ad.einsum("bgld,hde->bghle", x, p.w_v)
    heads = scaled_dot_attention(q, k, v, weight_dropout, training, rng)
    return _merge_heads(heads, p.w_o)


def temporal_attention(x: Tensor, p: AttentionParams, weight_dropout: float = 0.0,
                       training: bool = False, rng=None) -> Tensor:
    """Attend over time steps independently per (batch, node). [B,N,T,d] in
    and out."""
    return _multi_head(x, p, weight_dropout, training, rng)


def spatial_attention(x: Tensor, p: AttentionParams, weight_dropout: float = 0.0,
                      training: bool = False, rng=None) -> Tensor:
    """Attend over nodes independently per (batch, step): transpose N and T,
    run the same multi-head attention, transpose back."""
    flipped = ad.transpose(x, (0, 2, 1, 3))
    out = _multi_head(flipped, p, weight_dropout, training, rng)
    return ad.transpose(out, (0, 2, 1, 3))


def stfa(x: Tensor, fusion: AttentionParams, spatial: AttentionParams,
         weight_dropout: float = 0.0, training: bool = False, rng=None) -> Tensor:
    """Fusion attention: temporal attention whose value stream is the output
    of a spatial attention over the same input."""
    s = spatial_attention(x, spatial, weight_dropout, training, rng)
    q = ad.einsum("bgld,hde->bghle", x, fusion.w_q)
    k = ad.einsum("bgld,hde->bghle", x, fusion.w_k)
    v = ad.einsum("bgld,hde->bghle", s, fusion.w_v)
    heads = scaled_dot_attention(q, k, v, weight_dropout, training, rng)
    return _merge_heads(heads, fusion.w_o)


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
class Gst2Params:
    """Parameters of one global awareness block; only the fields the sites of
    the variant use are allocated."""

    variant: str
    temporal: AttentionParams | None = None
    spatial: AttentionParams | None = None
    fusion: AttentionParams | None = None
    concat_proj: Tensor | None = None          # [2d, d], merge site only
    ffn_w1: Tensor | None = None
    ffn_b1: Tensor | None = None
    ffn_w2: Tensor | None = None
    ffn_b2: Tensor | None = None
    norms: dict = field(default_factory=dict)  # site name -> LayerNormParams

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
            w_bound = np.sqrt(1.0 / dim)
            p.ffn_w1 = Tensor(rng.uniform(-w_bound, w_bound, (dim, ffn_dim)), requires_grad=True)
            p.ffn_b1 = Tensor(np.zeros(ffn_dim), requires_grad=True)
            v_bound = np.sqrt(1.0 / ffn_dim)
            p.ffn_w2 = Tensor(rng.uniform(-v_bound, v_bound, (ffn_dim, dim)), requires_grad=True)
            p.ffn_b2 = Tensor(np.zeros(dim), requires_grad=True)
        p.norms = {site: LayerNormParams.create(dim) for site in BLOCKS[variant]}
        return p


def _sublayer(site: str, x: Tensor, p: Gst2Params, dropout: float, training: bool,
              rng) -> Tensor:
    if site == "temporal":
        return temporal_attention(x, p.temporal, dropout, training, rng)
    if site == "spatial":
        return spatial_attention(x, p.spatial, dropout, training, rng)
    if site == "merge":  # temporal and spatial attention side by side, projected to d
        ta = temporal_attention(x, p.temporal, dropout, training, rng)
        sa = spatial_attention(x, p.spatial, dropout, training, rng)
        return ad.matmul(ad.concat([ta, sa], axis=-1), p.concat_proj)
    if site == "fusion":
        return stfa(x, p.fusion, p.spatial, dropout, training, rng)
    # "ffn": the position-wise feed-forward network
    hidden = ad.relu(ad.add(ad.matmul(x, p.ffn_w1), p.ffn_b1))
    hidden = ad.dropout(hidden, dropout, training, rng)
    return ad.add(ad.matmul(hidden, p.ffn_w2), p.ffn_b2)


def apply_global_layer(h: Tensor, p: Gst2Params | None, input_dropout: float = 0.0,
                       inner_dropout: float = 0.0, training: bool = False, rng=None) -> Tensor:
    """Global awareness block over h [B, N, T, d]: add positional encoding and
    input dropout, then run the sites of ``BLOCKS[p.variant]`` in order.
    ``p is None`` (variant 'none') passes h through unchanged."""
    if p is None:
        return h
    pe = positional_encoding(h.shape[2], h.shape[3])
    x = ad.dropout(ad.add(h, ad.reshape(pe, (1, 1) + pe.shape)), input_dropout, training, rng)
    for site in BLOCKS[p.variant]:
        norm = p.norms[site]
        x = ad.layer_norm(ad.add(_sublayer(site, x, p, inner_dropout, training, rng), x),
                          norm.gamma, norm.beta, LN_EPS)
    return x
