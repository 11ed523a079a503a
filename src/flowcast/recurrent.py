"""Recurrent encoder: a GRU whose gates are graph convolutions.

Each gate applies the node-adaptive graph convolution from :mod:`graphs` to
the concatenation of the step input and the previous hidden state, so spatial
mixing happens inside every recurrent update:

    z = sigmoid(conv_z([x_t, h]))        update gate
    r = sigmoid(conv_r([x_t, h]))        reset gate
    c = tanh(conv_c([x_t, r * h]))       candidate state
    h' = z * h + (1 - z) * c
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import EmbeddingBank, GraphBundle, SGCNParams, sgcn_forward


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


def gru_cell_step(x_t: Tensor, h_prev: Tensor, cell: GruCellParams,
                  bundle: GraphBundle, bank: EmbeddingBank, t: int) -> Tensor:
    """One recurrent update at time step t. x_t is [B, N, C], h_prev and the
    result are [B, N, d_h]. All three gates read the step-t graph."""
    cheb_t, e_t = bundle.at(t, bank)
    joint = ad.concat([x_t, h_prev], axis=-1)
    z = ad.sigmoid(sgcn_forward(joint, cheb_t, e_t, cell.update))
    r = ad.sigmoid(sgcn_forward(joint, cheb_t, e_t, cell.reset))
    gated = ad.concat([x_t, ad.mul(r, h_prev)], axis=-1)
    cand = ad.tanh(sgcn_forward(gated, cheb_t, e_t, cell.candidate))
    return ad.add(ad.mul(z, h_prev), ad.mul(ad.scalar_affine(z, -1.0, 1.0), cand))


def encode_sequence(x: Tensor, cell: GruCellParams, bundle: GraphBundle,
                    bank: EmbeddingBank) -> Tensor:
    """Run the cell over x [B, T, N, C] from a zero initial state and stack
    the hidden states into [B, N, T, d_h]."""
    b, steps, n, _ = x.shape
    h = Tensor(np.zeros((b, n, cell.hidden_dim)))
    states = []
    for t in range(steps):
        x_t = ad.select(x, t, axis=1)
        h = gru_cell_step(x_t, h, cell, bundle, bank, t)
        states.append(h)
    return ad.stack(states, axis=2)
