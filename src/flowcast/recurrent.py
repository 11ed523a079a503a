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
from .graphs import EmbeddingBank, GraphBundle, SGCNParams, convolve


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

    def node_weights(self, e: Tensor) -> tuple:
        """The (weights, bias) of each gate from node features e [N, d_e]."""
        return tuple(gate.node_weights(e) for gate in (self.update, self.reset, self.candidate))


def gru_cell_step(x_t: Tensor, h_prev: Tensor, cell: GruCellParams,
                  bundle: GraphBundle, bank: EmbeddingBank, t: int) -> Tensor:
    """One recurrent update at time step t. x_t is [B, N, C], h_prev and the
    result are [B, N, d_h]. All three gates read the step-t graph."""
    cheb_t, e_t = bundle.at(t, bank)
    return _update(x_t, h_prev, cheb_t, cell.node_weights(e_t))


def _update(x_t: Tensor, h_prev: Tensor, cheb_t: Tensor, weights: tuple) -> Tensor:
    w_z, w_r, w_c = weights
    z, r = (ad.sigmoid(g) for g in convolve(ad.concat([x_t, h_prev], axis=-1), cheb_t, w_z, w_r))
    (cand,) = convolve(ad.concat([x_t, ad.mul(r, h_prev)], axis=-1), cheb_t, w_c)
    return ad.add(ad.mul(z, h_prev), ad.mul(ad.scalar_affine(z, -1.0, 1.0), ad.tanh(cand)))


def encode_sequence(x: Tensor, cell: GruCellParams, bundle: GraphBundle,
                    bank: EmbeddingBank) -> Tensor:
    """Run the cell over x [B, T, N, C] from a zero initial state and stack
    the hidden states into [B, N, T, d_h]. Outside sequence-aware mode every
    step reads the same node features, so the node weights are built once."""
    b, steps, n, _ = x.shape
    h = Tensor(np.zeros((b, n, cell.hidden_dim)))
    shared = cell.node_weights(bank.node) if bundle.node_features is None else None
    states = []
    for t in range(steps):
        cheb_t, e_t = bundle.at(t, bank)
        h = _update(ad.select(x, t, axis=1), h, cheb_t, shared or cell.node_weights(e_t))
        states.append(h)
    return ad.stack(states, axis=2)
