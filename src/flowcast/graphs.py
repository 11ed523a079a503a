"""Graph structure learning and the parts of the node-adaptive Chebyshev
graph convolution: the Chebyshev terms and the parameter pools.

Three ways to obtain the propagation matrices:

* static     -- one scaled Laplacian (2/lambda_max) L - I from a fixed
                adjacency, shared by every input step;
* adaptive   -- one learned row-stochastic matrix softmax(En @ En.T), shared
                by every input step;
* sequence   -- a distinct matrix per step t, softmax(E[t] @ E[t].T) with
                E[t] = LayerNorm(En + Ep[t]), so the graph evolves over the
                input window.

Each mode yields a GraphBundle holding only its matrices L;
GraphBundle.at(t, bank) picks the graph and node features step t reads. No
Chebyshev matrix T_k(L) is formed: cheb_recurrence computes the terms
T_k(L) x on the signal by the recurrence T_k x = 2 L T_{k-1} x - T_{k-2} x,
one L-product per term, as ChebNet does, and cheb_recurrence_adjoint is its
backward. They work on arrays in the layout [N, K+1, C, B], node-major and
batch-last, and their only callers are the GRU's gate and candidate ops in
:mod:`recurrent`, which hold the graph convolution and build the node
weights from the pools of SGCNParams inside each op and again in its
backward, so no node weights are kept from forward to backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidGraphError, ShapeError

@dataclass
class EmbeddingBank:
    """Learnable node/position embeddings plus the layer-norm affine used to
    combine them. ``position`` and the affine are only allocated in
    sequence-aware mode."""

    node: Tensor                 # [N, d_e]
    position: Tensor | None      # [T, 1, d_e]
    ln_gamma: Tensor | None      # [d_e]
    ln_beta: Tensor | None       # [d_e]

    @staticmethod
    def create(n_nodes: int, steps: int, embed_dim: int, rng: np.random.Generator,
               with_positions: bool = True) -> "EmbeddingBank":
        bound = np.sqrt(1.0 / embed_dim)
        node = Tensor(rng.uniform(-bound, bound, (n_nodes, embed_dim)), requires_grad=True)
        if not with_positions:
            return EmbeddingBank(node, None, None, None)
        position = Tensor(rng.uniform(-bound, bound, (steps, 1, embed_dim)), requires_grad=True)
        gamma = Tensor(np.ones(embed_dim), requires_grad=True)
        beta = Tensor(np.zeros(embed_dim), requires_grad=True)
        return EmbeddingBank(node, position, gamma, beta)


@dataclass
class GraphBundle:
    """The propagation matrices of one graph mode.

    Sequence-aware mode has a graph per step: ``laplacians`` is [T, N, N]
    and ``node_features`` the per-step embedding E[t] [T, N, d_e]. Static
    and adaptive mode have the one graph every step shares: ``laplacians``
    is [N, N] and ``node_features`` None. The Chebyshev order is not part of
    the bundle; the GRU's convolution reads it from the weight pool.
    """

    laplacians: Tensor
    node_features: Tensor | None = None

    def at(self, t: int, bank: EmbeddingBank) -> tuple[Tensor, Tensor]:
        """The graph L_t [N, N] and node features [N, d_e] step t reads; the
        shared graph and the static node embedding outside sequence-aware
        mode."""
        if self.node_features is None:
            return self.laplacians, bank.node
        return ad.select(self.laplacians, t, axis=0), ad.select(self.node_features, t, axis=0)


def cheb_recurrence(lap: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Fill the terms T_1(L) x .. T_K(L) x of flat [N, K+1, M], whose term 0
    holds the signal x, in place: T_1 x = L x, then T_k x = 2 L T_{k-1} x -
    T_{k-2} x, one [N, N] x [N, M] GEMM per term. Returns 2L for
    cheb_recurrence_adjoint."""
    np.matmul(lap, flat[:, 0], out=flat[:, 1])
    lap2 = 2.0 * lap          # (2L) y is 2 (L y) exactly: scaling by 2 is exact
    for k in range(2, flat.shape[1]):
        np.matmul(lap2, flat[:, k - 1], out=flat[:, k])
        flat[:, k] -= flat[:, k - 2]
    return lap2


def cheb_recurrence_adjoint(lap: Tensor, lap2: np.ndarray, flat: np.ndarray,
                            grads: np.ndarray, need_signal: bool) -> np.ndarray | None:
    """Backward of cheb_recurrence, given the gradients [N, K+1, M] of the
    terms flat: accumulates L's gradient into lap when it needs one and
    returns the signal's gradient [N, M] (None unless need_signal). It runs
    the recurrence in reverse, one L^T-product per term for the adjoints and
    one (adjoint) x (term)^T product per term for L's gradient."""
    order = flat.shape[1] - 1
    # a[k] is the adjoint of T_k x, from the top down:
    # a_k = g_k + 2 L^T a_{k+1} - a_{k+2}, with L^T in place of 2 L^T for k = 0
    a = [None] * order + [grads[:, order]]
    for k in range(order - 1, -1 if need_signal else 0, -1):
        a[k] = (lap2 if k >= 1 else lap.data).T @ a[k + 1]
        a[k] += grads[:, k]
        if k + 2 <= order:
            a[k] -= a[k + 2]
    if lap.requires_grad:
        # T_k x = 2 L T_{k-1} x - ..., so L's gradient is a_1 (T_0 x)^T
        # + 2 sum_{k >= 2} a_k (T_{k-1} x)^T
        gl = sum(a[k] @ flat[:, k - 1].T for k in range(2, order + 1))
        ad._accum(lap, a[1] @ flat[:, 0].T + 2.0 * gl)
    return a[0]


def build_sequence_graphs(bank: EmbeddingBank) -> GraphBundle:
    """Learned per-step graphs: E[t] = LayerNorm(En + Ep[t]), row-softmax of
    E[t] E[t]^T. Differentiable in the bank."""
    if bank.position is None:
        raise ShapeError("sequence-aware graphs need position embeddings in the bank")
    e = ad.layer_norm(bank.node, bank.position, bank.ln_gamma, bank.ln_beta)
    scores = ad.matmul(e, ad.transpose(e, (0, 2, 1)))       # [T, N, N]
    laplacians = ad.softmax(scores)
    return GraphBundle(laplacians, node_features=e)


def build_adaptive_graph(node_embedding: Tensor) -> GraphBundle:
    """Single learned graph softmax(En En^T), shared by every step."""
    scores = ad.matmul(node_embedding, ad.transpose(node_embedding, (1, 0)))
    lap = ad.softmax(scores)  # [N, N]
    return GraphBundle(lap)


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} for a symmetric nonnegative adjacency."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidGraphError(f"adjacency must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidGraphError("adjacency must be finite")
    if np.abs(a - a.T).max() > 1e-12:
        raise InvalidGraphError("adjacency must be symmetric")
    if a.min() < 0:
        raise InvalidGraphError("adjacency must be nonnegative")
    deg = a.sum(axis=1)
    zero = np.nonzero(deg == 0)[0]
    if zero.size:
        raise InvalidGraphError(f"nodes {zero.tolist()} have zero degree; cannot normalize")
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return np.eye(a.shape[0]) - (d_inv_sqrt[:, None] * a) * d_inv_sqrt[None, :]


def spectral_bound(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (the normalized Laplacian)."""
    return float(np.linalg.eigvalsh(matrix).max())


def build_static_graph(adjacency: np.ndarray) -> GraphBundle:
    """Scaled Laplacian (2/lambda_max) L - I from a fixed adjacency, shared by
    every step. The result is a constant (not learnable)."""
    lap = normalized_laplacian(adjacency)
    lam = spectral_bound(lap)
    scaled = Tensor((2.0 / lam) * lap - np.eye(lap.shape[0]))
    return GraphBundle(scaled)


@dataclass
class SGCNParams:
    """Node-adaptive convolution parameter pools, ``weight_pool`` [d_e, K+1,
    C_in, C_out] and ``bias_pool`` [d_e, C_out]. Nodes with similar
    embeddings e get similar weights e @ weight_pool and bias e @ bias_pool
    (built inside recurrent._conv)."""

    weight_pool: Tensor
    bias_pool: Tensor

    @staticmethod
    def create(embed_dim: int, order: int, c_in: int, c_out: int,
               rng: np.random.Generator) -> "SGCNParams":
        w_bound = np.sqrt(1.0 / ((order + 1) * c_in))
        b_bound = np.sqrt(1.0 / embed_dim)
        w = Tensor(rng.uniform(-w_bound, w_bound, (embed_dim, order + 1, c_in, c_out)),
                   requires_grad=True)
        b = Tensor(rng.uniform(-b_bound, b_bound, (embed_dim, c_out)), requires_grad=True)
        return SGCNParams(w, b)
