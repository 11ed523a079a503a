"""Graph structure learning and node-adaptive Chebyshev graph convolution.

Three ways to obtain the propagation matrices:

* static     -- one scaled Laplacian (2/lambda_max) L - I from a fixed
                adjacency, shared by every input step;
* adaptive   -- one learned row-stochastic matrix softmax(En @ En.T), shared
                by every input step;
* sequence   -- a distinct matrix per step t, softmax(E[t] @ E[t].T) with
                E[t] = LayerNorm(En + Ep[t]), so the graph evolves over the
                input window.

Each mode yields a GraphBundle holding its matrices and their stacked
Chebyshev polynomials T_0..T_K; GraphBundle.at(t, bank) picks the graph and
node features step t reads. The convolution (convolve) mixes channels with
node weights generated from the node features (SGCNParams.node_weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidGraphError, ShapeError

LN_EPS = 1e-5

# Power iteration for the spectral bound. Tolerance is far below the 1e-6
# contract so permuting node order perturbs lambda_max by ~1e-12 at most.
_POWER_TOL = 1e-12
_POWER_MAX_ITERS = 1000


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
    """The propagation matrices of one graph mode with their Chebyshev stack.

    Sequence-aware mode has a graph per step: ``laplacians`` is [T, N, N],
    ``cheb`` [K+1, T, N, N] and ``node_features`` the per-step embedding E[t]
    [T, N, d_e]. Static and adaptive mode have the one graph every step
    shares: ``laplacians`` is [N, N], ``cheb`` [K+1, N, N] and
    ``node_features`` None. cheb[0] is the identity and cheb[1] the matrices
    themselves.
    """

    laplacians: Tensor
    cheb: Tensor
    node_features: Tensor | None = None

    def at(self, t: int, bank: EmbeddingBank) -> tuple[Tensor, Tensor]:
        """The Chebyshev stack [K+1, N, N] and node features [N, d_e] step t
        reads; the shared graph and the static node embedding outside
        sequence-aware mode."""
        if self.node_features is None:
            return self.cheb, bank.node
        return ad.select(self.cheb, t, axis=1), ad.select(self.node_features, t, axis=0)


def _cheb_stack(laplacians: Tensor, order: int) -> Tensor:
    """Stack T_0..T_order of the [..., N, N] matrices via the recurrence
    T_{k+1} = 2 L T_k - T_{k-1}."""
    eye = Tensor(np.broadcast_to(np.eye(laplacians.shape[-1]), laplacians.shape))
    terms = [eye, laplacians]
    for _ in range(2, order + 1):
        nxt = ad.sub(ad.scalar_affine(ad.matmul(laplacians, terms[-1]), 2.0, 0.0), terms[-2])
        terms.append(nxt)
    return ad.stack(terms[: order + 1], axis=0)


def build_sequence_graphs(bank: EmbeddingBank, order: int) -> GraphBundle:
    """Learned per-step graphs: E[t] = LayerNorm(En + Ep[t]), row-softmax of
    E[t] E[t]^T, Chebyshev stack to ``order``. Differentiable in the bank."""
    if bank.position is None:
        raise ShapeError("sequence-aware graphs need position embeddings in the bank")
    e = ad.layer_norm(ad.add(bank.node, bank.position), bank.ln_gamma, bank.ln_beta, LN_EPS)
    scores = ad.matmul(e, ad.transpose(e, (0, 2, 1)))       # [T, N, N]
    laplacians = ad.softmax(scores, axis=-1)
    return GraphBundle(laplacians, _cheb_stack(laplacians, order), node_features=e)


def build_adaptive_graph(node_embedding: Tensor, order: int) -> GraphBundle:
    """Single learned graph softmax(En En^T), shared by every step."""
    scores = ad.matmul(node_embedding, ad.transpose(node_embedding, (1, 0)))
    lap = ad.softmax(scores, axis=-1)                        # [N, N]
    return GraphBundle(lap, _cheb_stack(lap, order))


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} for a symmetric nonnegative adjacency."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidGraphError(f"adjacency must be square, got shape {a.shape}")
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
    """Largest eigenvalue of a symmetric PSD matrix by power iteration, or
    2.0 (a valid bound for the normalized Laplacian) when the iteration does
    not settle within the budget."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 2.0
        v = w / norm
        new_lam = float(v @ (matrix @ v))
        if abs(new_lam - lam) < _POWER_TOL:
            return new_lam
        lam = new_lam
    return 2.0


def build_static_graph(adjacency: np.ndarray, order: int) -> GraphBundle:
    """Scaled Laplacian (2/lambda_max) L - I from a fixed adjacency, shared by
    every step. The result is a constant (not learnable)."""
    lap = normalized_laplacian(adjacency)
    lam = spectral_bound(lap)
    scaled = Tensor((2.0 / lam) * lap - np.eye(lap.shape[0]))
    return GraphBundle(scaled, _cheb_stack(scaled, order))


@dataclass
class SGCNParams:
    """Node-adaptive convolution parameter pools, ``weight_pool`` [d_e, K+1,
    C_in, C_out] and ``bias_pool`` [d_e, C_out]. Nodes with similar
    embeddings get similar weights and bias (see node_weights)."""

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

    def node_weights(self, e: Tensor) -> tuple[Tensor, Tensor]:
        """Per-node weights e @ weight_pool [N, K+1, C_in, C_out] and bias
        e @ bias_pool [N, C_out] from node features e [N, d_e]."""
        return ad.einsum("nd,dkio->nkio", e, self.weight_pool), ad.matmul(e, self.bias_pool)


def convolve(x: Tensor, cheb_t: Tensor, *weights: tuple[Tensor, Tensor]) -> list[Tensor]:
    """Graph convolution of x [B, N, C_in] on the stack cheb_t [K+1, N, N],
    one [B, N, C_out] output per (weights, bias) given: x is propagated once,
    then each output is one [B, (K+1) C_in] x [(K+1) C_in, C_out] product per node."""
    # [N, K+1, C_in, B]: the layout each per-node product reads as a view
    propagated = ad.einsum("knm,bmi->nkib", cheb_t, x)
    return [ad.add(ad.einsum("nkib,nkio->bno", propagated, theta), bias)
            for theta, bias in weights]


def sgcn_forward(x: Tensor, cheb_t: Tensor, e_t: Tensor, params: SGCNParams) -> Tensor:
    """convolve with the node weights of params at e_t [N, d_e] (see GraphBundle.at)."""
    return convolve(x, cheb_t, params.node_weights(e_t))[0]
