"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Values live in numpy arrays. Every differentiable operation records an entry
(inputs, output, local backward rule) on a module-level tape while tracking is
enabled and at least one input requires a gradient. backward() replays the
tape in reverse and is the only consumer: it pops each entry as it runs the
entry's rule, so the arrays that entry keeps alive are released while the
rest of the tape is still being replayed. The tape is not thread-safe: one
training step owns it at a time.

``matmul`` is the only contraction op: a contraction over other axes is
brought to it with ``reshape``/``transpose`` views of its operands.

An op output wraps the array the op produced without copying it, so it may be
a view of an input (reshape, transpose) or the input itself (dropout at rate
0, which is how inference runs it). Never write into the ``data`` of an op
output; only leaves (see ``Tensor``) are updated in place, by optimizers
between steps.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

# the variance floor of every layer_norm
LN_EPS = 1e-5


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer.

    ``data`` is the value array, wrapped without a copy when it already is a
    float64 array. A leaf is a tensor no op produced: a parameter, or an input
    built with ``requires_grad=True``. backward() fills ``grad`` of every leaf
    with ``requires_grad`` that the loss reaches; op outputs hold a gradient
    only while backward runs and end with ``grad is None``. Tensors are never
    mutated by operations; optimizers update leaf ``data`` in place between
    steps.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations: (output, inputs, backward rule)."""

    __slots__ = ("entries", "enabled")

    def __init__(self):
        self.entries = []
        self.enabled = True

    def clear(self):
        self.entries = []


_TAPE = Tape()


def tape() -> Tape:
    return _TAPE


def reset_tape():
    """Drop any recorded operations (e.g. after an aborted forward pass)."""
    _TAPE.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block; outputs carry no grad flag."""
    prev = _TAPE.enabled
    _TAPE.enabled = False
    try:
        yield
    finally:
        _TAPE.enabled = prev


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    if _TAPE.enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.entries.append((out, inputs, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray):
    # Rebinding addition, never +=: grad buffers may be views of other grads.
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor):
    """Populate grads of every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar (size-1) tensor produced on the active tape.
    Entries are popped newest first; each one's rule runs on its output's
    gradient, which is dropped right after, together with the entry and the
    arrays only it kept alive. Only leaves keep ``grad``. The tape is
    consumed: a second backward() needs a fresh forward pass.
    """
    if loss.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
    entries = _TAPE.entries
    _TAPE.entries = []
    loss.grad = np.ones_like(loss.data)
    while entries:
        out, _, fn = entries.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


# -- arithmetic -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting, into a new C-contiguous array whatever
    the memory layout of the inputs (the encoder's states arrive as a
    transposed view). Backward sums the gradient down to the shape of each
    input that needs one, and skips the others."""
    try:
        out = Tensor(np.add(a.data, b.data, order="C"))
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def back(g):
        for t in (a, b):
            if t.requires_grad:
                _accum(t, _unbroadcast(g, t.shape))

    return _record(out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dimensions broadcast.

    Backward computes only the gradients an input needs. A 2-d ``b`` (a
    weight) gets its gradient from one GEMM over all rows of ``a``,
    a[rows, K]^T @ g[rows, N], and not from one product per leading index
    summed afterwards."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} x {b.shape}")
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and {b.shape} do not broadcast") from None

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            if b.ndim == 2:
                gb = np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            _accum(b, gb)

    return _record(out, (a, b), back)


# -- nonlinearities ----------------------------------------------------------


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def back(g):
        _accum(x, g * (1.0 - y * y))

    return _record(out, (x,), back)


# -- normalization -------------------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction.

    One buffer: the forward writes x - max once and runs the exp and the
    normalization in place, with row sums as products with a ones vector;
    the backward allocates one array, the input gradient."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.matmul(y, np.ones((x.shape[-1], 1)))

    def back(g):
        # y * (g - rowdot(g, y))
        gx = g - np.einsum("...d,...d->...", g, y)[..., None]
        gx *= y
        _accum(x, gx)

    return _record(Tensor(y), (x,), back)


def layer_norm(a: Tensor, b: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """LayerNorm(a + b): the sum of a and b (numpy broadcasting) normalized
    over its last dimension to mean 0 / population variance 1 (with
    ``LN_EPS`` added to the variance), then the affine gamma * xhat + beta.
    Every caller normalizes a residual sum; pass a zero b to normalize one
    tensor.

    The forward allocates one [.., d] array, a + b, and runs the mean
    subtraction, the scaling and the affine in place on it, so that array is
    the output. Row sums are products with a ones vector and row dots are
    einsums. The op keeps only the row mean and inverse deviation, [.., 1]
    each: backward rebuilds xhat = (a + b - mean) * inv with the same ops, so
    bit for bit the forward's, and allocates no other [.., d] array. It takes
    gamma's and beta's gradients from xhat first, then turns xhat into the
    gradient of the sum in place, walking its rows in the blocks of
    ``attention._blocks``; each input that needs the gradient gets it summed
    down to its shape."""
    try:
        y = np.add(a.data, b.data)
    except ValueError:
        raise ShapeError(f"layer_norm: summands {a.shape} and {b.shape} do not broadcast") from None
    d = y.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last dim {d} of {y.shape}"
        )
    ones = np.ones((d, 1))
    mean = np.matmul(y, ones) / d                             # [.., 1]
    y -= mean
    inv = np.einsum("...d,...d->...", y, y)[..., None]         # [.., 1]
    inv /= d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    y *= inv
    y *= gamma.data
    y += beta.data

    def back(g):
        # imported here: attention imports this module
        from .attention import _blocks
        xhat = np.add(a.data, b.data)
        xhat -= mean
        xhat *= inv
        rows, xhat_rows = g.reshape(-1, d), xhat.reshape(-1, d)
        _accum(gamma, np.einsum("rd,rd->d", rows, xhat_rows))
        _accum(beta, np.einsum("rd->d", rows))
        if a.requires_grad or b.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
            inv_rows = inv.reshape(-1, 1)
            for blk in _blocks((len(rows),), 8 * d)[0]:
                gx = rows[blk] * gamma.data
                mean_dx = np.matmul(gx, ones) / d
                xhat_dot = np.einsum("rd,rd->r", gx, xhat_rows[blk])[:, None]
                xhat_dot /= d
                g_sum = xhat_rows[blk]
                g_sum *= xhat_dot
                np.subtract(gx, g_sum, out=g_sum)
                g_sum -= mean_dx
                g_sum *= inv_rows[blk]
            for t in (a, b):
                if t.requires_grad:
                    _accum(t, _unbroadcast(xhat, t.shape))

    return _record(Tensor(y), (a, b, gamma, beta), back)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    At p == 0 it returns x and draws nothing from ``rng``, which may then be
    None; that is how inference runs it, since inference needs no rescaling.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep, scale = _dropout_mask(x.shape, p, rng)
    out = Tensor(np.where(keep, x.data * scale, 0.0))

    def back(g):
        _accum(x, np.where(keep, g * scale, 0.0))

    return _record(out, (x,), back)


def _dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> tuple:
    """Keep mask and survivor scale of inverted dropout at rate p in (0, 1),
    from one ``rng.random(shape)`` draw."""
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


# -- structure ops -------------------------------------------------------------


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def back(g):
        _accum(x, g.reshape(x.shape))

    return _record(out, (x,), back)


def transpose(x: Tensor, axes: tuple) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: axes {axes} is not a permutation for shape {x.shape}")
    inv = np.argsort(axes)
    out = Tensor(x.data.transpose(axes))

    def back(g):
        _accum(x, g.transpose(inv))

    return _record(out, (x,), back)


def concat(tensors: list, axis: int = -1) -> Tensor:
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ax = axis % tensors[0].ndim
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(i != ax and other[i] != base[i] for i in range(len(base))):
            raise ShapeError(f"concat: shape {t.shape} incompatible with {tensors[0].shape} on axis {axis}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    sizes = [t.shape[ax] for t in tensors]

    def back(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(offset, offset + s)
            _accum(t, g[tuple(idx)])
            offset += s

    return _record(out, tuple(tensors), back)


def select(x: Tensor, index: int, axis: int) -> Tensor:
    """Pick one slice along ``axis`` (the axis is removed)."""
    ax = axis % x.ndim
    if not 0 <= index < x.shape[ax]:
        raise IndexError(f"select: index {index} out of range for axis {axis} of shape {x.shape}")
    out = Tensor(np.take(x.data, index, axis=ax))

    def back(g):
        full = np.zeros(x.shape)
        idx = [slice(None)] * x.ndim
        idx[ax] = index
        full[tuple(idx)] = g
        _accum(x, full)

    return _record(out, (x,), back)
