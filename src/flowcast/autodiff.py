"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Values live in numpy arrays. Every differentiable operation records an entry
(inputs, output, local backward rule) on a module-level tape while tracking is
enabled and at least one input requires a gradient. backward() replays the
tape in reverse and is the only consumer: it pops each entry as it runs the
entry's rule, so the arrays that entry keeps alive are released while the
rest of the tape is still being replayed. The tape is not thread-safe: one
training step owns it at a time.

An op output wraps the array the op produced without copying it, so it may be
a view of an input (reshape, transpose) or the input itself (dropout when not
training). Never write into the ``data`` of an op output; only leaves (see
``Tensor``) are updated in place, by optimizers between steps.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import ShapeError


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

    def detach(self) -> "Tensor":
        """A leaf holding a copy of the value, untouched by later updates."""
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scalar_affine(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scalar_affine(self, 1.0, -float(other))

    def __rsub__(self, other):
        return scalar_affine(self, -1.0, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_affine(self, -1.0, 0.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self) -> "Tensor":
        return mean_all(self)

    def abs(self) -> "Tensor":
        return absolute(self)


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


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> tuple:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), back)


def scalar_affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale * x + shift with python-scalar coefficients."""
    out = Tensor(x.data * scale + shift)

    def back(g):
        _accum(x, g * scale)

    return _record(out, (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dimensions broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} x {b.shape}")
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and {b.shape} do not broadcast") from None

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _record(out, (a, b), back)


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum, run as one batched matmul (see _contraction_plan).
    Each input index must appear in the output or in the other operand, so
    the gradient is the same contraction with operands swapped. No ellipsis,
    no repeated index within one operand. The output may be a view of the
    product in another axis order."""
    if "->" not in spec or "," not in spec or "..." in spec:
        raise ValueError(f"einsum: spec '{spec}' must be explicit two-operand form")
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    for name, sub_spec, other in (("first", a_spec, b_spec), ("second", b_spec, a_spec)):
        if len(set(sub_spec)) != len(sub_spec):
            raise ValueError(f"einsum: repeated index in {name} operand of '{spec}'")
        missing = set(sub_spec) - set(other) - set(out_spec)
        if missing:
            raise ValueError(f"einsum: indices {sorted(missing)} of '{spec}' are not differentiable")
    if len(set(out_spec)) != len(out_spec) or not set(out_spec) <= set(a_spec + b_spec):
        raise ValueError(f"einsum: output of '{spec}' repeats an index or names an unknown one")
    out = Tensor(_contract(a_spec, b_spec, out_spec, a.data, b.data))

    def back(g):
        if a.requires_grad:
            _accum(a, _contract(out_spec, b_spec, a_spec, g, b.data))
        if b.requires_grad:
            _accum(b, _contract(out_spec, a_spec, b_spec, g, a.data))

    return _record(out, (a, b), back)


def _contract(a_spec: str, b_spec: str, out_spec: str, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    swap, first_axes, first_3d, second_axes, second_3d, product_shape, out_axes = \
        _contraction_plan(a_spec, b_spec, out_spec, a.shape, b.shape)
    first, second = (b, a) if swap else (a, b)
    product = np.matmul(first.transpose(first_axes).reshape(first_3d),
                        second.transpose(second_axes).reshape(second_3d))
    return product.reshape(product_shape).transpose(out_axes)


@lru_cache(maxsize=256)
def _contraction_plan(a_spec: str, b_spec: str, out_spec: str, a_shape: tuple,
                      b_shape: tuple) -> tuple:
    """How one einsum runs as a single np.matmul, which uses BLAS where
    np.einsum does not.

    One operand is brought to [batch, rows, inner] and the other to
    [batch, inner, cols]: batch indices are in both operands and the output,
    rows and cols in one operand and the output, inner in both operands
    only. Each group keeps the index order of the larger of its operand and
    the output, so that the larger array is more often used as a view and
    not copied; the operands swap sides when that makes the product come out
    in the output's order. Returns whether they swap, each side's axis order
    and 3-d shape, the product's shape with its groups unfolded and the axis
    order that takes it to out_spec.
    """
    size = {}
    for spec, shape in ((a_spec, a_shape), (b_spec, b_shape)):
        if len(spec) != len(shape):
            raise ShapeError(f"einsum: operand '{spec}' does not match shape {shape}")
        for index, n in zip(spec, shape):
            if size.setdefault(index, n) != n:
                raise ShapeError(f"einsum: index '{index}' has sizes {size[index]} and {n}")
    out_size = math.prod(size[i] for i in out_spec)

    def ordered(group: set, spec: str, shape: tuple) -> list:
        return [i for i in (out_spec if out_size > math.prod(shape) else spec) if i in group]

    in_a, in_b, in_out = set(a_spec), set(b_spec), set(out_spec)
    batch = ordered(in_a & in_b & in_out, a_spec, a_shape)
    rows = ordered(in_a - in_b, a_spec, a_shape)
    cols = ordered(in_b - in_a, b_spec, b_shape)
    larger = a_spec if math.prod(a_shape) >= math.prod(b_shape) else b_spec
    inner = [i for i in larger if i not in in_out]
    swap = batch + rows + cols != list(out_spec) and batch + cols + rows == list(out_spec)
    if swap:
        a_spec, rows, b_spec, cols = b_spec, cols, a_spec, rows
    extent = lambda group: math.prod(size[i] for i in group)
    product = batch + rows + cols
    return (swap,
            tuple(a_spec.index(i) for i in batch + rows + inner),
            (extent(batch), extent(rows), extent(inner)),
            tuple(b_spec.index(i) for i in batch + inner + cols),
            (extent(batch), extent(inner), extent(cols)),
            tuple(size[i] for i in product),
            tuple(product.index(i) for i in out_spec))


# -- nonlinearities ----------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: no exp overflows.
    ex = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0, ex) / (1.0 + ex)
    out = Tensor(y)

    def back(g):
        _accum(x, g * y * (1.0 - y))

    return _record(out, (x,), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def back(g):
        _accum(x, g * (1.0 - y * y))

    return _record(out, (x,), back)


def relu(x: Tensor) -> Tensor:
    # Subgradient at 0 is 0.
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))

    def back(g):
        _accum(x, g * mask)

    return _record(out, (x,), back)


def absolute(x: Tensor) -> Tensor:
    out = Tensor(np.abs(x.data))

    def back(g):
        _accum(x, g * np.sign(x.data))

    return _record(out, (x,), back)


# -- reductions ---------------------------------------------------------------


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def back(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy() if keepdims else np.full(x.shape, g))
            return
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        if not keepdims:
            for ax in sorted(a % x.ndim for a in axes):
                g = np.expand_dims(g, ax)
        _accum(x, np.broadcast_to(g, x.shape))

    return _record(out, (x,), back)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.mean())

    def back(g):
        _accum(x, np.full(x.shape, g / x.size))

    return _record(out, (x,), back)


# -- normalization -------------------------------------------------------------


def softmax(x: Tensor, axis: int) -> Tensor:
    """Softmax along ``axis``, stabilized by max subtraction."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    y = ex / ex.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - dot))

    return _record(out, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to mean 0 / population variance 1, then
    apply the affine gamma * xhat + beta."""
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last dim {d} of {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(gamma.data * xhat + beta.data)

    def back(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead))
        _accum(beta, g.sum(axis=lead))
        if x.requires_grad:
            dxhat = g * gamma.data
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accum(x, gx)

    return _record(out, (x, gamma, beta), back)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity when not training or p == 0; inference needs no rescaling.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
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


def stack(tensors: list, axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("stack: need at least one tensor")
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError(f"stack: shapes {tensors[0].shape} and {t.shape} differ")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))
    ax = axis % out.ndim

    def back(g):
        for i, t in enumerate(tensors):
            _accum(t, np.take(g, i, axis=ax))

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
