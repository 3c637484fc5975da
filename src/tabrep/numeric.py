"""Dense-tensor engine with reverse-mode differentiation.

All learned layers in the package are expressed through the ops below. Ops
run eagerly; only inside `recording()` do they go on a tape, which keeps
input-dependent depth (adaptive halting) trivial to support. Everything runs
in float64 so gradients can be verified against central finite differences.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager

import numpy as np

from .errors import (NonFiniteGradientError, NonScalarLossError, NotRecordingError,
                     ShapeMismatchError)

LAYER_NORM_EPS = 1e-5
DEFAULT_DROPOUT = 0.1

# Large finite stand-in for -inf in masked softmax scores; exp() of the
# shifted value underflows to exactly 0.0, so masked entries cannot leak.
NEG_MASK_VALUE = 1e30

_tape: list | None = None  # nodes since the last `backward`; None outside `recording()`


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random stream derived from one root seed."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


class Tensor:
    """N-dimensional float64 array node in the differentiation graph.

    Ops build their nodes through `_node`; a tensor built directly is a
    leaf, with no backward function."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward_fn = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy in this tensor's memory layout, which keeps the later
            # BLAS calls and their rounding; `g` may be a read-only view
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # operator sugar; all reals routed through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


class Parameter(Tensor):
    """Named learnable tensor; ops over it are taped inside `recording()`."""

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def recording():
    """Record the block's ops on a fresh tape for `backward`."""
    global _tape
    outer, _tape = _tape, []
    try:
        yield
    finally:
        _tape = outer


def _node(data, *edges) -> Tensor:
    """One op: its value `data` and one edge `(parent, share)` per parent,
    where `share(g)` is that parent's part of the output gradient `g`. Only
    inside `recording()`, and only if a parent requires a gradient, does the
    node get a backward function over those parents and go on the tape;
    otherwise it is a plain leaf."""
    out = Tensor(data)
    if _tape is None:
        return out
    live = [edge for edge in edges if edge[0].requires_grad]
    if live:
        out.requires_grad = True
        _tape.append(out)

        def backward_fn(g):
            for parent, share in live:
                parent.accumulate(share(g))

        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatchError("add", a.shape, b.shape) from None
    return _node(data,
                 (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatchError("sub", a.shape, b.shape) from None
    return _node(data,
                 (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("mul", a.shape, b.shape) from None
    return _node(data,
                 (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None
    return _node(data,
                 (a, lambda g: _unbroadcast(np.matmul(g, _swap_last(b.data)), a.shape)),
                 (b, lambda g: _unbroadcast(np.matmul(_swap_last(a.data), g), b.shape)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", *[t.shape for t in tensors]) from None
    edges, lo = [], 0
    for t in tensors:
        index = [slice(None)] * data.ndim
        index[axis] = slice(lo, lo + t.shape[axis])
        edges.append((t, lambda g, key=tuple(index): g[key]))
        lo += t.shape[axis]
    return _node(data, *edges)


def take(a, key) -> Tensor:
    """Slicing / advanced indexing; gradients scatter-add back into `a`."""
    a = as_tensor(a)

    def scatter(g):
        share = np.zeros_like(a.data)
        np.add.at(share, key, g)
        return share

    return _node(a.data[key], (a, scatter))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a, lambda g: np.transpose(g, inverse)))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-a.data))
    return _node(y, (a, lambda g: g * y * (1.0 - y)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _node(y, (a, lambda g: g * y))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a, lambda g: g / a.data))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _node(y, (a, lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True))))


def layer_norm(a, axis: int = -1, epsilon: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine)."""
    a = as_tensor(a)
    mean_ = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mean_
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    y = centered * inv

    def share(g):
        gm = g.mean(axis=axis, keepdims=True)
        gy = (g * y).mean(axis=axis, keepdims=True)
        return inv * (g - gm - y * gy)

    return _node(y, (a, share))


def dropout(a, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; exact identity when `train` is false."""
    a = as_tensor(a)
    if not train or rate <= 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs a generator")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return _node(a.data * mask, (a, lambda g: g * mask))


def _norm_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def _spread(g: np.ndarray, a: Tensor, axes, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient broadcast back over `a`'s shape."""
    return np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.shape)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    return _node(a.data.sum(axis=axis, keepdims=keepdims),
                 (a, lambda g: _spread(g, a, axes, keepdims)))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    return _node(a.data.mean(axis=axis, keepdims=keepdims),
                 (a, lambda g: _spread(g, a, axes, keepdims) / count))


def _argmax_node(a: Tensor, values: np.ndarray, axis: int, keepdims: bool,
                 valid: np.ndarray | None = None) -> Tensor:
    """Max of `values` (`a`'s data or a masked copy) along `axis`; each
    slice's gradient routes to its first argmax. Slices where `valid` is
    false read exactly 0.0 and route no gradient."""
    idx = np.expand_dims(np.argmax(values, axis=axis), axis)
    y = np.take_along_axis(values, idx, axis=axis)
    if valid is not None:
        y = np.where(valid, y, 0.0)

    def route(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        if valid is not None:
            g = np.where(valid, g, 0.0)
        share = np.zeros_like(a.data)
        np.put_along_axis(share, idx, g, axis=axis)
        return share

    return _node(y if keepdims else np.squeeze(y, axis=axis), (a, route))


def tensor_max(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first argmax per slice."""
    a = as_tensor(a)
    return _argmax_node(a, a.data, axis % a.ndim, keepdims)


def masked_max(a, mask: np.ndarray, axis: int, keepdims: bool = False) -> Tensor:
    """Columnwise max over rows where `mask` is true.

    Slices with no valid rows yield exactly 0.0 and receive no gradient; the
    caller can detect them via `degenerate_rows`. Ties route the gradient to
    the lowest valid row index.
    """
    a = as_tensor(a)
    axis = axis % a.ndim
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape[: mask.ndim] or mask.ndim > a.ndim:
        raise ShapeMismatchError("masked_max", a.shape, mask.shape)
    full_mask = np.broadcast_to(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), a.shape)
    valid = np.expand_dims(full_mask.any(axis=axis), axis)
    return _argmax_node(a, np.where(full_mask, a.data, -np.inf), axis, keepdims, valid)


def degenerate_rows(mask: np.ndarray, axis: int) -> np.ndarray:
    """True where a masked_max slice had no valid rows."""
    return ~np.asarray(mask, dtype=bool).any(axis=axis)


def backward(loss: Tensor) -> None:
    """Sweep the tape in reverse creation order from a scalar loss into `.grad`."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.shape}; expected a scalar")
    if _tape is None:
        raise NotRecordingError("backward needs the loss computed inside numeric.recording()")
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(_tape):
        if node.grad is not None:
            node._backward_fn(node.grad)
    _tape.clear()


# ---------------------------------------------------------------------------
# Parameter initialization and optimization
# ---------------------------------------------------------------------------


def glorot_uniform(shape, rng: np.random.Generator, name: str) -> Parameter:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Parameter(rng.uniform(-limit, limit, size=shape), name=name)


def embedding_init(shape, rng: np.random.Generator, name: str, scale: float = 0.02) -> Parameter:
    return Parameter(rng.normal(0.0, scale, size=shape), name=name)


def zeros_param(shape, name: str) -> Parameter:
    return Parameter(np.zeros(shape), name=name)


class Adam:
    """Adaptive-moment optimizer; deterministic given parameter order."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update of every parameter with a gradient. All updates are
        computed and checked first: a non-finite gradient or updated value
        raises before any parameter, moment or the step count changes."""
        for p in self.params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(p.name or "<unnamed>")
        t = self.t + 1
        b1t = 1.0 - self.beta1 ** t
        b2t = 1.0 - self.beta2 ** t
        updates = []
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            m = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            v = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)
            if not np.isfinite(data).all():
                raise NonFiniteGradientError(p.name or "<unnamed>")
            updates.append((i, p, m, v, data))
        self.t = t
        for i, p, m, v, data in updates:
            self._m[i], self._v[i], p.data = m, v, data

