"""Dense-tensor engine with reverse-mode differentiation.

All learned layers in the package are expressed through the ops below. The
graph is eager and rebuilt on every forward pass, which keeps input-dependent
depth (adaptive halting) trivial to support. Everything runs in float64 so
gradients can be verified against central finite differences with headroom.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import NonFiniteGradientError, NonScalarLossError, ShapeMismatchError, TableIOError

CHECKPOINT_FORMAT = "tabrep-params"
CHECKPOINT_VERSION = 1

LAYER_NORM_EPS = 1e-5
DEFAULT_DROPOUT = 0.1

# Large finite stand-in for -inf in masked softmax scores; exp() of the
# shifted value underflows to exactly 0.0, so masked entries cannot leak.
NEG_MASK_VALUE = 1e30


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random stream derived from one root seed."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """N-dimensional float64 array node in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
    """Named learnable tensor; always participates in the gradient graph."""

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


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


def _broadcast_check(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("add", a, b)
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b), parents=(a, b))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    out._backward_fn = backward_fn
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("sub", a, b)
    out = Tensor(a.data - b.data, requires_grad=_needs_grad(a, b), parents=(a, b))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    out._backward_fn = backward_fn
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check("mul", a, b)
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b), parents=(a, b))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward_fn = backward_fn
    return out


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None
    out = Tensor(np.matmul(a.data, b.data), requires_grad=_needs_grad(a, b), parents=(a, b))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(np.matmul(g, _swap_last(b.data)), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.matmul(_swap_last(a.data), g), b.shape))

    out._backward_fn = backward_fn
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", *[t.shape for t in tensors]) from None
    out = Tensor(data, requires_grad=_needs_grad(*tensors), parents=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t.accumulate(g[tuple(index)])

    out._backward_fn = backward_fn
    return out


def take(a, key) -> Tensor:
    """Slicing / advanced indexing; gradients scatter-add back into `a`."""
    a = as_tensor(a)
    out = Tensor(a.data[key], requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, key, g)

    out._backward_fn = backward_fn
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    out._backward_fn = backward_fn
    return out


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.transpose(a.data, axes), requires_grad=a.requires_grad, parents=(a,))
    inverse = None if axes is None else np.argsort(axes)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(np.transpose(g, inverse))

    out._backward_fn = backward_fn
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0))

    out._backward_fn = backward_fn
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g * y * (1.0 - y))

    out._backward_fn = backward_fn
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g * y)

    out._backward_fn = backward_fn
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    out._backward_fn = backward_fn
    return out


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            a.accumulate(y * (g - inner))

    out._backward_fn = backward_fn
    return out


def layer_norm(a, axis: int = -1, epsilon: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine)."""
    a = as_tensor(a)
    mean_ = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mean_
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    y = centered * inv
    out = Tensor(y, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            gm = g.mean(axis=axis, keepdims=True)
            gy = (g * y).mean(axis=axis, keepdims=True)
            a.accumulate(inv * (g - gm - y * gy))

    out._backward_fn = backward_fn
    return out


def dropout(a, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; exact identity when `train` is false."""
    a = as_tensor(a)
    if not train or rate <= 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs a generator")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    out._backward_fn = backward_fn
    return out


def _norm_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), requires_grad=a.requires_grad, parents=(a,))
    axes = _norm_axes(axis, a.ndim)

    def backward_fn(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a.accumulate(np.broadcast_to(g, a.shape).copy())

    out._backward_fn = backward_fn
    return out


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a.accumulate(np.broadcast_to(g, a.shape) / count)

    out._backward_fn = backward_fn
    return out


def tensor_max(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first argmax per slice."""
    a = as_tensor(a)
    axis = axis % a.ndim
    idx = np.argmax(a.data, axis=axis)
    y = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis)
    data = y if keepdims else np.squeeze(y, axis=axis)
    out = Tensor(data, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axis)
            buf = np.zeros_like(a.data)
            np.put_along_axis(buf, np.expand_dims(idx, axis), g, axis=axis)
            a.accumulate(buf)

    out._backward_fn = backward_fn
    return out


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
    masked = np.where(full_mask, a.data, -np.inf)
    idx = np.argmax(masked, axis=axis)
    any_valid = full_mask.any(axis=axis)
    y = np.take_along_axis(masked, np.expand_dims(idx, axis), axis=axis)
    y = np.where(np.expand_dims(any_valid, axis), y, 0.0)
    data = y if keepdims else np.squeeze(y, axis=axis)
    out = Tensor(data, requires_grad=a.requires_grad, parents=(a,))

    def backward_fn(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axis)
            buf = np.zeros_like(a.data)
            np.put_along_axis(buf, np.expand_dims(idx, axis), np.where(np.expand_dims(any_valid, axis), g, 0.0), axis=axis)
            a.accumulate(buf)

    out._backward_fn = backward_fn
    return out


def degenerate_rows(mask: np.ndarray, axis: int) -> np.ndarray:
    """True where a masked_max slice had no valid rows."""
    return ~np.asarray(mask, dtype=bool).any(axis=axis)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into `.grad`."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.shape}; expected a scalar")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


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


# ---------------------------------------------------------------------------
# Checkpoint format: versioned JSON map name -> shape + row-major values
# ---------------------------------------------------------------------------


def params_to_dict(params: dict[str, Tensor]) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "tensors": {
            name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
            for name, t in params.items()
        },
    }


def dict_to_arrays(payload: dict) -> dict[str, np.ndarray]:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise TableIOError(f"not a parameter checkpoint: format={payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise TableIOError(f"unsupported checkpoint version {payload.get('version')!r}")
    out = {}
    for name, rec in payload["tensors"].items():
        out[name] = np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
        if not np.isfinite(out[name]).all():
            raise TableIOError(f"checkpoint tensor {name!r} holds a non-finite value")
    return out
