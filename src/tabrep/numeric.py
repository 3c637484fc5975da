"""Dense-tensor engine with reverse-mode differentiation.

All learned layers in the package are expressed through the ops below. Ops
run eagerly; only inside `recording()` do they go on a tape, which keeps
input-dependent depth (adaptive halting) trivial to support. Everything runs
in float64 so gradients can be verified against central finite differences.
`backward` frees each node's gradient and saved arrays as it passes them, so
only leaves keep `.grad` and training memory peaks at one step's forward tape.
Attention scales, masks and normalizes its score array in place, so its
softmax needs no second [b, heads, n, n] array.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager

import numpy as np

from .errors import (NonFiniteGradientError, NonScalarLossError, NotRecordingError,
                     ShapeMismatchError)

LAYER_NORM_EPS = 1e-5

# Large finite stand-in for -inf in masked softmax scores; exp() of the
# shifted value underflows to exactly 0.0, so masked entries cannot leak.
NEG_MASK_VALUE = 1e30
# `row_max` chains np.maximum over rows up to this long. Timed against the
# reduction on 256 to 16384 rows (2-vCPU x86 VM, numpy 2.4), the chain took
# 0.03-1.0x its time on rows of 2 to 16, 0.36-1.4x on rows of 24 and
# 2.1-4.3x on rows of 64; on 64 rows it broke even at 4 (a few µs either way).
ROW_MAX_CHAIN = 16

_tape: list | None = None  # nodes since the last `backward`; None outside `recording()`


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random stream derived from one root seed."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


class Tensor:
    """N-dimensional float64 array node in the differentiation graph.

    Ops build their nodes through `_node`; a tensor built directly is a
    leaf, with no backward function. `grad` is the gradient `backward`
    accumulated into a leaf (a parameter or a tensor built directly); the
    sweep clears it on every node it passes, so a node keeps none."""

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


def _node(data, parents, grads) -> Tensor:
    """One op: its value `data`, its operands `parents` and `grads(g, live)`,
    which maps the output gradient `g` to one share per parent, in order.
    `live[i]` is true when parent i requires a gradient; `grads` computes
    what the shares have in common once and gives a parent that is not live
    no work and None. Only inside `recording()`, and only if a parent is
    live, does the node get a backward function and go on the tape;
    otherwise it is a plain leaf."""
    out = Tensor(data)
    if _tape is None:
        return out
    live = tuple(p.requires_grad for p in parents)
    if any(live):
        out.requires_grad = True
        _tape.append(out)

        def backward_fn(g):
            for parent, share in zip(parents, grads(g, live)):
                if share is not None:
                    parent.accumulate(share)

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
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g, a.shape) if live[0] else None,
        _unbroadcast(g, b.shape) if live[1] else None))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatchError("sub", a.shape, b.shape) from None
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g, a.shape) if live[0] else None,
        _unbroadcast(-g, b.shape) if live[1] else None))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("mul", a.shape, b.shape) from None
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g * b.data, a.shape) if live[0] else None,
        _unbroadcast(g * a.data, b.shape) if live[1] else None))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _rows(x: np.ndarray) -> np.ndarray:
    """`x` [..., k] as one [N, k] matrix, for a flat GEMM."""
    return x.reshape(-1, x.shape[-1])


def matmul(a, b) -> Tensor:
    """Product over the last two axes. An [..., k] operand times a 2-D
    [k, m] weight runs as one flat [N, k] @ [k, m] GEMM, and the weight's
    gradient is one [N, k]ᵀ @ [N, m] GEMM."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if b.ndim == 2:
        a2 = _rows(a.data)
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def grads(g, live):
            g2 = _rows(g)
            return ((g2 @ b.data.T).reshape(a.shape) if live[0] else None,
                    a2.T @ g2 if live[1] else None)

        return _node(data, (a, b), grads)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(np.matmul(g, _swap_last(b.data)), a.shape) if live[0] else None,
        _unbroadcast(np.matmul(_swap_last(a.data), g), b.shape) if live[1] else None))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", *[t.shape for t in tensors]) from None
    keys, lo = [], 0
    for t in tensors:
        index = [slice(None)] * data.ndim
        index[axis] = slice(lo, lo + t.shape[axis])
        keys.append(tuple(index))
        lo += t.shape[axis]
    return _node(data, tensors, lambda g, live: [g[key] if need else None
                                                 for key, need in zip(keys, live)])


def take(a, key, distinct: bool = False) -> Tensor:
    """Slicing / advanced indexing; gradients scatter-add back into `a`, or
    are written there when the positions `key` picks are `distinct`."""
    a = as_tensor(a)

    def scatter(g, _live):
        share = np.zeros_like(a.data)
        if distinct:
            share[key] = g
        else:
            np.add.at(share, key, g)
        return (share,)

    return _node(a.data[key], (a,), scatter)


def place(a, key, shape) -> Tensor:
    """Zeros of `shape` with `a` written at `key`: the inverse of `take` at
    distinct positions. The gradient is `g[key]`."""
    a = as_tensor(a)
    data = np.zeros(shape)
    data[key] = a.data
    return _node(data, (a,), lambda g, _: (g[key],))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), lambda g, _: (g.reshape(a.shape),))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a,), lambda g, _: (np.transpose(g, inverse),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a,), lambda g, _: (g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-a.data))
    return _node(y, (a,), lambda g, _: (g * y * (1.0 - y),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _node(y, (a,), lambda g, _: (g * y,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g, _: (g / a.data,))


def _chain(op, x: np.ndarray, axis: int) -> np.ndarray:
    """`op(running, slice, out=running)` folded over the slices of `x` along
    `axis`, left to right; keeps `axis` with size 1."""
    at = (slice(None),) * axis
    out = x[at + (slice(0, 1),)].copy()
    for i in range(1, x.shape[axis]):
        op(out, x[at + (slice(i, i + 1),)], out=out)
    return out


def row_max(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """`x.max(axis=axis, keepdims=True)`. Over short rows it is taken as a
    chain of `np.maximum` over the slices along `axis`, because numpy's
    reduction is slow there; a max is the same whichever way it is taken."""
    axis %= x.ndim
    if not 0 < x.shape[axis] <= ROW_MAX_CHAIN:
        return x.max(axis=axis, keepdims=True)
    return _chain(np.maximum, x, axis)


def _first_max(x: np.ndarray, axis: int) -> np.ndarray:
    """`row_max`'s chain, keeping the first of equal values (0.0 and -0.0)
    as `np.argmax` picks it: `np.maximum` returns its second operand on a
    tie, and here that is the running max."""
    return _chain(lambda run, nxt, out: np.maximum(nxt, run, out=out), x, axis)


def row_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """`x.sum(axis=axis, keepdims=True)` added left to right, so a row's sum
    does not depend on where exact zeros sit in it; numpy's reduction groups
    the terms of a row of 8 or more by their positions."""
    return _chain(np.add, x, axis % x.ndim)


def _softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of `x` along `axis`, written into `out` (`x` itself to run
    in place) or into one new array. The denominator is a `row_sum`."""
    out = np.subtract(x, row_max(x, axis), out=out)
    np.exp(out, out=out)
    out /= row_sum(out, axis)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    y = _softmax(a.data, axis)
    return _node(y, (a,), lambda g, _: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def layer_norm(a, axis: int = -1, epsilon: float = LAYER_NORM_EPS, residual=None) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine). With
    an equal-shape `residual`, normalize `a + residual` as one op; both
    operands get the gradient of the sum."""
    parents = (as_tensor(a),) if residual is None else (as_tensor(a), as_tensor(residual))
    if parents[0].shape != parents[-1].shape:
        raise ShapeMismatchError("layer_norm", *(p.shape for p in parents))
    z = parents[0].data if residual is None else parents[0].data + parents[1].data
    mean = z.mean(axis=axis, keepdims=True)
    # `y` is one fresh buffer, centered and then scaled in place
    y = z - mean if residual is None else np.subtract(z, mean, out=z)
    var = (y * y).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    y *= inv

    def grads(g, live):
        gm = g.mean(axis=axis, keepdims=True)
        gy = (g * y).mean(axis=axis, keepdims=True)
        share = inv * (g - gm - y * gy)
        return [share if need else None for need in live]

    return _node(y, parents, grads)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """Two-layer ReLU network `relu(x @ w1 + b1) @ w2 + b2` over the last
    axis of `x` [..., k], as one op on flat GEMMs."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    x2 = _rows(x.data)
    try:
        hidden = x2 @ w1.data
        hidden += b1.data
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ w2.data
        out += b2.data
    except ValueError:
        raise ShapeMismatchError("mlp", x.shape, w1.shape, w2.shape) from None

    def grads(g, live):
        g2 = _rows(g)
        d_w2 = hidden.T @ g2 if live[3] else None
        d_b2 = g2.sum(axis=0) if live[4] else None
        if not any(live[:3]):
            return None, None, None, d_w2, d_b2
        d_pre = g2 @ w2.data.T
        d_pre *= hidden > 0
        return ((d_pre @ w1.data.T).reshape(x.shape) if live[0] else None,
                x2.T @ d_pre if live[1] else None,
                d_pre.sum(axis=0) if live[2] else None,
                d_w2, d_b2)

    return _node(out.reshape(x.shape[:-1] + out.shape[1:]), (x, w1, b1, w2, b2), grads)


def _heads(m: np.ndarray, b: int, n: int, heads: int) -> np.ndarray:
    """[b*n, heads*hd] rows as a [b, heads, n, hd] view."""
    return m.reshape(b, n, heads, -1).transpose(0, 2, 1, 3)


def _hidden_keys(mask: np.ndarray) -> np.ndarray:
    """[b, n, n]: true where key k is hidden from query q. `mask` [b, n]
    holds each slot's segment id, -1 for padding; a boolean mask is the
    one-segment case (true: 0, false: -1). A query sees the keys of its own
    segment; a padded query sees every key that is not padding."""
    mask = np.asarray(mask)
    segment = np.where(mask, 0, -1) if mask.dtype == bool else mask
    key, query = segment[:, None, :], segment[:, :, None]
    return (key < 0) | ((key != query) & (query >= 0))


def _attention_kernel(x: np.ndarray, w_qkv: np.ndarray, heads: int,
                      mask: np.ndarray | None):
    """Forward of `self_attention` up to its softmax: the flat input, the
    per-head Q, K and V of one [b*n, e] @ [e, 3e] GEMM, the score scale and
    the softmax weights [b, heads, n, n]. Hidden keys (see `_hidden_keys`)
    get a large negative score. The scores are scaled, masked and normalized
    in place, so the weights take the scores' memory."""
    b, n, e = x.shape
    x2 = _rows(x)
    qkv = x2 @ w_qkv
    q, k, v = (_heads(qkv[:, i * e:(i + 1) * e], b, n, heads) for i in range(3))
    scale = 1.0 / math.sqrt(e // heads)
    scores = np.matmul(q, _swap_last(k))
    scores *= scale
    if mask is not None:
        np.copyto(scores, -NEG_MASK_VALUE, where=_hidden_keys(mask)[:, None])
    return x2, q, k, v, scale, _softmax(scores, out=scores)


def attention_softmax(x, wq, wk, wv, heads: int, mask: np.ndarray | None = None) -> np.ndarray:
    """The softmax weights [b, heads, n, n] that `self_attention` mixes its
    values with; a plain array, never a node."""
    w_qkv = np.concatenate([as_tensor(w).data for w in (wq, wk, wv)], axis=1)
    return _attention_kernel(as_tensor(x).data, w_qkv, heads, mask)[-1]


def self_attention(x, wq, wk, wv, wo, heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Masked multi-head dot-product self-attention over the position axis
    of `x` [b, n, e], as one op. Head h owns columns h*hd:(h+1)*hd of the
    [e, e] projections `wq`, `wk` and `wv`; `wo` mixes the joined heads.
    `mask` [b, n] is a validity mask or a segment id per slot (see
    `_hidden_keys`); a hidden key gets a softmax weight of exactly 0, so
    segments packed into one row do not see each other."""
    x, wq, wk, wv, wo = (as_tensor(t) for t in (x, wq, wk, wv, wo))
    b, n, e = x.shape
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    x2, q, k, v, scale, weights = _attention_kernel(x.data, w_qkv, heads, mask)
    mixed = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(b * n, e)

    def grads(g, live):
        g2 = _rows(g)
        d_wo = mixed.T @ g2 if live[4] else None
        if not any(live[:4]):
            return None, None, None, None, d_wo
        d_mixed = _heads(g2 @ wo.data.T, b, n, heads)
        d_weights = np.matmul(d_mixed, _swap_last(v))
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * scale
        d_qkv = np.stack([np.matmul(d_scores, k), np.matmul(_swap_last(d_scores), q),
                          np.matmul(_swap_last(weights), d_mixed)])
        d_qkv = d_qkv.transpose(1, 3, 0, 2, 4).reshape(b * n, 3 * e)
        d_w = x2.T @ d_qkv if any(live[1:4]) else None
        return ((d_qkv @ w_qkv.T).reshape(b, n, e) if live[0] else None,
                *(d_w[:, i * e:(i + 1) * e] if live[1 + i] else None for i in range(3)),
                d_wo)

    return _node((mixed @ wo.data).reshape(b, n, e), (x, wq, wk, wv, wo), grads)


def softmax_cross_entropy(logits, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean negative log-likelihood of `labels` under the row-wise
    softmax of `logits` [n, C], as one op: -sum_i w_i log p_i[labels_i] /
    sum_i w_i, with one weight per row."""
    logits = as_tensor(logits)
    rows = np.arange(len(labels))
    shifted = logits.data - row_max(logits.data)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    picked = (shifted - np.log(total))[rows, labels]
    scale = 1.0 / weights.sum()

    def grads(g, _live):
        d_picked = g * scale * -weights
        share = e * (-d_picked[:, None] / total)
        share[rows, labels] += d_picked
        return (share,)

    return _node(np.sum(picked * -weights) * scale, (logits,), grads)


def dropout(a, rate: float, train: bool, rng: np.random.Generator | None = None,
            drawn: tuple | None = None) -> Tensor:
    """Inverted dropout; exact identity when `train` is false. With `drawn`,
    a `(shape, key)` pair, the mask is drawn in `shape` and `a` keeps its
    entries `[key]`: a packed tensor is dropped as its padded form would be."""
    a = as_tensor(a)
    if not train or rate <= 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs a generator")
    shape, key = (a.shape, ...) if drawn is None else drawn
    keep = (rng.random(shape) >= rate)[key]     # scaled to the float mask only while in use
    scale = 1.0 - rate
    return _node(a.data * (keep / scale), (a,), lambda g, _: (g * (keep / scale),))


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
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g, _: (_spread(g, a, axes, keepdims),))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g, _: (_spread(g, a, axes, keepdims) / count,))


def _argmax_node(a: Tensor, values: np.ndarray, axis: int, keepdims: bool,
                 valid: np.ndarray | None = None) -> Tensor:
    """Max of `values` (`a`'s data or a masked copy) along `axis`; each
    slice's gradient routes to its first argmax. Slices where `valid` is
    false read exactly 0.0 and route no gradient. Outside `recording()`
    there is nothing to route, and slices up to ROW_MAX_CHAIN long take the
    same max by `_first_max`, with no index built."""
    if _tape is None and values.shape[axis] <= ROW_MAX_CHAIN:
        y = _first_max(values, axis)
        y = y if valid is None else np.where(valid, y, 0.0)
        return Tensor(y if keepdims else np.squeeze(y, axis=axis))
    idx = np.expand_dims(np.argmax(values, axis=axis), axis)
    y = np.take_along_axis(values, idx, axis=axis)
    if valid is not None:
        y = np.where(valid, y, 0.0)

    def route(g, _live):
        if not keepdims:
            g = np.expand_dims(g, axis)
        if valid is not None:
            g = np.where(valid, g, 0.0)
        share = np.zeros_like(a.data)
        np.put_along_axis(share, idx, g, axis=axis)
        return (share,)

    return _node(y if keepdims else np.squeeze(y, axis=axis), (a,), route)


def tensor_max(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first argmax per slice."""
    a = as_tensor(a)
    return _argmax_node(a, a.data, axis % a.ndim, keepdims)


def masked_max(a, mask: np.ndarray, axis: int, keepdims: bool = False) -> Tensor:
    """Columnwise max over rows where `mask` is true.

    Slices with no valid rows yield exactly 0.0 and receive no gradient. Ties
    route the gradient to the lowest valid row index.
    """
    a = as_tensor(a)
    axis = axis % a.ndim
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape[: mask.ndim] or mask.ndim > a.ndim:
        raise ShapeMismatchError("masked_max", a.shape, mask.shape)
    full_mask = np.broadcast_to(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), a.shape)
    valid = np.expand_dims(full_mask.any(axis=axis), axis)
    return _argmax_node(a, np.where(full_mask, a.data, -np.inf), axis, keepdims, valid)


def backward(loss: Tensor) -> None:
    """Sweep the tape in reverse creation order from a scalar loss into the
    leaves' `.grad`, emptying the tape as it goes."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.shape}; expected a scalar")
    if _tape is None:
        raise NotRecordingError("backward needs the loss computed inside numeric.recording()")
    loss.accumulate(np.ones_like(loss.data))
    while _tape:
        # off the tape and out of the node before the call, so the node's
        # gradient and the arrays its backward function saved die with it
        node = _tape.pop()
        g, fn = node.grad, node._backward_fn
        node.grad = node._backward_fn = None
        if g is not None:
            fn(g)


# ---------------------------------------------------------------------------
# Parameter initialization and optimization
# ---------------------------------------------------------------------------


def drawing(rng: np.random.Generator):
    """The parameter maker of a fresh model. Model builders make each
    parameter as `param(name, shape, init)`, which here is the Parameter
    `name` holding `init(rng, shape)`; they make them in a fixed order, so
    equal streams give equal parameters. A checkpoint load passes a maker
    that takes each array from the file instead, and draws nothing."""
    return lambda name, shape, init: Parameter(init(rng, shape), name)


def glorot_init(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng: np.random.Generator, shape, scale: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape)


def zeros_init(_rng, shape) -> np.ndarray:
    """Zeros; draws nothing."""
    return np.zeros(shape)


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
        computed and checked first: a non-finite gradient, second moment or
        updated value raises before any parameter, moment or step count changes."""
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
            with np.errstate(over="ignore", invalid="ignore"):    # an overflow fails the check
                m = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
                v = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
                data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)
            if not (np.isfinite(data).all() and np.isfinite(v).all()):
                raise NonFiniteGradientError(p.name or "<unnamed>")
            updates.append((i, p, m, v, data))
        self.t = t
        for i, p, m, v, data in updates:
            self._m[i], self._v[i], p.data = m, v, data

