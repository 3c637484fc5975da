"""Dense-tensor engine with reverse-mode differentiation.

All learned layers in the package are expressed through the ops below. Ops
run eagerly; only inside `recording()` do they go on a tape, which keeps
input-dependent depth (adaptive halting) trivial to support. Everything runs
in float64 so gradients can be verified against central finite differences.
The tape holds one small slot per op: the gradient of its output, its backward
function, and its output's shape and layout, not the output's data. A backward
function holds only the arrays and shapes it reads, never an operand, so an
output that no backward reads dies as soon as the forward code drops it.
`backward` frees each slot's gradient and saved arrays as it passes them, so
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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8    # moment decays, denominator offset

# Large finite stand-in for -inf in masked softmax scores; exp() of the
# shifted value underflows to exactly 0.0, so masked entries cannot leak.
NEG_MASK_VALUE = 1e30
# `row_max` chains np.maximum over rows up to this long. Timed against the
# reduction on 256 to 16384 rows (2-vCPU x86 VM, numpy 2.4), the chain took
# 0.03-1.0x its time on rows of 2 to 16, 0.36-1.4x on rows of 24 and
# 2.1-4.3x on rows of 64; on 64 rows it broke even at 4 (a few µs either way).
ROW_MAX_CHAIN = 16

_tape: list | None = None  # slots since the last `backward`; None outside `recording()`


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random stream derived from one root seed."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _layout(data: np.ndarray):
    """`data`'s shape and the axis order, outermost first, of the array
    `np.empty_like(data)` makes: None for C order. Otherwise its axes are
    sorted by stride, largest first, as numpy sorts them."""
    if data.flags.c_contiguous:
        return data.shape, None
    if data.flags.f_contiguous:
        return data.shape, tuple(range(data.ndim))[::-1]
    return data.shape, tuple(sorted(range(data.ndim), key=lambda i: (-abs(data.strides[i]), i)))


def _blank(shape, perm) -> np.ndarray:
    """An uninitialized float64 array of `shape` in the axis order `perm`."""
    if perm is None:
        return np.empty(shape)
    return np.empty([shape[i] for i in perm]).transpose(np.argsort(perm))


def _owned_c(g, shape) -> bool:
    """Whether `g` is a writeable float64 array of `shape` that owns its
    memory and lays it out in C order, as `_blank(shape, None)` does."""
    if not (isinstance(g, np.ndarray) and g.shape == shape and g.dtype == np.float64
            and g.flags.owndata and g.flags.writeable):
        return False
    step, strides = g.itemsize, []
    for n in reversed(shape):
        strides.append(step)
        step *= n or 1
    return g.strides == tuple(reversed(strides))


class _Gradient:
    """Where `backward` sums a gradient: a leaf `Tensor`, or the slot of an
    op's output on the tape."""

    __slots__ = ("grad",)

    def accumulate(self, g: np.ndarray, adopt: bool = False) -> None:
        """Add the share `g`. The first share is copied into a fresh array
        in the layout of this gradient's data, which keeps the later BLAS
        calls and their rounding (`g` may be a read-only view). `adopt` is
        the caller's word that nothing else holds `g`; then a share that
        already is such an array, and owns its memory, is kept instead."""
        if self.grad is not None:
            self.grad += g
            return
        shape, perm = self._layout()
        if adopt and perm is None and _owned_c(g, shape):
            self.grad = g
        else:
            self.grad = _blank(shape, perm)
            self.grad[...] = g


class _Slot(_Gradient):
    """An op's output on the tape: its gradient, its backward function, and
    the shape and layout of its data, but not the data."""

    __slots__ = ("backward_fn", "shape", "perm")

    def __init__(self, data: np.ndarray, backward_fn):
        self.grad = None
        self.backward_fn = backward_fn
        self.shape, self.perm = _layout(data)

    def _layout(self):
        return self.shape, self.perm


class Tensor(_Gradient):
    """N-dimensional float64 array node in the differentiation graph.

    Ops build their outputs through `_node`; a tensor built directly is a
    leaf, with no slot. `grad` is the gradient `backward` accumulated into
    a leaf (a parameter or a tensor built directly); an op's output sums its
    gradient in its slot, which the sweep clears, so it keeps none."""

    __slots__ = ("data", "requires_grad", "_slot", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._slot: _Slot | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _layout(self):
        return _layout(self.data)

    @property
    def _backward_fn(self):
        """The backward function of this op output's slot; None on a leaf.
        Settable, so that perfbench can wrap it in a timer."""
        return None if self._slot is None else self._slot.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn) -> None:
        self._slot.backward_fn = fn

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


def _gradient_of(t: Tensor) -> _Gradient:
    """Where `t`'s gradient is summed: its slot, or `t` itself if it is a leaf."""
    return t if t._slot is None else t._slot


def _node(data, parents, grads) -> Tensor:
    """One op: its value `data`, its operands `parents` and `grads(g, live)`,
    which maps the output gradient `g` to one share per parent, in order.
    `live[i]` is true when parent i requires a gradient; `grads` computes
    what the shares have in common once and gives a parent that is not live
    no work and None. `grads` holds the arrays and shapes it reads, never a
    parent. Only inside `recording()`, and only if a parent is live, does
    the output get a slot on the tape; otherwise it is a plain leaf."""
    out = Tensor(data)
    if _tape is None:
        return out
    live = tuple(p.requires_grad for p in parents)
    if not any(live):
        return out
    targets = tuple(_gradient_of(p) if need else None for p, need in zip(parents, live))

    def backward_fn(g):
        shares = grads(g, live)
        for i, (target, share) in enumerate(zip(targets, shares)):
            if share is not None:
                # a share given to two parents is copied by the second
                target.accumulate(share, adopt=not any(share is s for s in shares[:i]))

    out.requires_grad = True
    out._slot = _Slot(data, backward_fn)
    _tape.append(out._slot)
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
    sa, sb = a.shape, b.shape
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g, sa) if live[0] else None,
        _unbroadcast(g, sb) if live[1] else None))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatchError("sub", a.shape, b.shape) from None
    sa, sb = a.shape, b.shape
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g, sa) if live[0] else None,
        _unbroadcast(-g, sb) if live[1] else None))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("mul", a.shape, b.shape) from None
    # each share reads the other operand's data
    sa, sb = a.shape, b.shape
    x, y = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(g * y, sa) if live[0] else None,
        _unbroadcast(g * x, sb) if live[1] else None))


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
    # each share reads the other operand's data
    sa, sb = a.shape, b.shape
    y = b.data if a.requires_grad else None
    if b.ndim == 2:
        a2 = _rows(a.data)
        data = (a2 @ b.data).reshape(sa[:-1] + sb[1:])
        x2 = a2 if b.requires_grad else None

        def grads(g, live):
            g2 = _rows(g)
            return ((g2 @ y.T).reshape(sa) if live[0] else None,
                    x2.T @ g2 if live[1] else None)

        return _node(data, (a, b), grads)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None
    x = a.data if b.requires_grad else None
    return _node(data, (a, b), lambda g, live: (
        _unbroadcast(np.matmul(g, _swap_last(y)), sa) if live[0] else None,
        _unbroadcast(np.matmul(_swap_last(x), g), sb) if live[1] else None))


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
    are written there when the positions `key` picks are `distinct`. Rows
    of a 2-D table picked by an integer array (an embedding lookup) sum
    their gradient with one `np.bincount`, which adds in input order from
    0.0, as `np.add.at` does."""
    a = as_tensor(a)
    shape = a.shape
    lookup = not distinct and a.ndim == 2 and isinstance(key, np.ndarray) and key.dtype.kind in "iu"

    def scatter(g, _live):
        if lookup:
            rows, d = shape
            cells = (key % rows)[..., None] * d + np.arange(d)
            return (np.bincount(cells.ravel(), weights=g.ravel(),
                                minlength=rows * d).reshape(shape),)
        share = np.zeros(shape)
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
    sa = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g, _: (g.reshape(sa),))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a,), lambda g, _: (np.transpose(g, inverse),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _node(np.maximum(x, 0.0), (a,), lambda g, _: (g * (x > 0),))


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
    x = a.data
    return _node(np.log(x), (a,), lambda g, _: (g / x,))


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


def _first_max(x: np.ndarray, axis: int, index: bool = False):
    """`row_max`'s chain, keeping the first of equal values (0.0 and -0.0)
    as `np.argmax` picks it: `np.maximum` returns its second operand on a
    tie, and here that is the running max. Returns the max (`axis` kept
    with size 1) and, with `index`, the position along `axis` that
    `np.argmax` gives, else None: a later slice takes it only when it is
    greater, or is the first NaN."""
    at = (slice(None),) * axis
    run = x[at + (slice(0, 1),)].copy()
    idx = np.zeros(run.shape, dtype=np.intp) if index else None
    for i in range(1, x.shape[axis]):
        nxt = x[at + (slice(i, i + 1),)]
        if index:
            # not (nxt <= run) is nxt > run or nxt NaN; a NaN run keeps its place
            wins = np.less_equal(nxt, run)
            np.logical_not(wins, out=wins)
            wins &= run == run
            np.copyto(idx, i, where=wins)
        np.maximum(nxt, run, out=run)
    return run, idx


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


def layer_norm(a, axis: int = -1, residual=None) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y *= inv

    def grads(g, live):
        gm = g.mean(axis=axis, keepdims=True)
        gy = (g * y).mean(axis=axis, keepdims=True)
        share = g - gm                  # inv * (g - gm - y * gy), in one buffer
        share -= y * gy
        share *= inv
        return [share if need else None for need in live]

    return _node(y, parents, grads)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """Two-layer ReLU network `relu(x @ w1 + b1) @ w2 + b2` over the last
    axis of `x` [..., k], as one op on flat GEMMs."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    x2, sx, w1d, w2d = _rows(x.data), x.shape, w1.data, w2.data
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
        d_pre = g2 @ w2d.T
        d_pre *= hidden > 0
        return ((d_pre @ w1d.T).reshape(sx) if live[0] else None,
                x2.T @ d_pre if live[1] else None,
                d_pre.sum(axis=0) if live[2] else None,
                d_w2, d_b2)

    return _node(out.reshape(sx[:-1] + out.shape[1:]), (x, w1, b1, w2, b2), grads)


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
    w_qkv, w_o = np.concatenate([wq.data, wk.data, wv.data], axis=1), wo.data
    x2, q, k, v, scale, weights = _attention_kernel(x.data, w_qkv, heads, mask)
    mixed = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(b * n, e)

    def grads(g, live):
        g2 = _rows(g)
        d_wo = mixed.T @ g2 if live[4] else None
        if not any(live[:4]):
            return None, None, None, None, d_wo
        d_mixed = _heads(g2 @ w_o.T, b, n, heads)
        # the weights' gradient, turned into the scores' gradient in place
        d_scores = np.matmul(d_mixed, _swap_last(v))
        d_scores -= (d_scores * weights).sum(axis=-1, keepdims=True)
        d_scores *= weights
        d_scores *= scale
        # the Q, K and V gradients go straight into their [b*n, 3e] columns
        d_qkv = np.empty((b, n, 3, heads, e // heads))
        d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(d_scores, k, out=d_q)
        np.matmul(_swap_last(d_scores), q, out=d_k)
        np.matmul(_swap_last(weights), d_mixed, out=d_v)
        del d_mixed, d_scores                 # freed before the last two products
        d_qkv = d_qkv.reshape(b * n, 3 * e)
        d_w = x2.T @ d_qkv if any(live[1:4]) else None
        return ((d_qkv @ w_qkv.T).reshape(b, n, e) if live[0] else None,
                *(d_w[:, i * e:(i + 1) * e] if live[1 + i] else None for i in range(3)),
                d_wo)

    return _node((mixed @ w_o).reshape(b, n, e), (x, wq, wk, wv, wo), grads)


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


def _spread(g: np.ndarray, shape, axes, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient broadcast back over its input's `shape`."""
    return np.broadcast_to(g if keepdims else np.expand_dims(g, axes), shape)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape, axes = a.shape, _norm_axes(axis, a.ndim)
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g, _: (_spread(g, shape, axes, keepdims),))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape, axes = a.shape, _norm_axes(axis, a.ndim)
    count = int(np.prod([shape[ax] for ax in axes]))
    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g, _: (_spread(g, shape, axes, keepdims) / count,))


def _argmax_node(a: Tensor, values: np.ndarray, axis: int, keepdims: bool,
                 valid: np.ndarray | None = None) -> Tensor:
    """Max of `values` (`a`'s data or a masked copy) along `axis`; each
    slice's gradient routes to its first argmax. Slices where `valid` is
    false read exactly 0.0 and route no gradient. Slices up to
    ROW_MAX_CHAIN long take the max by `_first_max`, which builds the
    argmax only when there is a gradient to route."""
    n, routed = values.shape[axis], _tape is not None and a.requires_grad
    if n <= ROW_MAX_CHAIN:
        y, idx = _first_max(values, axis, index=routed)
    else:
        idx = np.expand_dims(np.argmax(values, axis=axis), axis)
        y = np.take_along_axis(values, idx, axis=axis)
    if valid is not None:
        y = np.where(valid, y, 0.0)
    if not routed:
        return Tensor(y if keepdims else np.squeeze(y, axis=axis))
    at = np.arange(n).reshape((n,) + (1,) * (values.ndim - axis - 1)) == idx

    def route(g, _live):
        if not keepdims:
            g = np.expand_dims(g, axis)
        if valid is not None:
            g = np.where(valid, g, 0.0)
        return (np.where(at, g, 0.0),)

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
    _gradient_of(loss).accumulate(np.ones_like(loss.data))
    while _tape:
        # off the tape and out of the slot before the call, so the slot's
        # gradient and the arrays its backward function saved die with it
        slot = _tape.pop()
        g, fn = slot.grad, slot.backward_fn
        slot.grad = slot.backward_fn = None
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


def embedding_init(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape)


def zeros_init(_rng, shape) -> np.ndarray:
    """Zeros; draws nothing."""
    return np.zeros(shape)


def zeros_param(shape, name: str) -> Parameter:
    return Parameter(np.zeros(shape), name=name)


class Adam:
    """Adaptive-moment optimizer; deterministic given parameter order."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
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
        b1t = 1.0 - ADAM_BETA1 ** t
        b2t = 1.0 - ADAM_BETA2 ** t
        updates = []
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            with np.errstate(over="ignore", invalid="ignore"):    # an overflow fails the check
                m = ADAM_BETA1 * self._m[i] + (1.0 - ADAM_BETA1) * g
                v = ADAM_BETA2 * self._v[i] + (1.0 - ADAM_BETA2) * (g * g)
                data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
            if not (np.isfinite(data).all() and np.isfinite(v).all()):
                raise NonFiniteGradientError(p.name or "<unnamed>")
            updates.append((i, p, m, v, data))
        self.t = t
        for i, p, m, v, data in updates:
            self._m[i], self._v[i], p.data = m, v, data

