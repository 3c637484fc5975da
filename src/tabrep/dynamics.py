"""Recurrent transformer block over customer record sequences.

One shared refinement step (multi-head self-attention plus a position-wise
transition) is applied repeatedly; every sequence position carries its own
halting accumulator and stops refining once the accumulated halting
probability crosses 1 - epsilon, or at the step cap. The final sequence
state takes, per position, a snapshot at that position's halting step.

Sizes come from the model's `ModelConfig`: the width n_e is its `embed_dim`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numeric
from .errors import AllMaskedError, ShapeMismatchError
from .numeric import Parameter, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class TransformerParams:
    """Step-shared weights: query/key/value projections, output mixer,
    transition pair, halting unit and the final sequence-to-vector mixer.

    `wq`, `wk` and `wv` are [n_e, n_e] each; head h owns columns
    h*head_dim:(h+1)*head_dim, drawn as its own [n_e, head_dim] block."""

    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    ts_w1: Parameter
    ts_b1: Parameter
    ts_w2: Parameter
    ts_b2: Parameter
    halt_w: Parameter
    halt_b: Parameter
    wd: Parameter

    @classmethod
    def init(cls, config: ModelConfig, param, name: str) -> "TransformerParams":
        """The weights, each made by `param(name, shape, init)` (see
        `numeric.drawing`) in field order."""
        n_e, hd = config.embed_dim, config.head_dim
        hidden = 2 * n_e
        glorot, zeros = numeric.glorot_init, numeric.zeros_init

        def per_head(rng, shape):
            return np.concatenate([glorot(rng, (n_e, hd)) for _ in range(config.heads)], axis=1)

        return cls(
            wq=param(f"{name}.wq", (n_e, n_e), per_head),
            wk=param(f"{name}.wk", (n_e, n_e), per_head),
            wv=param(f"{name}.wv", (n_e, n_e), per_head),
            wo=param(f"{name}.wo", (n_e, n_e), glorot),
            ts_w1=param(f"{name}.ts_w1", (n_e, hidden), glorot),
            ts_b1=param(f"{name}.ts_b1", (hidden,), zeros),
            ts_w2=param(f"{name}.ts_w2", (hidden, n_e), glorot),
            ts_b2=param(f"{name}.ts_b2", (n_e,), zeros),
            halt_w=param(f"{name}.halt_w", (n_e, 1), glorot),
            halt_b=param(f"{name}.halt_b", (1,), zeros),
            wd=param(f"{name}.wd", (config.n_s * n_e, n_e), glorot),
        )

    def parameters(self) -> list[Parameter]:
        return [self.wq, self.wk, self.wv, self.wo, self.ts_w1, self.ts_b1,
                self.ts_w2, self.ts_b2, self.halt_w, self.halt_b, self.wd]


@functools.lru_cache(maxsize=None)
def coordinate_embedding(step: int, n_s: int, n_e: int) -> np.ndarray:
    """Constant (position, time) coordinate matrix for one refinement step.

    Sinusoidal position code plus a sinusoidal code of the step index,
    summed; rows differ by position, steps shift every row by the same
    time component. Deterministic, never learned; computed once and
    read-only.
    """
    if step < 1:
        raise ValueError("step index starts at 1")
    code = _sinusoid(np.arange(n_s), n_e) + _sinusoid(np.array([step]), n_e)
    code.flags.writeable = False
    return code


def _sinusoid(positions: np.ndarray, width: int) -> np.ndarray:
    half = (width + 1) // 2
    freqs = np.exp(-np.log(10000.0) * (np.arange(half) / max(1, half)))
    angles = positions[:, None] * freqs[None, :]
    code = np.zeros((len(positions), width))
    code[:, 0::2] = np.sin(angles[:, : (width + 1) // 2])
    code[:, 1::2] = np.cos(angles[:, : width // 2])
    return code


# `pack` pads to a multiple of this many slots: on more than one thread,
# OpenBLAS sums a weight gradient over the slots (a GEMM's inner dimension)
# in another order unless their count is a multiple of 32 (scipy-openblas
# 0.3.31, x86 Haswell kernels), and trained weights must not depend on the
# thread count.
SLOT_MULTIPLE = 32


@dataclass(frozen=True)
class Packing:
    """The valid positions of [b, n_s] windows laid into rows of n_s slots.

    Slot (r, j) holds position `position[r, j]` of window `window[r, j]`;
    `(window, position)` indexes the padded [b, n_s] layout, and no two
    slots index the same place. `segment` is the window of a filled slot
    and -1 for an empty one; an empty slot indexes a padded position."""

    padded: tuple[int, int]         # (b, n_s), the padded layout
    window: np.ndarray              # [rows, n_s] int
    position: np.ndarray            # [rows, n_s] int
    segment: np.ndarray             # [rows, n_s] int

    @property
    def key(self) -> tuple[np.ndarray, np.ndarray]:
        return self.window, self.position


def pack(valid: np.ndarray) -> Packing:
    """First-fit decreasing packing of the windows of a [b, n_s] mask, each
    window's valid positions kept in order and contiguous. Windows are
    placed longest first, in batch order among equal lengths; all windows of
    one length are placed at once, so the loop runs over lengths, not
    windows. Empty rows are added until the slot count is a multiple of
    SLOT_MULTIPLE, if that takes no more rows than there are windows."""
    b, n_s = valid.shape
    lengths = valid.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    counts = np.bincount(lengths, minlength=n_s + 1).tolist()
    room = np.zeros(0, dtype=np.int64)          # free slots of each row so far
    row_of = np.zeros(b, dtype=np.int64)        # each window's row and first slot
    first = np.zeros(b, dtype=np.int64)
    done = 0
    for length in range(n_s, 0, -1):
        count = counts[length]
        if not count:
            continue
        # first fit: each row in turn takes as many as its room holds
        fits = room // length
        took = np.minimum(fits, np.maximum(count - (fits.cumsum() - fits), 0))
        left = count - int(took.sum())
        if left:
            per_row = n_s // length
            fresh = -(-left // per_row)
            took = np.concatenate((took, [per_row] * (fresh - 1) + [left - per_row * (fresh - 1)]))
            room = np.concatenate((room, [n_s] * fresh))
        rows = np.arange(len(room)).repeat(took)
        nth = np.arange(count) - (took.cumsum() - took)[rows]     # among its row's takes
        who = order[done:done + count]
        row_of[who], first[who] = rows, n_s - room[rows] + nth * length
        room -= took * length
        done += count
    step = SLOT_MULTIPLE // math.gcd(SLOT_MULTIPLE, n_s)
    aligned = -(-len(room) // step) * step
    n_rows = aligned if aligned <= b else len(room)

    w, pos = np.nonzero(valid)
    nth = np.arange(len(w)) - (lengths.cumsum() - lengths).repeat(lengths)   # in its window
    slot = (row_of * n_s + first)[w] + nth
    window = np.empty(n_rows * n_s, dtype=np.int64)
    position = np.empty_like(window)
    segment = np.full_like(window, -1)
    window[slot], position[slot], segment[slot] = w, pos, w
    empty = segment < 0
    pw, pp = np.nonzero(~valid)
    window[empty], position[empty] = pw[:empty.sum()], pp[:empty.sum()]
    shape = (n_rows, n_s)
    return Packing((b, n_s), window.reshape(shape), position.reshape(shape),
                   segment.reshape(shape))


@functools.lru_cache(maxsize=1)
def _pack_bytes(shape: tuple[int, int], mask: bytes) -> Packing:
    """`pack` of the boolean mask whose bytes are `mask`; both dynamic
    branches of a forward pack the same mask, so the second takes the
    first's packing."""
    return pack(np.frombuffer(mask, dtype=bool).reshape(shape))


def _check_attention(e: Tensor, config: ModelConfig,
                     mask: np.ndarray | None) -> np.ndarray | None:
    """The [b, n_s] mask of `e` [b, n_s, n_e], booleans or segment ids (see
    `numeric.self_attention`), after checking both shapes and that every
    sequence of a boolean mask has a valid position; a packed row may be
    empty."""
    if e.ndim != 3 or e.shape[-1] != config.embed_dim:
        raise ShapeMismatchError("mhsa", e.shape, (None, None, config.embed_dim))
    if mask is None:
        return None
    mask = np.asarray(mask)
    if mask.shape != e.shape[:2]:
        raise ShapeMismatchError("mhsa mask", mask.shape, e.shape[:2])
    if mask.dtype == bool and not mask.any(axis=1).all():
        raise AllMaskedError("a sequence in the batch has no valid position")
    return mask


def mhsa(e: Tensor, params: TransformerParams, config: ModelConfig,
         mask: np.ndarray | None = None) -> Tensor:
    """Multi-head dot-product self-attention over the position axis of
    [b, n_s, n_e] sequences, with a [b, n_s] validity mask or segment ids.

    Masked (padded) keys and keys of another segment receive a large
    negative score so their softmax weight underflows to exactly zero;
    attention rows over visible keys sum to 1. One fused op
    (`numeric.self_attention`).
    """
    mask = _check_attention(e, config, mask)
    return numeric.self_attention(e, params.wq, params.wk, params.wv, params.wo,
                                  config.heads, mask)


def attention_weights(e: Tensor, params: TransformerParams, config: ModelConfig,
                      mask: np.ndarray | None = None) -> np.ndarray:
    """The attention matrix [b, k, n_s, n_s] that `mhsa` mixes its values
    with, for inspection."""
    mask = _check_attention(e, config, mask)
    return numeric.attention_softmax(e, params.wq, params.wk, params.wv, config.heads, mask)


def transformer_step(e: Tensor, step: int, params: TransformerParams, config: ModelConfig,
                     mask: np.ndarray | Packing | None = None, train: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    """One refinement: coordinates, attention and transition with residual
    layer-norm around each, dropout on the sublayer outputs in training.
    `mask` is the [b, n_s] validity mask of `e`'s windows, or the `Packing`
    whose rows `e` holds: then each slot gets the coordinates of its window
    position, attends within its segment only, and is dropped with the mask
    drawn for its padded place."""
    coords = coordinate_embedding(step, e.shape[-2], e.shape[-1])
    drawn = None
    if isinstance(mask, Packing):
        coords = coords[mask.position]
        drawn = (mask.padded + e.shape[-1:], mask.key)
        mask = mask.segment
    x = e + Tensor(coords)
    # rebinding `x` lets the input and the attention output die at the first norm
    x = numeric.layer_norm(x, residual=numeric.dropout(mhsa(x, params, config, mask),
                                                       config.dropout, train, rng, drawn))
    ts = numeric.mlp(x, params.ts_w1, params.ts_b1, params.ts_w2, params.ts_b2)
    return numeric.layer_norm(x, residual=numeric.dropout(ts, config.dropout, train, rng, drawn))


@dataclass
class PonderStats:
    """Halting bookkeeping for one adaptive run."""

    halt_steps: np.ndarray          # [b, n_s] int, 0 on padded positions
    mean_steps: float
    mean_remainder: float
    accumulated: np.ndarray = field(repr=False, default=None)


def act_run(e0: Tensor, params: TransformerParams, config: ModelConfig,
            mask: np.ndarray | None = None, train: bool = False,
            rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, PonderStats]:
    """Adaptive refinement of [b, n_s, n_e] sequences with per-position
    halting; `mask` [b, n_s] marks the valid positions.

    One `take` gathers the valid positions into the rows of `pack`, and
    every step runs on those rows, each window attending within its own segment only; the
    final states are placed back into the padded layout. Per position,
    sigmoid halting probabilities accumulate across steps; the position
    halts at the first step where the accumulator reaches 1 - epsilon (or at
    the cap) and its final state is the snapshot taken at that step. The
    realized halting pattern is treated as fixed during backpropagation; the
    returned ponder term (mean steps plus mean remainder, at unit cost) is
    what trains the halting unit.

    Returns (final [b, n_s, n_e] sequence state with padded rows zeroed,
    scalar ponder term, halting statistics over the [b, n_s] positions).
    """
    if e0.ndim != 3:
        raise ShapeMismatchError("act_run", e0.shape, (None, None, config.embed_dim))
    b, n_s, n_e = e0.shape
    valid = np.ones((b, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if valid.shape != (b, n_s):
        raise ShapeMismatchError("act_run mask", valid.shape, (b, n_s))
    if not valid.any(axis=1).all():
        raise AllMaskedError("a sequence in the batch has no valid position")

    packing = _pack_bytes(valid.shape, valid.tobytes())
    filled = packing.segment >= 0
    threshold = 1.0 - config.act_epsilon
    acc = np.zeros(filled.shape)
    halted = ~filled                      # empty slots never halt or count
    halt_steps = np.zeros(filled.shape, dtype=np.int64)
    e_t = numeric.take(e0, packing.key, distinct=True)     # [rows, n_s, n_e]
    del e0                                # the first step's input dies with that step
    final = Tensor(np.zeros(e_t.shape))
    probs: list[Tensor] = []              # [rows, n_s, 1] halting probability per step

    for step in range(1, config.t_max + 1):
        e_t = transformer_step(e_t, step, params, config, mask=packing, train=train, rng=rng)
        p = numeric.sigmoid(numeric.matmul(e_t, params.halt_w) + params.halt_b)
        probs.append(p)
        p_data = p.data[..., 0]

        crossing = (~halted) & ((acc + p_data >= threshold) | (step == config.t_max))
        final = final + Tensor(crossing[..., None].astype(np.float64)) * e_t
        acc = acc + np.where(filled, p_data, 0.0)
        halt_steps[crossing] = step
        halted |= crossing
        if halted.all():
            break

    n_valid = int(filled.sum())
    # remainder per the halting construction: 1 - the mass accumulated before
    # the halt step, i.e. over the steps after which the position still ran
    running = halt_steps[..., None] > np.arange(1, len(probs) + 1)     # [rows, n_s, steps]
    mass_before = numeric.tensor_sum(numeric.concat(probs, axis=-1) * Tensor(running / n_valid))
    mean_remainder = 1.0 - mass_before
    mean_steps = float(halt_steps.sum() / n_valid)
    steps_at, acc_at = np.zeros((b, n_s), dtype=np.int64), np.zeros((b, n_s))
    steps_at[packing.key], acc_at[packing.key] = halt_steps, acc
    stats = PonderStats(halt_steps=steps_at, mean_steps=mean_steps,
                        mean_remainder=float(mean_remainder.data), accumulated=acc_at)
    return (numeric.place(final, packing.key, (b, n_s, n_e)), mean_steps + mean_remainder,
            stats)


def dynamic_embed(e_final: Tensor, wd: Tensor) -> Tensor:
    """Flatten each halted [n_s, n_e] sequence of the batch row-wise and mix
    it to one vector: [b, n_s, n_e] -> [b, wd.shape[1]]."""
    if e_final.ndim != 3:
        raise ShapeMismatchError("dynamic_embed", e_final.shape, wd.shape)
    b = e_final.shape[0]
    flat = numeric.reshape(e_final, (b, e_final.shape[1] * e_final.shape[2]))
    if flat.shape[1] != wd.shape[0]:
        raise ShapeMismatchError("dynamic_embed", e_final.shape, wd.shape)
    return numeric.matmul(flat, wd)
