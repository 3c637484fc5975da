"""Central finite-difference gradient checking shared across test modules.

`fn` must rebuild its graph from the given tensors on every call, because
the checker perturbs tensor data in place between evaluations. Only the
analytic pass is recorded; the finite-difference evaluations run as plain
forwards.
"""

from __future__ import annotations

import numpy as np

from tabrep import numeric
from tabrep.numeric import Tensor


def max_relative_error(fn, tensors, h: float = 1e-5, sample: int | None = None,
                       rng: np.random.Generator | None = None) -> float:
    """Largest relative mismatch between backward() and central differences.

    With `sample`, only that many coordinates per tensor are probed (seeded
    through `rng`); otherwise every coordinate is checked.
    """
    with numeric.recording():
        loss = fn()
        for t in tensors:
            t.zero_grad()
        numeric.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        flat_grad = grad.reshape(-1)
        if sample is None or flat.size <= sample:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=sample, replace=False)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + h
            up = float(fn().data)
            flat[i] = keep - h
            down = float(fn().data)
            flat[i] = keep
            estimate = (up - down) / (2.0 * h)
            err = abs(flat_grad[i] - estimate) / max(abs(flat_grad[i]), abs(estimate), 1e-6)
            worst = max(worst, err)
    return worst


def assert_gradients_match(fn, tensors, h: float = 1e-5, tol: float = 1e-3,
                           sample: int | None = None,
                           rng: np.random.Generator | None = None) -> float:
    err = max_relative_error(fn, tensors, h=h, sample=sample, rng=rng)
    assert err < tol, f"gradient mismatch: max relative error {err:.3e} >= {tol}"
    return err


def scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    """Reduce any output to a scalar with fixed weights, exercising every
    output coordinate's gradient path."""
    return numeric.tensor_sum(out * Tensor(weights))
