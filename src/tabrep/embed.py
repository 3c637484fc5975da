"""Branch embeddings: categorical lookups, position-based numerical
embedding and max-concatenation aggregation.

Categorical features each own a block of rows in a shared lookup matrix
(ids are stored pre-offset so a whole batch resolves with one gather).
Numerical features scale a per-feature learned row by the normalized value,
so an imputed-missing 0.0 contributes exactly the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import IdOutOfRangeError, LengthMismatchError
from .numeric import Parameter, Tensor


@dataclass
class EmbeddingBank:
    """Lookup storage for one branch pair (categorical table + numeric rows).

    `cat_table` stacks every categorical feature's vocabulary rows in the
    block order of `encode.BranchLayout`; `num_matrix` has one row per
    numerical feature. Both share one width.
    """

    cat_table: Parameter | None
    num_matrix: Parameter | None

    @classmethod
    def build(cls, dim: int, cat_rows: int, num_rows: int, param, name: str) -> "EmbeddingBank":
        """The bank's parameters, made by `param(name, shape, init)` (see
        `numeric.drawing`)."""
        init = numeric.embedding_init
        return cls(cat_table=param(f"{name}.cat", (cat_rows, dim), init) if cat_rows else None,
                   num_matrix=param(f"{name}.num", (num_rows, dim), init) if num_rows else None)

    def parameters(self) -> list[Parameter]:
        return [p for p in (self.cat_table, self.num_matrix) if p is not None]


def categorical_embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Lookup by id: output[..., f, :] = table[ids[..., f], :].

    Ids must already be offset into the shared table. Id 0 of each feature
    block is the learned missing row; it is not forced to zero.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IdOutOfRangeError(f"id outside table with {table.shape[0]} rows")
    return table[ids]


def positional_numeric_embed(values, matrix: Tensor) -> Tensor:
    """Scale row i of the lookup matrix by value i: output[..., i, :] = v_i * M_i.

    Values must already be normalized and imputed; a missing (0.0) value
    yields exactly the zero row.
    """
    values = numeric.as_tensor(values)
    if values.shape[-1] != matrix.shape[0]:
        raise LengthMismatchError(f"{values.shape[-1]} values vs {matrix.shape[0]} matrix rows")
    expanded = numeric.reshape(values, values.shape + (1,))
    return expanded * matrix


def max_concat(e: Tensor, axis: int = -2) -> Tensor:
    """Columnwise maximum over the row axis. Ties route the gradient to the
    lowest row index."""
    return numeric.tensor_max(e, axis=axis)
