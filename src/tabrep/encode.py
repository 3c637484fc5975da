"""Turn schema-conformant customer records into dense model inputs.

The four branches consume: one token id per static categorical feature, one
normalized value per static numerical feature, and per-time-step ids/values
for the dynamic features over a fixed-length recent window. Everything here
is a pure function of (table, schema); no learned state. A whole table is
encoded in one pass of array operations over its columns; one customer's
records are encoded, and masked, by the same code on that customer alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import SchemaMismatchError
from .prep import (MISSING_TOKEN_ID, FeatureSchema, change_rate, latest_non_missing,
                   normalized_mean, uniform_normalize)
from .table import KIND_NUMBER, MISSING_CODE, BigTable, Columns, Row


@dataclass(frozen=True)
class BranchLayout:
    """Feature ordering and vocabulary layout shared by encoder and banks."""

    n_s: int
    cs_features: tuple[str, ...]
    sn_features: tuple[str, ...]
    cd_features: tuple[str, ...]
    dn_features: tuple[str, ...]
    cs_vocab_sizes: tuple[int, ...]
    cd_vocab_sizes: tuple[int, ...]

    @classmethod
    def from_schema(cls, schema: FeatureSchema, n_s: int) -> "BranchLayout":
        branch = schema.branch_features()
        return cls(
            n_s=n_s,
            cs_features=tuple(branch["SC"]),
            sn_features=tuple(branch["SN"]),
            cd_features=tuple(branch["DC"]),
            dn_features=tuple(branch["DN"]),
            cs_vocab_sizes=tuple(schema.vocabularies[f].size for f in branch["SC"]),
            cd_vocab_sizes=tuple(schema.vocabularies[f].size for f in branch["DC"]),
        )

    @cached_property
    def cs_offsets(self) -> np.ndarray:
        """Start of each static categorical feature's ids in the shared table."""
        return _offsets(self.cs_vocab_sizes)

    @cached_property
    def cd_offsets(self) -> np.ndarray:
        """Start of each dynamic categorical feature's ids in the shared table."""
        return _offsets(self.cd_vocab_sizes)


def _offsets(sizes: tuple[int, ...]) -> np.ndarray:
    """Exclusive prefix sums of `sizes`, as a read-only int64 array."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    offsets.flags.writeable = False
    return offsets


@dataclass
class EncodedCustomer:
    cs_ids: np.ndarray      # [n_cs] ids offset into the static categorical table
    ns_vals: np.ndarray     # [n_sn] normalized-imputed values
    cd_ids: np.ndarray      # [n_s, n_cd] offset ids, missing id on padding
    nd_vals: np.ndarray     # [n_s, n_dn]
    seq_valid: np.ndarray   # [n_s] bool
    presence: np.ndarray    # [4] bits for (CS, NS, CD, ND)


@dataclass
class Batch:
    customers: list[str]
    cs_ids: np.ndarray      # [b, n_cs]
    ns_vals: np.ndarray     # [b, n_sn]
    cd_ids: np.ndarray      # [b, n_s, n_cd]
    nd_vals: np.ndarray     # [b, n_s, n_dn]
    seq_valid: np.ndarray   # [b, n_s]
    presence: np.ndarray    # [b, 4]

    @property
    def size(self) -> int:
        return len(self.customers)


def check_schema(table: BigTable, schema: FeatureSchema) -> None:
    if list(table.features) != list(schema.feature_order):
        raise SchemaMismatchError(
            f"table features {table.features} differ from schema {schema.feature_order}")


def encode_table(table: BigTable, schema: FeatureSchema, layout: BranchLayout,
                 customers=None) -> list[EncodedCustomer]:
    """Encode every customer of `table`, or `customers` in that order, in
    one pass over the columns; records must already be in time order.

    Static values are the most recent non-missing cell over all records;
    dynamic sequences keep the most recent `n_s` records, right-padded. A
    customer with no records gets one all-missing anchor step so attention
    stays well-defined; its dynamic branches are flagged absent and zeroed
    downstream. Each encoding's arrays are views into shared batch arrays.
    """
    try:
        cols = table.select(table.customers if customers is None else customers)
    except KeyError as e:
        raise SchemaMismatchError(f"unknown customer {e.args[0]!r}") from None
    return _split(_encode(cols, schema, layout))


def encode_customer(table: BigTable, customer: str, schema: FeatureSchema,
                    layout: BranchLayout) -> EncodedCustomer:
    return encode_table(table, schema, layout, [customer])[0]


def encode_rows(rows: list[Row], schema: FeatureSchema,
                layout: BranchLayout) -> EncodedCustomer:
    """Encode one customer's records, given as `Row`s in time order."""
    return _split(_encode(_history(rows, schema), schema, layout))[0]


def _history(records, schema: FeatureSchema) -> Columns:
    """One customer's records as `Columns`, from `Columns` or `Row`s."""
    if isinstance(records, Columns):
        return records
    return Columns.from_rows([records], len(schema.feature_order))


def _split(arrays) -> list[EncodedCustomer]:
    return [EncodedCustomer(*rows) for rows in zip(*map(list, arrays))]


def _encode(cols: Columns, schema: FeatureSchema, layout: BranchLayout) -> tuple:
    """The `EncodedCustomer` fields of every customer of `cols`, stacked."""
    index = {f: i for i, f in enumerate(schema.feature_order)}
    n, n_s = cols.n_customers, layout.n_s
    pool = cols.pool

    cs_ids, cs_any = _static_categorical(cols, schema, layout)
    ns_vals, ns_any = _static_numerical(cols, [index[f] for f in layout.sn_features],
                                        layout.sn_features, schema)

    # each customer's last n_s records, at window positions t = 0, 1, ...
    lengths = cols.lengths
    first = np.maximum(cols.offsets[:-1], cols.offsets[1:] - n_s)
    rows = np.flatnonzero(np.arange(len(cols.codes)) >= first[cols.segments])
    who = cols.segments[rows]
    t = rows - first[who]
    seq_valid = np.zeros((n, n_s), dtype=bool)
    seq_valid[who, t] = True
    seq_valid[lengths == 0, 0] = True       # anchor step, content all-missing

    cd_ids = np.zeros((n, n_s, len(layout.cd_features)), dtype=np.int64)
    for i, f in enumerate(layout.cd_features):
        cd_ids[who, t, i] = schema.vocabularies[f].ids(pool, cols.codes[rows, index[f]])
    cd_ids += layout.cd_offsets

    nd_vals = np.zeros((n, n_s, len(layout.dn_features)))
    for i, f in enumerate(layout.dn_features):
        codes = cols.codes[rows, index[f]]
        num = pool.kinds[codes] == KIND_NUMBER
        nd_vals[who[num], t[num], i] = uniform_normalize(pool.values[codes[num]],
                                                         schema.numeric_stats[f])

    some = lengths > 0
    presence = np.stack([cs_any, ns_any, some & bool(layout.cd_features),
                         some & bool(layout.dn_features)], axis=1).astype(np.float64)
    return cs_ids, ns_vals, cd_ids, nd_vals, seq_valid, presence


def stack_encoded(customers: list[str], encoded: list[EncodedCustomer]) -> Batch:
    return Batch(
        customers=list(customers),
        cs_ids=np.stack([e.cs_ids for e in encoded]),
        ns_vals=np.stack([e.ns_vals for e in encoded]),
        cd_ids=np.stack([e.cd_ids for e in encoded]),
        nd_vals=np.stack([e.nd_vals for e in encoded]),
        seq_valid=np.stack([e.seq_valid for e in encoded]),
        presence=np.stack([e.presence for e in encoded]),
    )


def _static_categorical(cols: Columns, schema: FeatureSchema,
                        layout: BranchLayout) -> tuple[np.ndarray, np.ndarray]:
    """Per customer, the static categorical branch's offset ids (of each
    feature's latest non-missing cell) and presence."""
    index = {f: i for i, f in enumerate(schema.feature_order)}
    ids = np.zeros((cols.n_customers, len(layout.cs_features)), dtype=np.int64)
    present = np.zeros(cols.n_customers, dtype=bool)
    for i, f in enumerate(layout.cs_features):
        latest = latest_non_missing(cols, index[f])
        ids[:, i] = schema.vocabularies[f].ids(cols.pool, latest)
        present |= latest != MISSING_CODE
    ids += layout.cs_offsets
    return ids, present


def _static_numerical(cols: Columns, positions: list[int], features,
                      schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray]:
    """Per customer, the normalized latest non-missing value of each of
    `features` (at `positions`) and presence; a non-number encodes as 0.0."""
    vals = np.zeros((cols.n_customers, len(features)))
    present = np.zeros(cols.n_customers, dtype=bool)
    for i, (j, f) in enumerate(zip(positions, features)):
        latest = latest_non_missing(cols, j)
        num = cols.pool.kinds[latest] == KIND_NUMBER
        vals[num, i] = uniform_normalize(cols.pool.values[latest[num]], schema.numeric_stats[f])
        present |= num
    return vals, present


def masked_encoding(records, encoded: EncodedCustomer, feature_index: int,
                    record_index: int, schema: FeatureSchema,
                    layout: BranchLayout) -> EncodedCustomer | None:
    """Encoding of one customer's `records` (`Row`s, or `Columns` of that
    customer alone) with one cell set to Missing, made by editing
    `encoded`, which must be the encoding of `records`.

    Returns None when the masked encoding is bitwise equal to `encoded`:
    the cell is already missing, it is a dynamic cell before the last-`n_s`
    window, a static cell that is not its feature's latest non-missing
    cell, or its replacement encodes to the same bits. Neither `records`
    nor `encoded` is modified; unedited arrays are shared with `encoded`.
    """
    cols = _history(records, schema)
    j = feature_index
    if cols.codes[record_index, j] == MISSING_CODE:
        return None
    f = schema.feature_order[j]
    if f in layout.cd_features or f in layout.dn_features:
        t = record_index - max(0, len(cols.codes) - layout.n_s)    # position in the window
        if t < 0:
            return None
        if f in layout.cd_features:
            i = layout.cd_features.index(f)
            cd_ids = encoded.cd_ids.copy()
            cd_ids[t, i] = layout.cd_offsets[i] + MISSING_TOKEN_ID
            edited = replace(encoded, cd_ids=cd_ids)
        else:
            nd_vals = encoded.nd_vals.copy()
            nd_vals[t, layout.dn_features.index(f)] = 0.0
            edited = replace(encoded, nd_vals=nd_vals)
    elif f in layout.cs_features or f in layout.sn_features:
        column = cols.codes[:, j]
        if (column[record_index + 1:] != MISSING_CODE).any():
            return None
        # the masked feature falls back to its next-latest non-missing cell
        earlier = np.flatnonzero(column[:record_index] != MISSING_CODE)
        code = column[earlier[-1]] if len(earlier) else MISSING_CODE
        presence = encoded.presence.copy()
        if f in layout.cs_features:
            i = layout.cs_features.index(f)
            cs_ids = encoded.cs_ids.copy()
            cs_ids[i] = layout.cs_offsets[i] + schema.vocabularies[f].ids(cols.pool,
                                                                         np.array([code]))[0]
            # present while any static categorical cell is left
            others = [schema.feature_order.index(g) for g in layout.cs_features if g != f]
            presence[0] = float(code != MISSING_CODE
                                or (cols.codes[:, others] != MISSING_CODE).any())
            edited = replace(encoded, cs_ids=cs_ids, presence=presence)
        else:
            i = layout.sn_features.index(f)
            ns_vals = encoded.ns_vals.copy()
            number = cols.pool.kinds[code] == KIND_NUMBER
            ns_vals[i] = uniform_normalize(cols.pool.values[code], schema.numeric_stats[f]) \
                if number else 0.0
            # present while the latest cell of some static numerical feature is a number
            presence[1] = float(number or any(
                cols.pool.kinds[latest_non_missing(cols, schema.feature_order.index(g))[0]]
                == KIND_NUMBER for g in layout.sn_features if g != f))
            edited = replace(encoded, ns_vals=ns_vals, presence=presence)
    else:
        return None         # the date index is not encoded
    return None if same_encoding(edited, encoded) else edited


def same_encoding(a: EncodedCustomer, b: EncodedCustomer) -> bool:
    """Bitwise equality of two encodings (0.0 and -0.0 differ)."""
    return all(getattr(a, fld.name).tobytes() == getattr(b, fld.name).tobytes()
               for fld in fields(EncodedCustomer))


def augmented_summaries(table: BigTable, schema: FeatureSchema, customers=None) -> np.ndarray:
    """Fixed model-free customer summaries used as reconstruction input,
    one row per customer of `table` (or of `customers`, in that order).

    Static numerical values (normalized, imputed), then per-feature time
    means of normalized dynamic numerical values, then per-feature change
    rates of dynamic categorical values (missing counts as its own value).
    """
    cols = table.select(table.customers if customers is None else customers)
    branch = schema.branch_features()
    index = table.feature_index
    sn_vals, _ = _static_numerical(cols, [index(f) for f in branch["SN"]], branch["SN"], schema)
    return np.column_stack([
        sn_vals,
        *[normalized_mean(cols, index(f), schema.numeric_stats[f]) for f in branch["DN"]],
        *[change_rate(cols, index(f)) for f in branch["DC"]]])


def augmented_summary(table: BigTable, customer: str, schema: FeatureSchema) -> np.ndarray:
    """`augmented_summaries` of one customer."""
    return augmented_summaries(table, schema, [customer])[0]


def summary_width(schema: FeatureSchema) -> int:
    branch = schema.branch_features()
    return len(branch["SN"]) + len(branch["DN"]) + len(branch["DC"])
