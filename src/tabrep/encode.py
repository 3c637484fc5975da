"""Turn schema-conformant customer records into dense model inputs.

The four branches consume: one token id per static categorical feature, one
normalized value per static numerical feature, and per-time-step ids/values
for the dynamic features over a fixed-length recent window. Everything here
is a pure function of (table, schema); no learned state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import SchemaMismatchError
from .prep import (MISSING_TOKEN_ID, FeatureSchema, change_rate, latest_non_missing,
                   normalized_mean, uniform_normalize)
from .table import MISSING, BigTable, Number, Row


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


def encode_customer(table: BigTable, customer: str, schema: FeatureSchema,
                    layout: BranchLayout) -> EncodedCustomer:
    rows = table.records.get(customer)
    if rows is None:
        raise SchemaMismatchError(f"unknown customer {customer!r}")
    return encode_rows(rows, schema, layout)


def encode_rows(rows: list[Row], schema: FeatureSchema,
                layout: BranchLayout) -> EncodedCustomer:
    """Encode one customer's records; they must already be in time order.

    Static values are the most recent non-missing cell over all records;
    dynamic sequences keep the most recent `n_s` records, right-padded. A
    customer with no records gets one all-missing anchor step so attention
    stays well-defined; its dynamic branches are flagged absent and zeroed
    downstream.
    """
    index = {f: i for i, f in enumerate(schema.feature_order)}
    n_s = layout.n_s

    cs_ids, cs_any = _static_categorical(
        [latest_non_missing(rows, index[f]) for f in layout.cs_features], schema, layout)
    ns_vals, ns_any = _static_numerical(
        layout.sn_features, [latest_non_missing(rows, index[f]) for f in layout.sn_features], schema)

    window = rows[-n_s:]
    seq_valid = np.zeros(n_s, dtype=bool)
    seq_valid[: len(window)] = True
    if not window:
        seq_valid[0] = True   # anchor step, content all-missing

    cd_ids = np.zeros((n_s, len(layout.cd_features)), dtype=np.int64)
    for i, f in enumerate(layout.cd_features):
        vocab = schema.vocabularies[f]
        j = index[f]
        for t, row in enumerate(window):
            cd_ids[t, i] = vocab.encode(row.cells[j])
    cd_ids += layout.cd_offsets

    nd_vals = np.zeros((n_s, len(layout.dn_features)))
    for i, f in enumerate(layout.dn_features):
        stats = schema.numeric_stats[f]
        j = index[f]
        for t, row in enumerate(window):
            cell = row.cells[j]
            if isinstance(cell, Number):
                nd_vals[t, i] = uniform_normalize(cell.value, stats)

    presence = np.array([
        float(cs_any),
        float(ns_any),
        float(bool(window) and len(layout.cd_features) > 0),
        float(bool(window) and len(layout.dn_features) > 0),
    ])
    return EncodedCustomer(cs_ids=cs_ids, ns_vals=ns_vals, cd_ids=cd_ids,
                           nd_vals=nd_vals, seq_valid=seq_valid, presence=presence)


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


def _static_categorical(cells: list, schema: FeatureSchema,
                        layout: BranchLayout) -> tuple[np.ndarray, bool]:
    """Offset ids and presence of the static categorical branch, given each
    feature's latest non-missing cell."""
    ids = np.zeros(len(layout.cs_features), dtype=np.int64)
    for i, (f, cell) in enumerate(zip(layout.cs_features, cells)):
        ids[i] = schema.vocabularies[f].encode(cell)
    ids += layout.cs_offsets
    return ids, any(cell is not MISSING for cell in cells)


def _static_numerical(features, cells: list,
                      schema: FeatureSchema) -> tuple[np.ndarray, bool]:
    """Normalized values and presence of the static numerical `features`,
    given each one's latest non-missing cell; a non-number encodes as 0.0."""
    vals = np.zeros(len(features))
    for i, (f, cell) in enumerate(zip(features, cells)):
        if isinstance(cell, Number):
            vals[i] = uniform_normalize(cell.value, schema.numeric_stats[f])
    return vals, any(isinstance(cell, Number) for cell in cells)


def masked_encoding(rows: list[Row], encoded: EncodedCustomer, feature_index: int,
                    record_index: int, schema: FeatureSchema,
                    layout: BranchLayout) -> EncodedCustomer | None:
    """Encoding of `rows` with one cell set to Missing, made by editing
    `encoded`, which must be `encode_rows(rows, schema, layout)`.

    Returns None when the masked encoding is bitwise equal to `encoded`:
    the cell is already missing, it is a dynamic cell before the last-`n_s`
    window, a static cell that is not its feature's latest non-missing
    cell, or its replacement encodes to the same bits. Neither `rows` nor
    `encoded` is modified; unedited arrays are shared with `encoded`.
    """
    j = feature_index
    if rows[record_index].cells[j] is MISSING:
        return None
    f = schema.feature_order[j]
    if f in layout.cd_features or f in layout.dn_features:
        t = record_index - max(0, len(rows) - layout.n_s)    # position in the window
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
        if any(row.cells[j] is not MISSING for row in rows[record_index + 1:]):
            return None
        index = {g: i for i, g in enumerate(schema.feature_order)}

        def latest(features):
            # the masked feature falls back to its next-latest non-missing cell
            return [latest_non_missing(rows[:record_index], j) if g == f
                    else latest_non_missing(rows, index[g]) for g in features]

        presence = encoded.presence.copy()
        if f in layout.cs_features:
            cs_ids, cs_any = _static_categorical(latest(layout.cs_features), schema, layout)
            presence[0] = float(cs_any)
            edited = replace(encoded, cs_ids=cs_ids, presence=presence)
        else:
            ns_vals, ns_any = _static_numerical(layout.sn_features, latest(layout.sn_features), schema)
            presence[1] = float(ns_any)
            edited = replace(encoded, ns_vals=ns_vals, presence=presence)
    else:
        return None         # the date index is not encoded
    return None if same_encoding(edited, encoded) else edited


def same_encoding(a: EncodedCustomer, b: EncodedCustomer) -> bool:
    """Bitwise equality of two encodings (0.0 and -0.0 differ)."""
    return all(getattr(a, fld.name).tobytes() == getattr(b, fld.name).tobytes()
               for fld in fields(EncodedCustomer))


def augmented_summary(table: BigTable, customer: str, schema: FeatureSchema) -> np.ndarray:
    """Fixed model-free customer summary used as reconstruction input.

    Static numerical values (normalized, imputed), then per-feature time
    means of normalized dynamic numerical values, then per-feature change
    rates of dynamic categorical values (missing counts as its own value).
    """
    rows = table.records[customer]
    branch = schema.branch_features()
    index = table.feature_index
    sn_vals, _ = _static_numerical(
        branch["SN"], [latest_non_missing(rows, index(f)) for f in branch["SN"]], schema)
    return np.concatenate([
        sn_vals,
        [normalized_mean(rows, index(f), schema.numeric_stats[f]) for f in branch["DN"]],
        [change_rate(rows, index(f)) for f in branch["DC"]]])


def summary_width(schema: FeatureSchema) -> int:
    branch = schema.branch_features()
    return len(branch["SN"]) + len(branch["DN"]) + len(branch["DC"])
