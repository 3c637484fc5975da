"""Turn schema-conformant customer records into dense model inputs.

The four branches consume: one token id per static categorical feature, one
normalized value per static numerical feature, and per-time-step ids/values
for the dynamic features over a fixed-length recent window. Everything here
is a pure function of (table, schema); no learned state. A whole table is
encoded in one pass of array operations over its columns; one customer's
records, and masked variants of customers, are encoded by the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaMismatchError
from .prep import (FeatureSchema, change_rate, latest_non_missing, normalized_mean,
                   uniform_normalize)
from .table import KIND_NUMBER, MISSING_CODE, BigTable, Columns


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
class Batch:
    """Encoded customers, one row of each array per name in `customers`."""

    customers: list[str]
    cs_ids: np.ndarray      # [b, n_cs] ids offset into the static categorical table
    ns_vals: np.ndarray     # [b, n_sn] normalized-imputed values
    cd_ids: np.ndarray      # [b, n_s, n_cd] offset ids, missing id on padding
    nd_vals: np.ndarray     # [b, n_s, n_dn]
    seq_valid: np.ndarray   # [b, n_s] bool
    presence: np.ndarray    # [b, 4] bits for (CS, NS, CD, ND)

    @property
    def size(self) -> int:
        return len(self.customers)

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.cs_ids, self.ns_vals, self.cd_ids, self.nd_vals, self.seq_valid,
                self.presence)

    def __getitem__(self, rows) -> "Batch":
        """The rows `rows`: a slice (views of these arrays) or a sequence of
        positions (a copy), in that order."""
        names = (self.customers[rows] if isinstance(rows, slice)
                 else [self.customers[i] for i in rows])
        return Batch(names, *(a[rows] for a in self.arrays))


def check_schema(table: BigTable, schema: FeatureSchema) -> None:
    if list(table.features) != list(schema.feature_order):
        raise SchemaMismatchError(
            f"table features {table.features} differ from schema {schema.feature_order}")


def encode_table(table: BigTable, schema: FeatureSchema, layout: BranchLayout,
                 customers=None) -> Batch:
    """Encode every customer of `table`, or `customers` in that order, in
    one pass over the columns; records must already be in time order.

    Static values are the most recent non-missing cell over all records;
    dynamic sequences keep the most recent `n_s` records, right-padded. A
    customer with no records gets one all-missing anchor step so attention
    stays well-defined; its dynamic branches are flagged absent and zeroed
    downstream. Each customer's row depends on that customer alone.
    """
    customers = list(table.customers if customers is None else customers)
    try:
        cols = table.select(customers)
    except KeyError as e:
        raise SchemaMismatchError(f"unknown customer {e.args[0]!r}") from None
    return Batch(customers, *_encode(cols, schema, layout))


def encode_customer(table: BigTable, customer: str, schema: FeatureSchema,
                    layout: BranchLayout) -> Batch:
    """`encode_table` of one customer: a one-row `Batch`."""
    return encode_table(table, schema, layout, [customer])


def encode_rows(cols: Columns, schema: FeatureSchema, layout: BranchLayout) -> Batch:
    """Encode one customer's records, a one-customer `Columns` in time order
    such as `table.records[c]`, as a one-row `Batch` of an unnamed ("")
    customer."""
    return Batch([""], *_encode(cols, schema, layout))


def masked_encodings(table: BigTable, who, records, features, schema: FeatureSchema,
                     layout: BranchLayout) -> tuple[list[int], Batch]:
    """Encodings of masked variants, by one encode of all of them.

    Variant `i` is customer `who[i]` with the cell of its record
    `records[i]` (below that customer's record count) and feature column
    `features[i]` set to missing; `table` is not modified. Returns the
    positions of the variants whose encoding differs in any bit from their
    customer's unmasked one, and the `Batch` of those variants, in order.
    """
    cols = table.columns
    positions = [table.index[c] for c in who]
    customers, base_of = np.unique(positions, return_inverse=True)
    variants = cols.take(positions)         # holds its own copy of the codes
    rows = variants.offsets[:-1] + np.asarray(records, dtype=np.int64)
    variants.codes[rows, features] = MISSING_CODE
    masked = _encode(variants, schema, layout)
    bases = _encode(cols.take(customers), schema, layout)
    changed = np.zeros(len(who), dtype=bool)
    for got, base in zip(masked, bases):
        differs = got.view(np.uint8) != base[base_of].view(np.uint8)
        changed |= differs.any(axis=tuple(range(1, differs.ndim)))
    keep = np.flatnonzero(changed).tolist()
    return keep, Batch([who[i] for i in keep], *(a[changed] for a in masked))


def _encode(cols: Columns, schema: FeatureSchema, layout: BranchLayout) -> tuple:
    """The `Batch` arrays of every customer of `cols`."""
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


def stack_encoded(batches) -> Batch:
    """The rows of `batches`, in order, as one `Batch`."""
    batches = list(batches)
    return Batch([c for b in batches for c in b.customers],
                 *map(np.concatenate, zip(*(b.arrays for b in batches))))


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
