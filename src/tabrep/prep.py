"""Automated feature recognition and data-quality augmentation.

Two recognizers classify every feature: one separates numerical from
categorical (and date) content, the other separates static from dynamic
features by counting per-customer change statistics over chronologically
ordered records. The augmentation half tokenizes categorical values
(missing included, as its own token), scales numerical values to [0, 1]
and imputes zeros for missing ones.

Both recognizers and the fits run over a `TableProfile`, which adds up a
table one group of customers at a time, so that `profile` need not hold
the whole table.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (AT_LEAST_ONE, AT_LEAST_TWO, NON_NEGATIVE, Checked, ConfigError,
                     MixedKindFeatureError, SchemaError, TableIOError, check_fields)
from .table import (KIND_DATE, KIND_NUMBER, KIND_TOKEN, MISSING_CODE, BigTable, CellPool, Column,
                    Columns, TableSums, replacing)

MISSING_TOKEN_ID = 0
OOV_TOKEN_ID = 1


class FeatureKind(str, Enum):
    STATIC_NUMERICAL = "SN"
    DYNAMIC_NUMERICAL = "DN"
    STATIC_CATEGORICAL = "SC"
    DYNAMIC_CATEGORICAL = "DC"
    DATE_INDEX = "DATE"


# The one map from recognizer outcomes, (NC kind, dynamic flag), to a kind;
# a date feature is never dynamic. `NC_KIND` maps a kind back to its NC kind.
KIND_TABLE = {
    ("numerical", False): FeatureKind.STATIC_NUMERICAL,
    ("numerical", True): FeatureKind.DYNAMIC_NUMERICAL,
    ("categorical", False): FeatureKind.STATIC_CATEGORICAL,
    ("categorical", True): FeatureKind.DYNAMIC_CATEGORICAL,
    ("date", False): FeatureKind.DATE_INDEX,
}
NC_KIND = {kind: nc for (nc, _), kind in KIND_TABLE.items()}
BRANCH_KINDS = tuple(k for k in FeatureKind if k is not FeatureKind.DATE_INDEX)   # SN, DN, SC, DC


@dataclass(frozen=True)
class RecognizerConfig(Checked):
    """Thresholds for both recognizers.

    `feature_threshold` of None means ceil(0.05 * |customers|), resolved
    against the table being profiled. The pair threshold is scale-free for
    numerical features because change statistics are computed on normalized
    values.
    """

    integer_unique_threshold: int = field(default=20, metadata=AT_LEAST_TWO)
    pair_threshold_categorical: float = field(default=0.0, metadata=NON_NEGATIVE)
    pair_threshold_numerical: float = field(default=0.05, metadata=NON_NEGATIVE)
    feature_threshold: int | None = field(default=None, metadata=AT_LEAST_ONE)

    def pair_threshold(self, kind: str) -> float:
        return self.pair_threshold_categorical if kind == "categorical" else self.pair_threshold_numerical

    def resolved_feature_threshold(self, n_customers: int) -> int:
        if self.feature_threshold is not None:
            return self.feature_threshold
        return max(1, math.ceil(0.05 * n_customers))


_KIND_NAMES = {KIND_TOKEN: "token", KIND_NUMBER: "number", KIND_DATE: "date"}


def nc_recognize(table: BigTable, config: RecognizerConfig, ignore=()) -> dict[str, str]:
    """Classify each feature as 'numerical', 'categorical' or 'date' (see
    `nc_kind`). Features mixing cell kinds raise; list them in `ignore` (and
    supply an override) to skip recognition."""
    return TableProfile.of([table], config).nc_kinds(ignore)


def nc_kind(seen: set[str], fractional: bool, distinct: int,
            config: RecognizerConfig) -> str | None:
    """The NC kind of a feature whose non-missing cells are of the kinds
    `seen`, with `fractional` if a number is not an integer and `distinct`
    distinct numbers (0.0 and -0.0 count once); None when it mixes kinds.

    Features of tokens only (or of missing cells only) are categorical, of
    dates only date; any fractional number makes the feature numerical, and
    all-integer features are numerical only when their distinct-value count
    exceeds the configured threshold."""
    if len(seen) > 1:
        return None
    if seen <= {"token"}:
        return "categorical"
    if seen == {"date"}:
        return "date"
    return ("numerical" if fractional or distinct > config.integer_unique_threshold
            else "categorical")


def check_range(feature: str, lo: float, hi: float) -> None:
    """Raise unless [lo, hi] is a range that `uniform_normalize` can scale by."""
    if hi < lo:
        raise SchemaError(f"feature {feature!r}: max < min in stats")
    if not math.isfinite(hi - lo):
        raise SchemaError(f"feature {feature!r}: range [{lo!r}, {hi!r}] has no finite width")


@dataclass
class NumberRange:
    """The running (min, max) of a feature's numbers, added in table order.
    Of equal extremes (0.0 and -0.0) the first is kept, as Python's `min`
    and `max` keep it: a group's extreme is its first, and it replaces the
    running one only when strictly beyond it."""

    lo: float | None = None
    hi: float | None = None

    def add(self, values: np.ndarray) -> None:
        if len(values):
            lo, hi = float(values[np.argmin(values)]), float(values[np.argmax(values)])
            if self.lo is None or lo < self.lo:
                self.lo = lo
            if self.hi is None or hi > self.hi:
                self.hi = hi

    def value(self, feature: str) -> tuple[float, float]:
        """(min, max); (0, 0) if no number was added. Raises `SchemaError`
        when max - min overflows."""
        if self.lo is None:
            return (0.0, 0.0)
        check_range(feature, self.lo, self.hi)
        return (self.lo, self.hi)


def numeric_range(table: BigTable, feature: str) -> tuple[float, float]:
    """`NumberRange.value` of the feature's non-missing numeric cells."""
    column = table.column(feature)
    pool = column.pool
    extremes = NumberRange()
    extremes.add(pool.values[column.codes[pool.kinds[column.codes] == KIND_NUMBER]])
    return extremes.value(feature)


def uniform_normalize(x, stats: tuple[float, float]):
    """Scale values into [0, 1] via (x - min) / (max - min), clamped.

    Takes one number (and returns one float) or an array (and returns one
    of the same shape). A degenerate constant feature (max == min) maps
    every value to 0.5 so a present value stays distinguishable from the
    0.0 used for missing. The clamp is Python's `min(max(v, 0.0), 1.0)`
    elementwise, -0.0 kept.
    """
    lo, hi = stats
    if hi < lo:
        raise ValueError(f"max < min in normalization stats: {stats}")
    x = np.asarray(x, dtype=np.float64)
    if hi == lo:
        out = np.full(x.shape, 0.5)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = (x - lo) / (hi - lo)
        out = np.where(0.0 > out, 0.0, out)
        out = np.where(1.0 < out, 1.0, out)
    return float(out) if out.ndim == 0 else out


@dataclass
class Vocabulary:
    """A token's text -> dense id map with reserved missing (0) and OOV (1) slots."""

    token_to_id: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2

    @classmethod
    def fit(cls, column: Column) -> "Vocabulary":
        """Ids from 2 for the tokens of the non-missing cells of `column`, in
        first-seen order."""
        return cls().add(column)

    def add(self, column: Column) -> "Vocabulary":
        """Give the tokens of the non-missing cells of `column` that are new
        the next ids, in first-seen order; returns self."""
        tokens = column.pool.tokens(column.codes)
        texts, ids = column.pool.token_texts, self.token_to_id
        present = np.flatnonzero(np.bincount(tokens + 1, minlength=len(texts) + 1)[1:])
        if all(texts[t] in ids for t in present.tolist()):
            return self                     # the common case after the first group
        tokens = tokens[tokens >= 0]
        distinct, first = np.unique(tokens, return_index=True)
        for t in distinct[np.argsort(first)].tolist():
            ids.setdefault(texts[t], len(ids) + 2)
        return self

    def ids(self, pool: CellPool, codes: np.ndarray) -> np.ndarray:
        """The id of each cell `codes` (any shape) of `pool`, as an int64
        array of that shape: MISSING_TOKEN_ID for a missing cell, OOV_TOKEN_ID
        for a token not in the vocabulary. Each distinct token is looked up
        once."""
        tokens = pool.tokens(codes)
        distinct, inverse = np.unique(tokens, return_inverse=True)
        texts, get = pool.token_texts, self.token_to_id.get
        lookup = np.array([MISSING_TOKEN_ID if t < 0 else get(texts[t], OOV_TOKEN_ID)
                           for t in distinct.tolist()], dtype=np.int64)
        return lookup[inverse].reshape(np.shape(codes))


def tokenize(column: Column, vocab: Vocabulary | None = None) -> tuple[list[int], Vocabulary]:
    """Map a column's cells to token ids.

    With no vocabulary (train mode) one is fitted by `Vocabulary.fit`. With
    a vocabulary (apply mode) unseen tokens map to the OOV id and missing
    cells to id 0.
    """
    if vocab is None:
        vocab = Vocabulary.fit(column)
    return vocab.ids(column.pool, column.codes).tolist(), vocab


# ---- per-customer reductions over time-ordered records --------------------
#
# Each takes the `Columns` of a sequence of customers and one feature
# position, and returns one value per customer. Float sums run in record
# order (`np.bincount` adds its weights sequentially), so every result is
# bitwise what a left-to-right Python loop over one customer's records gives.

def latest_non_missing(cols: Columns, j: int) -> np.ndarray:
    """Per customer, the code of the most recent non-missing cell of
    feature `j`, or MISSING_CODE."""
    codes = np.append(cols.codes[:, j], MISSING_CODE)        # row -1 reads missing
    present = np.where(codes != MISSING_CODE, np.arange(len(codes)), -1)
    # the latest present row before each customer's end, if it is the customer's
    latest = np.maximum.accumulate(np.append(-1, present))[cols.offsets[1:]]
    return np.where(latest >= cols.offsets[:-1], codes[latest], MISSING_CODE)


def normalized_mean(cols: Columns, j: int, stats: tuple[float, float]) -> np.ndarray:
    """Time mean of feature `j`'s normalized numbers; 0.0 when none is observed."""
    codes = cols.codes[:, j]
    rows = np.flatnonzero(cols.pool.kinds[codes] == KIND_NUMBER)
    owner = cols.segments[rows]
    total = np.bincount(owner, weights=uniform_normalize(cols.pool.values[codes[rows]], stats),
                        minlength=cols.n_customers)
    count = np.bincount(owner, minlength=cols.n_customers)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _same_customer(cols: Columns) -> np.ndarray:
    """For each row r but the last, whether row r + 1 belongs to the same customer."""
    seg = cols.segments
    return seg[1:] == seg[:-1]


def change_count(cols: Columns, j: int) -> np.ndarray:
    """Successive record pairs whose feature-`j` values differ, missing
    counted as its own value."""
    tokens = cols.pool.tokens(cols.codes[:, j])
    changed = _same_customer(cols) & (tokens[1:] != tokens[:-1])
    return np.bincount(cols.segments[:-1][changed], minlength=cols.n_customers)


def change_rate(cols: Columns, j: int) -> np.ndarray:
    """`change_count` per successive pair; 0.0 below two records."""
    pairs = cols.lengths - 1
    return np.where(pairs > 0, change_count(cols, j) / np.maximum(pairs, 1), 0.0)


def number_pairs(cols: Columns, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The successive record pairs of one customer whose `values` (one per
    row, NaN where the cell is no number) are unequal numbers: the earlier
    value, the later one and the customer, in row order. A pair of equal
    numbers adds |n(a) - n(a)| = +0.0 to a non-negative sum, which moves no
    bit, so it is left out."""
    a, b = values[:-1], values[1:]
    keep = _same_customer(cols) & (a != b) & ~np.isnan(a) & ~np.isnan(b)
    return a[keep], b[keep], cols.segments[:-1][keep]


def numeric_change_sums(pairs, stats: tuple[float, float], n_customers: int = 0) -> np.ndarray:
    """Per customer, the sum of |n(b) - n(a)| over its `number_pairs` (a, b)
    in row order, n being `uniform_normalize` by `stats`."""
    a, b, owner = pairs
    return np.bincount(owner, minlength=n_customers,
                       weights=np.abs(uniform_normalize(b, stats) - uniform_normalize(a, stats)))


def dynamics_statistic(table: BigTable, feature: str, kind: str) -> np.ndarray:
    """Per-customer change statistic over successive ordered records.

    Categorical: count of successive pairs whose values differ, missing
    treated as its own value. Numerical: sum of absolute successive
    differences of normalized values, pairs touching a cell that is not a
    number (missing, or a token or date in an overridden feature) skipped.
    Customers with fewer than two records score 0.
    """
    j = table.feature_index(feature)
    cols = table.columns
    if kind == "categorical":
        return change_count(cols, j).astype(np.float64)
    pairs = number_pairs(cols, cols.pool.values[cols.codes[:, j]])
    return numeric_change_sums(pairs, numeric_range(table, feature), cols.n_customers)


@dataclass
class DynamicsMatrix:
    """|customers| x |features| difference matrix of change statistics."""

    customers: list[str]
    features: list[str]
    values: np.ndarray


def dynamics_matrix(table: BigTable, nc_kinds: dict[str, str], config: RecognizerConfig) -> DynamicsMatrix:
    feats = [f for f in table.features if nc_kinds.get(f) in ("numerical", "categorical")]
    values = np.zeros((table.n_customers, len(feats)))
    for k, feature in enumerate(feats):
        values[:, k] = dynamics_statistic(table, feature, nc_kinds[feature])
    return DynamicsMatrix(customers=list(table.customers), features=feats, values=values)


def dynamic_customers(statistic: np.ndarray, kind: str, config: RecognizerConfig) -> int:
    """The customers whose change `statistic` clears the pair threshold of `kind`."""
    return int(np.count_nonzero(statistic > config.pair_threshold(kind)))


def dynamic_flags(counts: dict[str, int], n_customers: int, config: RecognizerConfig) -> dict[str, bool]:
    """Per-feature dynamic flag from the per-feature `dynamic_customers`
    counts: dynamic iff the count exceeds the feature threshold. Equality
    resolves to static."""
    t_f = config.resolved_feature_threshold(n_customers)
    return {f: d_f > t_f for f, d_f in counts.items()}


def sd_recognize(matrix: DynamicsMatrix, nc_kinds: dict[str, str], config: RecognizerConfig) -> dict[str, bool]:
    """Per-feature dynamic flag: dynamic iff the number of customers whose
    change statistic clears the pair threshold exceeds the feature threshold."""
    counts = {feature: dynamic_customers(matrix.values[:, k], nc_kinds[feature], config)
              for k, feature in enumerate(matrix.features)}
    return dynamic_flags(counts, len(matrix.customers), config)


@dataclass
class FeatureSchema:
    """Recognized kinds plus everything needed to re-encode new data.

    Holds per-feature kind, vocabularies for categorical features,
    normalization ranges for numerical ones and the per-feature count of
    customers showing dynamics. Immutable once built; persisted as JSON.
    """

    feature_order: list[str]
    kinds: dict[str, FeatureKind]
    vocabularies: dict[str, Vocabulary]
    numeric_stats: dict[str, tuple[float, float]]
    dynamics_summary: dict[str, int] = field(metadata=NON_NEGATIVE)
    config: RecognizerConfig

    def __post_init__(self):
        try:
            check_fields(self)
        except ConfigError as e:
            raise SchemaError(str(e)) from None
        stray = set(self.kinds) ^ set(self.feature_order)
        if stray:
            raise SchemaError(f"kinds and feature_order differ on {sorted(stray)}")
        for feature, kind in self.kinds.items():
            if NC_KIND[kind] == "categorical" and feature not in self.vocabularies:
                raise SchemaError(f"categorical feature {feature!r} has no vocabulary")
            if NC_KIND[kind] == "numerical" and feature not in self.numeric_stats:
                raise SchemaError(f"numerical feature {feature!r} has no range")
        for feature, (lo, hi) in self.numeric_stats.items():
            check_range(feature, lo, hi)
        for feature, vocab in self.vocabularies.items():
            ids = list(vocab.token_to_id.values())
            if not all(type(i) is int for i in ids) or sorted(ids) != list(range(2, vocab.size)):
                raise SchemaError(f"feature {feature!r}: vocabulary ids are not the distinct "
                                  f"integers 2 to {vocab.size - 1}")
        dates = [f for f, k in self.kinds.items() if k is FeatureKind.DATE_INDEX]
        if len(dates) > 1:
            raise SchemaError(f"more than one date-kind feature: {dates}")

    def features_of_kind(self, kind: FeatureKind) -> list[str]:
        return [f for f in self.feature_order if self.kinds[f] is kind]

    def branch_features(self) -> dict[str, list[str]]:
        return {k.value: self.features_of_kind(k) for k in BRANCH_KINDS}

    def kind_ratios(self) -> dict[str, float]:
        counted = [f for f in self.feature_order if self.kinds[f] is not FeatureKind.DATE_INDEX]
        if not counted:
            return {}
        return {kind.value: sum(1 for f in counted if self.kinds[f] is kind) / len(counted)
                for kind in BRANCH_KINDS}

    def to_dict(self) -> dict:
        return {
            "feature_order": self.feature_order,
            "kinds": {f: k.value for f, k in self.kinds.items()},
            "vocabularies": {f: v.token_to_id for f, v in self.vocabularies.items()},
            "numeric_stats": {f: list(s) for f, s in self.numeric_stats.items()},
            "dynamics_summary": self.dynamics_summary,
            "config": asdict(self.config),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureSchema":
        try:
            return cls(
                feature_order=list(payload["feature_order"]),
                kinds={f: FeatureKind(k) for f, k in payload["kinds"].items()},
                vocabularies={f: Vocabulary(token_to_id=dict(v)) for f, v in payload["vocabularies"].items()},
                numeric_stats={f: tuple(s) for f, s in payload["numeric_stats"].items()},
                dynamics_summary=dict(payload["dynamics_summary"]),
                config=RecognizerConfig(**payload["config"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError, IndexError, ConfigError) as e:
            raise TableIOError(f"malformed feature schema: {type(e).__name__}: {e}") from e

    def save(self, path) -> None:
        with replacing(path) as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "FeatureSchema":
        return cls.from_dict(read_json(path, "feature schema"))


def read_json(path, kind: str):
    """The decoded JSON file at `path`, which should hold a `kind`; an
    unreadable file or bytes that are not JSON end in `TableIOError`."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise TableIOError(str(e)) from e
    except ValueError as e:     # invalid JSON or UTF-8
        raise TableIOError(f"not a {kind}: {e}") from e


class _FeatureProfile:
    """What a `TableProfile` has seen of one feature."""

    def __init__(self, pinned: str | None):
        self.pinned = pinned                # an override's NC kind, or None
        self.seen: set[str] = set()         # the kinds of its non-missing cells
        self.fractional = False             # whether a number is not an integer
        self.integers: set[float] = set()   # distinct numbers, until they pass the threshold
        self.vocabulary: Vocabulary | None = Vocabulary()   # while it may be categorical
        self.changing = 0                   # customers clearing the categorical threshold
        self.range = NumberRange()
        self.pairs: list[tuple] = []        # each group's `number_pairs`

    def recognized(self, config: RecognizerConfig) -> str | None:
        return nc_kind(self.seen, self.fractional, len(self.integers), config)


class TableProfile(TableSums):
    """What `build_schema` reads of a table, added up over groups of its
    customers, on top of the `TableSums` that `compute_stats` reads.

    Groups come in table order, each holding whole customers with their
    records in time order; then vocabularies keep the whole table's
    first-seen order, ranges its first extremes, and each customer's change
    statistic is computed within its group. Per feature it keeps the cell
    kinds seen, the fractional flag and up to `integer_unique_threshold` + 1
    distinct numbers; the vocabulary and the categorical change count while
    the feature may turn out categorical; and, while it may turn out
    numerical, the range and the `number_pairs`, whose sums need the final
    range. Nothing raises before `nc_kinds` or `schema`, so errors come in
    the order of a whole-table pass.
    """

    def __init__(self, features: list[str], config: RecognizerConfig,
                 overrides: dict[str, FeatureKind] | None = None):
        super().__init__(len(features))
        self.features = list(features)
        self.config = config
        self.overrides = dict(overrides or {})
        self._profiles = [_FeatureProfile(NC_KIND[self.overrides[f]] if f in self.overrides
                                          else None) for f in self.features]

    @classmethod
    def of(cls, groups, config: RecognizerConfig,
           overrides: dict[str, FeatureKind] | None = None) -> "TableProfile":
        """The profile of `groups` (at least one), added in turn."""
        profile = None
        for group in groups:
            profile = profile or cls(group.features, config, overrides)
            profile.add(group)
        return profile

    def add(self, table: BigTable) -> "TableProfile":
        """Add the next group of customers, its records in time order; returns self."""
        super().add(table)
        cols, config = table.columns, self.config
        pool = cols.pool
        for j, f in enumerate(self._profiles):
            codes = cols.codes[:, j]
            kinds = pool.kinds[codes]
            present = np.bincount(kinds, minlength=len(_KIND_NAMES) + 1)
            f.seen.update(name for kind, name in _KIND_NAMES.items() if present[kind])
            numbers = pool.values[codes[kinds == KIND_NUMBER]]
            if len(numbers) and not f.fractional:
                f.fractional = bool((numbers != np.floor(numbers)).any())
                if not f.fractional and len(f.integers) <= config.integer_unique_threshold:
                    f.integers.update(numbers.tolist())
            kind = f.pinned or f.recognized(config)
            if kind == "categorical":
                f.vocabulary.add(Column(pool, codes))
                f.changing += dynamic_customers(change_count(cols, j), kind, config)
            else:
                f.vocabulary = None
            # a recognized feature of numbers only may still turn numerical in a later group
            may_be_numerical = kind == "numerical" if f.pinned else f.seen == {"number"}
            if may_be_numerical:
                f.range.add(numbers)
                pairs = number_pairs(cols, pool.values[codes])   # NaN where no number
                if len(pairs[0]):
                    f.pairs.append(pairs)
        return self

    def nc_kinds(self, ignore=()) -> dict[str, str]:
        """`nc_kind` of each feature not in `ignore`. Raises `SchemaError` if
        no customer was added, and `MixedKindFeatureError` on the first
        feature that mixes cell kinds."""
        if not self.n_customers:
            raise SchemaError("cannot recognize features of an empty table")
        kinds = {}
        for feature, f in zip(self.features, self._profiles):
            if feature not in ignore:
                kinds[feature] = f.recognized(self.config)
                if kinds[feature] is None:
                    raise MixedKindFeatureError(feature, f.seen)
        return kinds

    def schema(self) -> FeatureSchema:
        """The schema of the customers added; see `build_schema`."""
        config, overrides = self.config, self.overrides
        nc_kinds = self.nc_kinds(ignore=overrides)
        for feature, kind in overrides.items():
            if feature not in self.features:
                raise SchemaError(f"override for unknown feature {feature!r}")
            nc_kinds[feature] = NC_KIND[kind]
        profiles = dict(zip(self.features, self._profiles))
        ranges = {f: p.range.value(f) for f, p in profiles.items() if nc_kinds[f] == "numerical"}
        counts = {}
        for f, p in profiles.items():
            if nc_kinds[f] == "categorical":
                counts[f] = p.changing
            elif nc_kinds[f] == "numerical":   # a customer without pairs clears no threshold
                counts[f] = sum(dynamic_customers(numeric_change_sums(pairs, ranges[f]),
                                                  "numerical", config) for pairs in p.pairs)
        dynamic = dynamic_flags(counts, self.n_customers, config)
        return FeatureSchema(
            feature_order=list(self.features),
            kinds={f: overrides[f] if f in overrides else KIND_TABLE[nc_kinds[f], dynamic.get(f, False)]
                   for f in self.features},
            vocabularies={f: p.vocabulary for f, p in profiles.items()
                          if nc_kinds[f] == "categorical"},
            numeric_stats=ranges, dynamics_summary=counts, config=config)


def build_schema(table: BigTable | TableProfile, config: RecognizerConfig = RecognizerConfig(),
                 overrides: dict[str, FeatureKind] | None = None) -> FeatureSchema:
    """Run both recognizers and fit vocabularies/normalization stats.

    Records must already be in chronological order when a date index exists.
    `overrides` pins a feature to a kind, bypassing recognition for it (the
    analyst-assignment hook); overridden features still get vocabularies or
    ranges fitted for their assigned kind. `table` may instead be the
    `TableProfile` of a table read in groups, which holds its own config and
    overrides.
    """
    if not isinstance(table, TableProfile):
        table = TableProfile.of([table], config, overrides)
    return table.schema()
