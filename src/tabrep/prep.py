"""Automated feature recognition and data-quality augmentation.

Two recognizers classify every feature: one separates numerical from
categorical (and date) content, the other separates static from dynamic
features by counting per-customer change statistics over chronologically
ordered records. The augmentation half tokenizes categorical values
(missing included, as its own token), scales numerical values to [0, 1]
and imputes zeros for missing ones.
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
                    Columns, replacing)

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
    """Classify each feature as 'numerical', 'categorical' or 'date'.

    Features of tokens only are categorical, of dates only date; any fractional
    number makes the feature numerical, and all-integer features are
    numerical only when their distinct-value count exceeds the configured
    threshold. Features mixing cell kinds raise; list them in `ignore` (and
    supply an override) to skip recognition.
    """
    if not table.customers:
        raise SchemaError("cannot recognize features of an empty table")
    pool = table.columns.pool
    kinds: dict[str, str] = {}
    for feature in table.features:
        if feature in ignore:
            continue
        present = np.flatnonzero(np.bincount(table.column(feature).codes,
                                             minlength=len(pool.kinds)))   # entries in use
        present_kinds = pool.kinds[present]
        seen = {name for kind, name in _KIND_NAMES.items() if (present_kinds == kind).any()}
        if len(seen) > 1:
            raise MixedKindFeatureError(feature, seen)
        values = pool.values[present[present_kinds == KIND_NUMBER]]
        if seen == {"token"} or not seen:
            kinds[feature] = "categorical"
        elif seen == {"date"}:
            kinds[feature] = "date"
        elif (values != np.floor(values)).any():
            kinds[feature] = "numerical"
        else:
            distinct = len(set(values.tolist()))        # 0.0 and -0.0 count once
            kinds[feature] = "numerical" if distinct > config.integer_unique_threshold else "categorical"
    return kinds



def check_range(feature: str, lo: float, hi: float) -> None:
    """Raise unless [lo, hi] is a range that `uniform_normalize` can scale by."""
    if hi < lo:
        raise SchemaError(f"feature {feature!r}: max < min in stats")
    if not math.isfinite(hi - lo):
        raise SchemaError(f"feature {feature!r}: range [{lo!r}, {hi!r}] has no finite width")


def numeric_range(table: BigTable, feature: str) -> tuple[float, float]:
    """(min, max) over the feature's non-missing numeric cells; (0, 0) if none.
    Raises `SchemaError` when max - min overflows.

    Of equal extremes (0.0 and -0.0) the first in table order is kept, as
    Python's `min` and `max` keep it."""
    column = table.column(feature)
    pool = column.pool
    codes = column.codes[pool.kinds[column.codes] == KIND_NUMBER]
    if not len(codes):
        return (0.0, 0.0)
    values = pool.values[codes]
    lo, hi = float(values[np.argmin(values)]), float(values[np.argmax(values)])
    check_range(feature, lo, hi)
    return (lo, hi)


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
        tokens = column.pool.tokens(column.codes)
        tokens = tokens[tokens >= 0]
        distinct, first = np.unique(tokens, return_index=True)
        texts = column.pool.token_texts
        return cls({texts[t]: 2 + i for i, t in enumerate(distinct[np.argsort(first)].tolist())})

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


def _successive_pairs(cols: Columns) -> np.ndarray:
    """Rows r whose next row r + 1 belongs to the same customer."""
    seg = cols.segments
    return np.flatnonzero(seg[1:] == seg[:-1])


def change_count(cols: Columns, j: int) -> np.ndarray:
    """Successive record pairs whose feature-`j` values differ, missing
    counted as its own value."""
    tokens = cols.pool.tokens(cols.codes[:, j])
    pairs = _successive_pairs(cols)
    changed = pairs[tokens[pairs] != tokens[pairs + 1]]
    return np.bincount(cols.segments[changed], minlength=cols.n_customers)


def change_rate(cols: Columns, j: int) -> np.ndarray:
    """`change_count` per successive pair; 0.0 below two records."""
    pairs = cols.lengths - 1
    return np.where(pairs > 0, change_count(cols, j) / np.maximum(pairs, 1), 0.0)


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
    stats = numeric_range(table, feature)
    codes = cols.codes[:, j]
    normalized = uniform_normalize(cols.pool.values[codes], stats)
    number = cols.pool.kinds[codes] == KIND_NUMBER
    pairs = _successive_pairs(cols)
    pairs = pairs[number[pairs] & number[pairs + 1]]
    return np.bincount(cols.segments[pairs], minlength=cols.n_customers,
                       weights=np.abs(normalized[pairs + 1] - normalized[pairs]))


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


def dynamic_customer_counts(matrix: DynamicsMatrix, nc_kinds: dict[str, str], config: RecognizerConfig) -> dict[str, int]:
    """Per feature, the number of customers whose change statistic clears
    the pair threshold."""
    counts = {}
    for k, feature in enumerate(matrix.features):
        t_d = config.pair_threshold(nc_kinds[feature])
        counts[feature] = int(np.sum(matrix.values[:, k] > t_d))
    return counts


def dynamic_flags(counts: dict[str, int], n_customers: int, config: RecognizerConfig) -> dict[str, bool]:
    """Per-feature dynamic flag from `dynamic_customer_counts`: dynamic iff
    the count exceeds the feature threshold. Equality resolves to static."""
    t_f = config.resolved_feature_threshold(n_customers)
    return {f: d_f > t_f for f, d_f in counts.items()}


def sd_recognize(matrix: DynamicsMatrix, nc_kinds: dict[str, str], config: RecognizerConfig) -> dict[str, bool]:
    """Per-feature dynamic flag: dynamic iff the number of customers whose
    change statistic clears the pair threshold exceeds the feature threshold."""
    return dynamic_flags(dynamic_customer_counts(matrix, nc_kinds, config), len(matrix.customers), config)


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


def build_schema(table: BigTable, config: RecognizerConfig = RecognizerConfig(),
                 overrides: dict[str, FeatureKind] | None = None) -> FeatureSchema:
    """Run both recognizers and fit vocabularies/normalization stats.

    Records must already be in chronological order when a date index exists.
    `overrides` pins a feature to a kind, bypassing recognition for it (the
    analyst-assignment hook); overridden features still get vocabularies or
    ranges fitted for their assigned kind.
    """
    overrides = dict(overrides or {})
    nc_kinds = nc_recognize(table, config, ignore=overrides.keys())
    for feature, kind in overrides.items():
        if feature not in table.features:
            raise SchemaError(f"override for unknown feature {feature!r}")
        nc_kinds[feature] = NC_KIND[kind]

    counts = dynamic_customer_counts(dynamics_matrix(table, nc_kinds, config), nc_kinds, config)
    dynamic = dynamic_flags(counts, table.n_customers, config)
    kinds = {f: overrides[f] if f in overrides
             else KIND_TABLE[nc_kinds[f], dynamic.get(f, False)] for f in table.features}
    return FeatureSchema(
        feature_order=list(table.features), kinds=kinds,
        vocabularies={f: Vocabulary.fit(table.column(f))
                      for f in table.features if nc_kinds[f] == "categorical"},
        numeric_stats={f: numeric_range(table, f)
                       for f in table.features if nc_kinds[f] == "numerical"},
        dynamics_summary=counts, config=config)
