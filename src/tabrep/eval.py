"""Evaluation kit: ranking/classification metrics, a synthetic enterprise
table generator with controlled characteristics, and a reference linear
baseline for representation-uplift experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .errors import (AT_LEAST_ONE, AT_LEAST_TWO, NON_NEGATIVE, POSITIVE, PROBABILITY, RATE,
                     Checked, ConfigError, InfeasibleConfigError, SingleClassError, check_fields)
from .numeric import Tensor
from .encode import augmented_summaries
from .prep import FeatureSchema, latest_non_missing
from .table import KIND_TOKEN, MISSING_CODE, BigTable, Columns, _CellIndex, parse_text


# ---- metrics -------------------------------------------------------------

def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count one half (rank formulation), so any strictly monotone
    rescoring leaves the value unchanged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ConfigError("auc needs labels in {0, 1}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("auc needs both classes present")
    # a tied group at sorted positions s..s+c-1 shares their mean rank
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True,
                                     equal_nan=False)
    starts = np.cumsum(counts) - counts
    ranks = 0.5 * (2 * starts + counts + 1)[group]
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f_score(predicted, labels) -> float:
    """Positive-class F1; 0.0 whenever there is no true positive."""
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    tp = int(((predicted == 1) & (labels == 1)).sum())
    if tp == 0:
        return 0.0
    fp = int(((predicted == 1) & (labels == 0)).sum())
    fn = int(((predicted == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def weighted_accuracy(predicted, labels, frequency_weighted: bool = False) -> float:
    """Mean per-class recall (balanced accuracy) by default.

    With `frequency_weighted` the per-class recalls are weighted by class
    frequency instead, which reduces to plain accuracy.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    classes, _ = np.unique(labels, return_counts=True)   # the plain form imports numpy.ma
    if len(classes) < 2:
        raise SingleClassError("weighted accuracy needs at least two label classes")
    recalls = np.array([(predicted[labels == c] == c).mean() for c in classes])
    if frequency_weighted:
        freq = np.array([(labels == c).mean() for c in classes])
        return float((freq * recalls).sum())
    return float(recalls.mean())


@dataclass(frozen=True)
class MetricSet:
    """The three reported metrics, each in [0, 1]."""

    auc: float
    f_score: float
    weighted_accuracy: float

    def __post_init__(self):
        for name in ("auc", "f_score", "weighted_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {v}")

    @classmethod
    def from_scores(cls, scores, labels) -> "MetricSet":
        """The metrics of positive-class `scores`; a score of 0.5 or more
        predicts class 1."""
        scores = np.asarray(scores, dtype=np.float64)
        predicted = (scores >= 0.5).astype(np.int64)
        return cls(auc=roc_auc(scores, labels),
                   f_score=f_score(predicted, labels),
                   weighted_accuracy=weighted_accuracy(predicted, labels))

    def to_dict(self) -> dict:
        return {"auc": self.auc, "f_score": self.f_score,
                "weighted_accuracy": self.weighted_accuracy}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---- synthetic table generator ------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Targets for the generated table's measurable characteristics.

    `missing_rate` is the overall missing-cell fraction (structural
    included); `structural_rate` the fraction of (customer, feature) pairs
    that are entirely missing. The positive class is planted in the first
    dynamic categorical feature: a customer is pattern-positive when the
    signal token is observed at least `signal_min_count` times, and labels
    flip with probability `label_noise`. The signal token must load back as
    itself, a token (see `table.parse_text`).
    """

    n_customers: int = field(default=2000, metadata=AT_LEAST_ONE)
    positive_fraction: float = field(default=0.2, metadata=PROBABILITY)
    missing_rate: float = field(default=0.5, metadata=PROBABILITY)
    structural_rate: float = field(default=0.1, metadata=PROBABILITY)
    records_min: int = field(default=2, metadata=AT_LEAST_ONE)
    records_max: int = field(default=8, metadata=AT_LEAST_ONE)
    n_static_categorical: int = field(default=2, metadata=NON_NEGATIVE)
    n_static_numerical: int = field(default=2, metadata=NON_NEGATIVE)
    n_dynamic_categorical: int = field(default=2, metadata=NON_NEGATIVE)
    n_dynamic_numerical: int = field(default=2, metadata=NON_NEGATIVE)
    vocab_size: int = field(default=6, metadata=AT_LEAST_TWO)
    signal_token: str = "cancel"
    signal_min_count: int = field(default=2, metadata=AT_LEAST_ONE)
    label_noise: float = field(default=0.05, metadata={"lo": 0, "below": 0.5})
    task: str = "churn"
    seed: int = field(default=0, metadata=NON_NEGATIVE)

    def __post_init__(self):
        check_fields(self)
        if self.records_min > self.records_max:
            raise ConfigError("records_min must be <= records_max")
        if parse_text(self.signal_token) != (KIND_TOKEN, self.signal_token):
            raise ConfigError(f"signal_token must be a token that a load reads back as itself, "
                              f"got {self.signal_token!r}")

    @property
    def feature_names(self) -> list[str]:
        return ([f"sc{i}" for i in range(self.n_static_categorical)]
                + [f"sn{i}" for i in range(self.n_static_numerical)]
                + [f"dc{i}" for i in range(self.n_dynamic_categorical)]
                + [f"dn{i}" for i in range(self.n_dynamic_numerical)])


def _solve_cell_rate(target: float, structural: float, k_lo: int, k_hi: int) -> float:
    """Per-cell hide probability whose expected pair missing fraction hits
    `target`, given that a fully hidden pair gets one cell forced back."""
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)

    def realized(q: float) -> float:
        return structural + (1.0 - structural) * float(np.mean(q - q ** ks / ks))

    if target < realized(0.0) - 1e-9 or target > realized(1.0) + 1e-9:
        raise InfeasibleConfigError(
            f"per-feature missing target {target:.3f} outside attainable "
            f"[{realized(0.0):.3f}, {realized(1.0):.3f}]")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synth_generate(config: SynthConfig) -> BigTable:
    """Deterministic labeled table matching the configured characteristics.

    Static features are constant per customer (categoricals go missing only
    structurally, so their change statistic stays zero); dynamic numericals
    follow a random walk; dynamic categoricals draw fresh tokens each
    record. Pattern-positive customers get their signal occurrences forced
    visible so the label stays a function of the observed cells.
    """
    if config.n_dynamic_categorical < 1:
        raise InfeasibleConfigError("the planted signal needs a dynamic categorical feature")
    if config.records_min < config.signal_min_count:
        raise InfeasibleConfigError(
            f"records_min {config.records_min} cannot hold {config.signal_min_count} signal cells")
    pattern_rate = ((config.positive_fraction - config.label_noise)
                    / (1.0 - 2.0 * config.label_noise))
    if not 0.0 <= pattern_rate <= 1.0:
        raise InfeasibleConfigError(
            f"positive fraction {config.positive_fraction} unreachable with "
            f"label noise {config.label_noise}")

    features = config.feature_names
    n_f = len(features)
    n_sc = config.n_static_categorical
    if n_f == 0:
        raise InfeasibleConfigError("no features configured")
    n_cellwise = n_f - n_sc
    if n_cellwise:
        per_feature_target = (config.missing_rate * n_f
                              - n_sc * config.structural_rate) / n_cellwise
        cell_rate = _solve_cell_rate(per_feature_target, config.structural_rate,
                                     config.records_min, config.records_max)
    else:
        if abs(config.missing_rate - config.structural_rate) > 1e-9:
            raise InfeasibleConfigError(
                "static-categorical-only tables only go missing structurally")
        cell_rate = 0.0

    rng = numeric.substream(config.seed, "synth")
    background = [f"tok{i}" for i in range(config.vocab_size)]
    m = config.signal_min_count
    labels: dict[str, int] = {}
    # the table's columns: a cell pool, each feature's codes, each record's date
    pool = _CellIndex()
    feature_codes: list[list[int]] = [[] for _ in features]
    dates_all: list[int] = []
    lengths: list[int] = []

    for i in range(config.n_customers):
        cid = f"c{i:05d}"
        k = int(rng.integers(config.records_min, config.records_max + 1))
        pattern = rng.random() < pattern_rate
        label = int(pattern) ^ int(rng.random() < config.label_noise)

        day0 = int(rng.integers(0, 3000))
        days = day0 + np.cumsum(rng.integers(1, 30, size=k))
        dates = [int(d) * 86400 for d in days]

        # raw values, feature-major: tokens or floats, before missingness
        values: dict[str, list] = {}
        for j in range(config.n_static_categorical):
            values[f"sc{j}"] = [background[int(rng.integers(config.vocab_size))]] * k
        for j in range(config.n_static_numerical):
            values[f"sn{j}"] = [float(rng.uniform(0.0, 100.0))] * k
        for j in range(config.n_dynamic_categorical):
            values[f"dc{j}"] = [background[int(rng.integers(config.vocab_size))]
                                for _ in range(k)]
        for j in range(config.n_dynamic_numerical):
            walk = np.cumsum(np.concatenate([[rng.uniform(0.0, 100.0)],
                                             rng.normal(0.0, 5.0, size=k - 1)]))
            values[f"dn{j}"] = [float(v) for v in walk]

        if pattern:
            n_sig = int(rng.integers(m, min(k, m + 2) + 1))
        else:
            n_sig = int(rng.integers(0, m))
        signal_at = set(int(t) for t in rng.choice(k, size=n_sig, replace=False))
        for t in signal_at:
            values["dc0"][t] = config.signal_token

        hidden: dict[str, np.ndarray] = {}
        for f in features:
            static_cat = f.startswith("sc")
            structural = rng.random() < config.structural_rate
            if f == "dc0" and pattern:
                structural = False      # the label must stay observable
            if structural:
                hidden[f] = np.ones(k, dtype=bool)
                continue
            if static_cat:
                hidden[f] = np.zeros(k, dtype=bool)
                continue
            h = rng.random(k) < cell_rate
            if h.all():
                h[int(rng.integers(k))] = False
            if f == "dc0" and pattern:
                for t in signal_at:
                    h[t] = False
            hidden[f] = h

        for f, codes in zip(features, feature_codes):     # a number is pooled without a cell
            code = ((lambda v: pool[v] if v in pool else pool._add(v, KIND_TOKEN, v))
                    if isinstance(values[f][0], str) else pool._number)
            codes.extend([MISSING_CODE if h else code(v)
                          for v, h in zip(values[f], hidden[f].tolist())])
        dates_all.extend(dates)
        lengths.append(k)
        labels[cid] = label

    codes = np.array(feature_codes, dtype=np.int32)
    columns = Columns.build(pool.pool_of(codes), codes.T, len(features), lengths, dates_all)
    return BigTable(customers=list(labels), features=features, records=columns,
                    labels={config.task: labels}, has_date_index=True)


# ---- flattened-feature views for the baseline ---------------------------

def flatten_features(table: BigTable, schema: FeatureSchema,
                     include_dynamic: bool = True) -> tuple[np.ndarray, list[str]]:
    """Model-free numeric matrix, one row per customer.

    Static numericals contribute their normalized-imputed value, static
    categoricals a one-hot block over their vocabulary (missing and
    out-of-vocabulary slots included). With `include_dynamic`, dynamic
    numericals add their observed-value mean and dynamic categoricals their
    change rate. All but the one-hot blocks are `augmented_summaries` columns.
    """
    branch = schema.branch_features()
    n, n_sn = table.n_customers, len(branch["SN"])
    summary = augmented_summaries(table, schema)

    names = list(branch["SN"])
    columns = [summary[:, :n_sn]]
    for f in branch["SC"]:
        vocab = schema.vocabularies[f]
        ids = vocab.ids(table.columns.pool,
                        latest_non_missing(table.columns, table.feature_index(f)))
        block = np.zeros((n, vocab.size))
        block[np.arange(n), ids] = 1.0
        names += [f"{f}[{slot}]" for slot in range(vocab.size)]
        columns.append(block)
    if include_dynamic:
        names += [f"{f}.mean" for f in branch["DN"]] + [f"{f}.changes" for f in branch["DC"]]
        columns.append(summary[:, n_sn:])
    return np.concatenate(columns, axis=1), names


def task_labels(table: BigTable, task: str) -> tuple[list[str], np.ndarray]:
    """Labeled customers of one task, in table order."""
    got = table.labels.get(task, {})
    customers = [c for c in table.customers if c in got]
    return customers, np.array([int(got[c]) for c in customers], dtype=np.int64)


# ---- held-out split and class balance, shared with model.fit ------------

def holdout_split(n: int, fraction: float, seed: int, stream: str,
                  empty_message: str) -> tuple[np.ndarray, np.ndarray]:
    """(validation, training) indices: the first round(fraction * n) of a
    permutation of range(n) drawn from the named substream, then the rest.
    An empty training part raises `ConfigError(empty_message)`."""
    perm = numeric.substream(seed, stream).permutation(n)
    n_val = int(round(fraction * n))
    if n_val == n:
        raise ConfigError(empty_message)
    return perm[:n_val], perm[n_val:]


def balanced_class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """n / (k * n_c) for each of the k classes present among the `n`
    non-negative `labels`; 0 for a class with no label."""
    counts = np.bincount(labels, minlength=n_classes)
    present = counts > 0
    weights = np.zeros(n_classes)
    weights[present] = counts.sum() / (present.sum() * counts[present])
    return weights


# ---- reference linear baseline ------------------------------------------

@dataclass(frozen=True)
class BaselineConfig(Checked):
    epochs: int = field(default=300, metadata=NON_NEGATIVE)
    learning_rate: float = field(default=0.05, metadata=POSITIVE)
    l2: float = field(default=1e-4, metadata=NON_NEGATIVE)
    validation_fraction: float = field(default=0.3, metadata=RATE)
    seed: int = field(default=0, metadata=NON_NEGATIVE)


@dataclass
class LinearModel:
    """Standardized logistic scorer: p = sigmoid((x - mean)/std @ w + b)."""

    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray

    def scores(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - self.mean) / self.std
        return 1.0 / (1.0 + np.exp(-(z @ self.weights + self.bias)))


def baseline_linear(x: np.ndarray, labels: np.ndarray,
                    config: BaselineConfig = BaselineConfig()) -> tuple[LinearModel, MetricSet]:
    """Class-weighted logistic regression via the shared optimizer.

    Splits off a held-out fraction, trains full-batch on the rest and
    reports the held-out MetricSet.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(labels):
        raise ValueError(f"bad baseline input shapes {x.shape} vs {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ConfigError("baseline needs labels in {0, 1}")
    val_idx, train_idx = holdout_split(len(labels), config.validation_fraction, config.seed,
                                       "baseline-split", "baseline split leaves no training rows")
    y_tr = labels[train_idx]
    if len(np.unique(y_tr, return_counts=True)[0]) < 2:     # see weighted_accuracy
        raise SingleClassError("baseline training labels contain one class")

    mean = x[train_idx].mean(axis=0)
    std = x[train_idx].std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std

    class_w = balanced_class_weights(y_tr, 2)

    w = numeric.zeros_param((x.shape[1], 1), "baseline.w")
    b = numeric.zeros_param((1,), "baseline.b")
    opt = numeric.Adam([w, b], lr=config.learning_rate)
    zt = Tensor(z[train_idx])
    sample_w = class_w[y_tr]
    sign = np.where(y_tr == 1, 1.0, -1.0)

    for _ in range(config.epochs):
        with numeric.recording():
            logit = numeric.reshape(numeric.matmul(zt, w), (len(train_idx),)) + b
            # weighted logistic loss via -log sigmoid(sign * logit)
            margins = logit * Tensor(sign)
            losses = numeric.log(1.0 + numeric.exp(-margins))
            loss = numeric.tensor_sum(losses * Tensor(sample_w)) * (1.0 / sample_w.sum())
            if config.l2 > 0:
                loss = loss + config.l2 * numeric.tensor_sum(w * w)
            opt.zero_grad()
            numeric.backward(loss)
        opt.step()

    model = LinearModel(weights=w.data[:, 0].copy(), bias=float(b.data[0]),
                        mean=mean, std=std)
    eval_idx = val_idx if len(val_idx) else train_idx
    metrics = MetricSet.from_scores(model.scores(x[eval_idx]), labels[eval_idx])
    return model, metrics
