"""Masking-based interpretation: which features move a representation
position (or a predicted class probability), and for whom.

Three steps per target: pick the k customers with the largest target value,
mask random (feature, time) cells of each and re-run the model, then keep
the features whose mean absolute effect clears a threshold. The output
bundles population-level rankings and per-customer contribution lists.

Masked variants are re-encoded by the whole-table encoder, a slice of
cells at a time (`encode.masked_encodings`). A variant whose encoding is
bitwise unchanged scores a delta of exactly 0.0 without a forward pass;
the others are forwarded once, across every customer and target of a
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .encode import check_schema, encode_table, masked_encodings, stack_encoded
from .encode import encode_rows  # noqa: F401 (perfbench wraps it)
from .errors import (AT_LEAST_ONE, NON_NEGATIVE, Checked, ConfigError,
                     InvalidCellCoordinatesError, PositionOutOfRangeError, check_fields)
from .model import EVAL_BATCH, CustomerEncoder
from .prep import FeatureKind
from .table import BigTable


@dataclass(frozen=True)
class Target:
    """What the deltas are measured against.

    kind "position": value of one representation coordinate.
    kind "class": predicted probability of one class of one task head.
    """

    kind: str
    position: int = 0
    task: str = ""
    class_index: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("position", "class"):
            raise ConfigError(f"kind must be 'position' or 'class', got {self.kind!r}")
        if self.kind == "class" and not self.task:
            raise ConfigError("task must name the task head of a class target")

    def key(self) -> str:
        if self.kind == "position":
            return f"position:{self.position}"
        return f"class:{self.task}:{self.class_index}"

    def to_dict(self) -> dict:
        if self.kind == "position":
            return {"kind": "position", "position": self.position}
        return {"kind": "class", "task": self.task, "class_index": self.class_index}


def position_target(position: int) -> Target:
    return Target(kind="position", position=position)


def class_target(task: str, class_index: int = 1) -> Target:
    return Target(kind="class", task=task, class_index=class_index)


@dataclass(frozen=True)
class InterpretConfig(Checked):
    k: int = field(default=10, metadata=AT_LEAST_ONE)
    mask_samples: int = field(default=64, metadata=AT_LEAST_ONE)
    # None: 0.05 * std of the target
    delta_threshold: float | None = field(default=None, metadata=NON_NEGATIVE)
    targets: tuple[Target, ...] | None = None   # None: every representation position
    seed: int = field(default=0, metadata=NON_NEGATIVE)


def sensitive_customers(representations, position: int, k: int) -> list[str]:
    """Ids of the k customers with the largest value at `position`.

    Ties break toward the smaller customer id, so the result is invariant
    to the input ordering.
    """
    pairs = list(representations.items()) if isinstance(representations, dict) \
        else list(representations)
    if not pairs:
        return []
    width = len(np.atleast_1d(pairs[0][1]))
    if not 0 <= position < width:
        raise PositionOutOfRangeError(f"position {position} outside [0, {width})")
    values = {cid: float(np.atleast_1d(vec)[position]) for cid, vec in pairs}
    return _top_k(values, k)


def _top_k(values: dict[str, float], k: int) -> list[str]:
    ranked = sorted(values, key=lambda cid: (-values[cid], cid))
    return ranked[:min(k, len(ranked))]


def _check_target(model: CustomerEncoder, target: Target) -> None:
    if target.kind == "position":
        if not 0 <= target.position < model.config.rep_width:
            raise PositionOutOfRangeError(
                f"position {target.position} outside [0, {model.config.rep_width})")
        return
    n_classes = model.classes(target.task)
    if not 0 <= target.class_index < n_classes:
        raise PositionOutOfRangeError(
            f"class index {target.class_index} outside [0, {n_classes})")


def _target_column(model: CustomerEncoder, reps: np.ndarray, target: Target) -> np.ndarray:
    """The target's value for each of the representation rows `reps`."""
    if target.kind == "position":
        return reps[:, target.position]
    return model.class_proba(reps, target.task)[:, target.class_index]


def maskable_features(model: CustomerEncoder) -> list[str]:
    return [f for f in model.schema.feature_order
            if model.schema.kinds[f] is not FeatureKind.DATE_INDEX]


def mask_and_delta(model: CustomerEncoder, table: BigTable, customer: str,
                   feature: str, time_index: int, target: Target) -> float:
    """target(cell masked to missing) − target(original), evaluation mode.

    The table is never modified; the customer is re-encoded with the cell
    masked, and a cell whose masking leaves the encoding unchanged scores 0.0.
    """
    check_schema(table, model.schema)
    _check_target(model, target)
    if customer not in table.index:
        raise InvalidCellCoordinatesError(f"unknown customer {customer!r}")
    if feature not in maskable_features(model):
        raise InvalidCellCoordinatesError(f"feature {feature!r} is not maskable")
    n_records = table.n_records(customer)
    if not 0 <= time_index < n_records:
        raise InvalidCellCoordinatesError(
            f"record index {time_index} outside [0, {n_records}) for {customer!r}")
    _, masked = masked_encodings(table, [customer], [time_index],
                                 [model.schema.feature_order.index(feature)],
                                 model.schema, model.layout)
    if not masked.size:
        return 0.0
    pair = stack_encoded([encode_table(table, model.schema, model.layout, [customer]), masked])
    values = _target_column(model, model.forward(pair).rep.data, target)
    return float(values[1] - values[0])


def sensitive_features(deltas, threshold: float) -> list[dict]:
    """Aggregate (customer, feature, time, delta) trials into a ranking.

    Features whose mean |delta| exceeds the threshold are returned ordered
    by descending score; `sign` is the sign of the mean signed delta and
    `support` counts the customers whose own mean |delta| clears the
    threshold too.
    """
    by_feature: dict[str, list[float]] = {}
    by_customer: dict[str, dict[str, list[float]]] = {}
    for customer, feat, _t, delta in deltas:
        by_feature.setdefault(feat, []).append(delta)
        by_customer.setdefault(feat, {}).setdefault(customer, []).append(delta)
    out = []
    for feat, values in by_feature.items():
        arr = np.array(values)
        score = float(np.abs(arr).mean())
        if score <= threshold:
            continue
        mean_delta = float(arr.mean())
        support = sum(1 for vals in by_customer[feat].values()
                      if np.abs(vals).mean() > threshold)
        out.append({"feature": feat, "score": score,
                    "sign": int(np.sign(mean_delta)), "support": support})
    out.sort(key=lambda rec: (-rec["score"], rec["feature"]))
    return out


@dataclass
class TargetGenome:
    target: Target
    threshold: float
    customers: list[str]
    features: list[dict]
    per_customer: dict[str, list[dict]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"target": self.target.to_dict(), "threshold": self.threshold,
                "customers": self.customers, "features": self.features,
                "per_customer": self.per_customer}


@dataclass
class GenomeReport:
    seed: int
    mask_samples: int
    targets: list[TargetGenome]

    def to_dict(self) -> dict:
        return {"seed": self.seed, "mask_samples": self.mask_samples,
                "targets": [t.to_dict() for t in self.targets]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def render_text(self, width: int = 40) -> str:
        """Plain-text horizontal bars, one block per target."""
        lines = []
        for genome in self.targets:
            lines.append(f"target {genome.target.key()}  "
                         f"(threshold {genome.threshold:.6g}, "
                         f"{len(genome.customers)} sensitive customers)")
            if not genome.features:
                lines.append("  (no feature clears the threshold)")
            top = genome.features[0]["score"] if genome.features else 1.0
            for rec in genome.features:
                bar = "#" * max(1, int(round(width * rec["score"] / top)))
                sign = "+" if rec["sign"] >= 0 else "-"
                lines.append(f"  {rec['feature']:<16} {sign} {bar} "
                             f"{rec['score']:.6g} (support {rec['support']})")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def genome_report(model: CustomerEncoder, table: BigTable,
                  config: InterpretConfig = InterpretConfig()) -> GenomeReport:
    """Run the three interpretation steps for every configured target.

    Position targets default to all representation coordinates. Masking
    draws are partitioned per (target, customer) substream, so reports are
    reproducible and customers can be processed in any order. Each masked
    cell is scored once for all targets that drew it.
    """
    names, population = model.represent(table)
    feats = maskable_features(model)
    columns = [model.schema.feature_order.index(f) for f in feats]
    if config.targets is not None:
        targets = list(config.targets)
    else:
        targets = [position_target(p) for p in range(model.config.rep_width)]
    for target in targets:
        _check_target(model, target)

    # step one, and every target's draws, before any masking
    plans = []
    for target in targets:
        values = dict(zip(names, (float(v) for v in
                                  _target_column(model, population, target))))
        threshold = (config.delta_threshold if config.delta_threshold is not None
                     else 0.05 * float(np.std(list(values.values()))))
        chosen = _top_k(values, config.k)
        draws = {}
        for cid in chosen:
            n_records = table.n_records(cid)
            if not n_records or not feats:
                continue
            rng = numeric.substream(config.seed, f"interpret/{target.key()}/{cid}")
            # one call draws the same (record, feature) pairs as two scalar calls a pair
            bounds = np.tile([n_records, len(feats)], config.mask_samples)
            draws[cid] = rng.integers(bounds).reshape(-1, 2).tolist()
        plans.append((target, threshold, chosen, draws, values))

    # step two: forward each distinct changed variant once; a customer's
    # unmasked value is its value in the population
    cells = list(dict.fromkeys((cid, t, fi) for *_, draws, _ in plans
                               for cid, cid_draws in draws.items() for t, fi in cid_draws))
    masked_row: dict[tuple, int] = {}     # only cells whose masking changes the encoding

    def variants():
        for lo in range(0, len(cells), EVAL_BATCH):
            part = cells[lo:lo + EVAL_BATCH]
            changed, masked = masked_encodings(
                table, [cid for cid, _, _ in part], [t for _, t, _ in part],
                [columns[fi] for _, _, fi in part], model.schema, model.layout)
            for i in changed:
                masked_row[part[i]] = len(masked_row)
            yield masked

    forwarded = model.forward_stream(variants())

    genomes = []
    for target, threshold, chosen, draws, base in plans:
        values = _target_column(model, forwarded, target)
        trials = []
        for cid, cid_draws in draws.items():
            for t, fi in cid_draws:
                row = masked_row.get((cid, t, fi))
                delta = 0.0 if row is None else float(values[row] - base[cid])
                trials.append((cid, feats[fi], t, delta))

        ranked = sensitive_features(trials, threshold)
        by_customer: dict[str, dict[str, list[float]]] = {cid: {} for cid in chosen}
        for cid, feat, _t, delta in trials:
            by_customer[cid].setdefault(feat, []).append(delta)
        per_customer: dict[str, list[dict]] = {}
        for cid, per_feat in by_customer.items():
            contribs = [{"feature": feat, "contribution": float(np.mean(vals))}
                        for feat, vals in per_feat.items()]
            contribs.sort(key=lambda rec: (-abs(rec["contribution"]), rec["feature"]))
            per_customer[cid] = contribs
        genomes.append(TargetGenome(target=target, threshold=threshold,
                                    customers=chosen, features=ranked,
                                    per_customer=per_customer))
    return GenomeReport(seed=config.seed, mask_samples=config.mask_samples,
                        targets=genomes)
