"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately naive: plain loops over cells, no
vectorization, no config plumbing. The table and metric oracles share no
code with the package. The masking oracles re-encode a copied record list
for every masked cell, which is what the package's edit path must match.
"""

from __future__ import annotations

import numpy as np

from tabrep import numeric
from tabrep.encode import encode_rows, stack_encoded
from tabrep.interpret import (GenomeReport, InterpretConfig, TargetGenome, _top_k,
                              maskable_features, position_target, sensitive_features)
from tabrep.table import MISSING, BigTable, Date, Number, Row, Token


def reference_feature_kind(cells, integer_unique_threshold: int) -> str:
    """numerical / categorical / date by direct case analysis of one column."""
    present = [c for c in cells if c is not MISSING]
    if not present:
        return "categorical"
    if all(isinstance(c, Date) for c in present):
        return "date"
    if all(isinstance(c, Token) for c in present):
        return "categorical"
    assert all(isinstance(c, Number) for c in present), "mixed column reached oracle"
    if any(not float(c.value).is_integer() for c in present):
        return "numerical"
    distinct = len({c.value for c in present})
    return "numerical" if distinct > integer_unique_threshold else "categorical"


def _norm(v: float, lo: float, hi: float) -> float:
    if hi == lo:
        return 0.5
    return min(1.0, max(0.0, (v - lo) / (hi - lo)))


def numpy_uniform_normalize(x, stats: tuple[float, float]):
    """The earlier numpy form of `prep.uniform_normalize`, which also took
    arrays; the scalar form must match it bit for bit."""
    lo, hi = stats
    if hi < lo:
        raise ValueError(f"max < min in normalization stats: {stats}")
    if hi == lo:
        return np.full_like(np.asarray(x, dtype=np.float64), 0.5) if np.ndim(x) else 0.5
    with np.errstate(over="ignore"):
        scaled = (np.asarray(x, dtype=np.float64) - lo) / (hi - lo)
    clipped = np.clip(scaled, 0.0, 1.0)
    return clipped if np.ndim(x) else float(clipped)


def reference_change_statistic(rows_cells, kind: str, lo: float = 0.0,
                               hi: float = 0.0) -> float:
    """Per-customer change statistic over one already-ordered cell sequence."""
    if len(rows_cells) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(rows_cells[:-1], rows_cells[1:]):
        if kind == "categorical":
            ka = None if a is MISSING else _token_key(a)
            kb = None if b is MISSING else _token_key(b)
            if ka != kb:
                total += 1.0
        else:
            if a is MISSING or b is MISSING:
                continue
            total += abs(_norm(b.value, lo, hi) - _norm(a.value, lo, hi))
    return total


def _token_key(cell) -> str:
    if isinstance(cell, Token):
        return cell.value
    if isinstance(cell, Number):
        v = cell.value
        return str(int(v)) if float(v).is_integer() else repr(v)
    if isinstance(cell, Date):
        return str(cell.epoch)
    raise TypeError(cell)


def reference_dynamics(table: BigTable, feature: str, kind: str,
                       pair_threshold: float, feature_threshold: int) -> str:
    """static / dynamic by counting customers whose statistic clears the
    pair threshold, then comparing that count to the feature threshold."""
    j = table.features.index(feature)
    if kind == "numerical":
        values = [c.value for c in table.column(feature) if isinstance(c, Number)]
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
    else:
        lo = hi = 0.0
    count = 0
    for cust in table.customers:
        cells = [row.cells[j] for row in table.records[cust]]
        if reference_change_statistic(cells, kind, lo, hi) > pair_threshold:
            count += 1
    return "dynamic" if count > feature_threshold else "static"


def random_table(rng: np.random.Generator) -> BigTable:
    """Small random customer table mixing all cell kinds, missing included.

    Each feature commits to one non-missing cell kind so the mixed-kind
    error path stays out of oracle comparisons.
    """
    n_customers = int(rng.integers(1, 11))
    n_features = int(rng.integers(1, 9))
    styles = []
    for _ in range(n_features):
        style = rng.choice(["token", "float", "small_int", "wide_int", "date",
                            "constant", "empty"])
        styles.append(style)
    records = {}
    for u in range(n_customers):
        k = int(rng.integers(1, 7))
        rows = []
        for t in range(k):
            cells = []
            for style in styles:
                if rng.random() < 0.25:
                    cells.append(MISSING)
                    continue
                if style == "token":
                    cells.append(Token(f"v{int(rng.integers(4))}"))
                elif style == "float":
                    cells.append(Number(round(float(rng.uniform(0, 10)), 3) + 0.0001))
                elif style == "small_int":
                    cells.append(Number(float(rng.integers(0, 3))))
                elif style == "wide_int":
                    cells.append(Number(float(rng.integers(0, 10_000))))
                elif style == "date":
                    cells.append(Date(int(rng.integers(0, 10)) * 86_400))
                elif style == "constant":
                    cells.append(Token("same"))
                else:
                    cells.append(MISSING)
            rows.append(Row(cells=tuple(cells), date=t))
        records[f"u{u}"] = rows
    return BigTable(customers=list(records),
                    features=[f"f{i}" for i in range(n_features)],
                    records=records, labels={}, has_date_index=True)


def reference_auc(scores, labels) -> float:
    """Brute-force pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_f_score(predicted, labels) -> float:
    tp = sum(1 for p, y in zip(predicted, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(predicted, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(predicted, labels) if p == 0 and y == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def reference_weighted_accuracy(predicted, labels, frequency_weighted=False) -> float:
    classes = sorted(set(labels))
    recalls = []
    freqs = []
    for c in classes:
        idx = [i for i, y in enumerate(labels) if y == c]
        recalls.append(sum(1 for i in idx if predicted[i] == c) / len(idx))
        freqs.append(len(idx) / len(labels))
    if frequency_weighted:
        return sum(f * r for f, r in zip(freqs, recalls))
    return sum(recalls) / len(recalls)


def masked_rows(rows: list[Row], feature_index: int, record_index: int) -> list[Row]:
    """Copy of `rows` with one cell set to Missing; input rows untouched."""
    out = list(rows)
    row = out[record_index]
    cells = list(row.cells)
    cells[feature_index] = MISSING
    out[record_index] = Row(cells=tuple(cells), date=row.date)
    return out


def _reference_target_values(model, batch, target) -> np.ndarray:
    out = model.forward(batch, train=False)
    if target.kind == "position":
        return out.rep.data[:, target.position]
    proba = numeric.softmax(model.task_logits(out.rep, target.task), axis=-1).data
    return proba[:, target.class_index]


def reference_genome_report(model, table: BigTable,
                            config: InterpretConfig = InterpretConfig()) -> GenomeReport:
    """Genome report by re-encoding: one forward of the unmasked customer
    plus every re-encoded masked variant, per (target, customer)."""
    names, reps = model.represent(table)
    feats = maskable_features(model)
    targets = (list(config.targets) if config.targets is not None
               else [position_target(p) for p in range(model.config.rep_width)])
    genomes = []
    for target in targets:
        if target.kind == "position":
            values = {cid: float(reps[i, target.position]) for i, cid in enumerate(names)}
        else:
            _, proba = model.predict_proba(table, target.task)
            values = {cid: float(proba[i, target.class_index]) for i, cid in enumerate(names)}
        threshold = (config.delta_threshold if config.delta_threshold is not None
                     else 0.05 * float(np.std(list(values.values()))))
        chosen = _top_k(values, config.k)
        trials = []
        for cid in chosen:
            rows = table.records[cid]
            if not rows or not feats:
                continue
            rng = numeric.substream(config.seed, f"interpret/{target.key()}/{cid}")
            draws = [(int(rng.integers(len(rows))), int(rng.integers(len(feats))))
                     for _ in range(config.mask_samples)]
            variants = [encode_rows(rows, model.schema, model.layout)]
            for t, fi in draws:
                j = model.schema.feature_order.index(feats[fi])
                variants.append(encode_rows(masked_rows(rows, j, t), model.schema, model.layout))
            vals = _reference_target_values(
                model, stack_encoded([cid] * len(variants), variants), target)
            for (t, fi), v in zip(draws, vals[1:]):
                trials.append((cid, feats[fi], t, float(v - vals[0])))
        per_customer = {}
        for cid in chosen:
            per_feat: dict[str, list[float]] = {}
            for c, feat, _t, delta in trials:
                if c == cid:
                    per_feat.setdefault(feat, []).append(delta)
            contribs = [{"feature": feat, "contribution": float(np.mean(vals))}
                        for feat, vals in per_feat.items()]
            contribs.sort(key=lambda rec: (-abs(rec["contribution"]), rec["feature"]))
            per_customer[cid] = contribs
        genomes.append(TargetGenome(target=target, threshold=threshold, customers=chosen,
                                    features=sensitive_features(trials, threshold),
                                    per_customer=per_customer))
    return GenomeReport(seed=config.seed, mask_samples=config.mask_samples, targets=genomes)
