"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately naive: plain loops over cells, no
vectorization, no config plumbing. The table and metric oracles share no
code with the package. The masking oracles re-encode a copied record list
for every masked cell, which is what the package's batched masking must match.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tabrep
from tabrep import numeric
from tabrep.dynamics import PonderStats, transformer_step
from tabrep.encode import Batch, encode_rows, stack_encoded
from tabrep.interpret import (GenomeReport, InterpretConfig, TargetGenome, _top_k,
                              maskable_features, position_target, sensitive_features)
from tabrep.table import (KIND_DATE, KIND_MISSING, KIND_NUMBER, KIND_TOKEN, BigTable, CellPool,
                          Column, Columns, parse_text)


# ---- cells -----------------------------------------------------------------
#
# The package keeps a cell only as a pool entry: a kind and a value or item.
# The tests build and compare tables cell by cell, as these tagged values.

class Missing:
    """Singleton cell value for absent data."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Missing"


MISSING = Missing()


@dataclass(frozen=True, slots=True)
class Number:
    value: float


@dataclass(frozen=True, slots=True)
class Token:
    value: str


@dataclass(frozen=True, slots=True)
class Date:
    epoch: int


def _cell(kind: int, item):
    """The cell of a pool entry of `kind` with `item`: a number's value, a
    token's text or a date's epoch."""
    if kind == KIND_MISSING:
        return MISSING
    return {KIND_NUMBER: Number, KIND_TOKEN: Token, KIND_DATE: Date}[kind](item)


def parse_cell(text: str):
    """The cell of `table.parse_text(text)`."""
    return _cell(*parse_text(text))


# ---- tables as `Row` lists -------------------------------------------------
#
# The package stores a table as columns of codes into a pool of cells. These
# build such columns from one `Row` list per customer, and read a table's
# records back as `Row`s, cell by cell.

@dataclass(frozen=True)
class Row:
    """One record: one cell per feature, and its date (None if undated)."""

    cells: tuple
    date: int | None = None


def _pooled(cells) -> tuple[CellPool, list[int]]:
    """A pool of the distinct `cells` and each cell's code in it: MISSING is
    0, the others follow in first-seen order. Numbers are told apart by
    their bits, so 0.0 and -0.0 get two codes, as the package keeps them."""
    kinds, values, items, code_of, codes = [KIND_MISSING], [math.nan], {}, {}, []
    for cell in cells:
        if cell is MISSING:
            codes.append(0)
            continue
        key = cell.value.hex() if isinstance(cell, Number) else cell
        if key not in code_of:
            code_of[key] = len(kinds)
            if isinstance(cell, Number):
                kinds.append(KIND_NUMBER)
                values.append(cell.value)
            else:
                kinds.append(KIND_TOKEN if isinstance(cell, Token) else KIND_DATE)
                values.append(math.nan)
                items[code_of[key]] = cell.value if isinstance(cell, Token) else cell.epoch
        codes.append(code_of[key])
    return CellPool(np.array(kinds, dtype=np.int8), np.array(values), items), codes


def columns_of(histories, width: int) -> Columns:
    """The columns of one `Row` list per customer, over one pool."""
    rows = [row for history in histories for row in history]
    assert all(len(row.cells) == width for row in rows)
    pool, codes = _pooled([cell for row in rows for cell in row.cells])
    return Columns.build(pool, codes, width, [len(history) for history in histories],
                         [row.date or 0 for row in rows], [row.date is not None for row in rows])


def table_from_rows(customers, features, records, labels=None,
                    has_date_index=False) -> BigTable:
    """The table of `records`, customer -> `Row` list; a customer it does
    not name has no records."""
    assert set(records) <= set(customers)
    return BigTable(customers=list(customers), features=list(features),
                    records=columns_of([records.get(c, ()) for c in customers], len(features)),
                    labels=labels or {}, has_date_index=has_date_index)


def column_of(cells) -> Column:
    """A table `Column` of `cells`."""
    pool, codes = _pooled(cells)
    return Column(pool, np.array(codes, dtype=np.int64))


def cell_of(pool: CellPool, code: int):
    """The cell of `code` in `pool`."""
    kind = int(pool.kinds[code])
    return _cell(kind, pool.values.item(code) if kind == KIND_NUMBER else pool.items.get(code))


def cells_of(column: Column) -> list:
    """The cells of a table `Column`, in its order."""
    return [cell_of(column.pool, code) for code in column.codes.tolist()]


def rows_of(table: BigTable, customer: str) -> list[Row]:
    """A customer's records as `Row`s, read from `table.records`."""
    cols = table.records[customer]
    return [Row(cells=tuple(cell_of(cols.pool, code) for code in codes),
                date=date if dated else None)
            for codes, date, dated in zip(cols.codes.tolist(), cols.dates.tolist(),
                                          cols.dated.tolist())]


def traced_peak(fn):
    """`fn()`'s result and the peak of tracemalloc's traced memory while it
    ran, above the traced memory at its start. Tracing starts for the call
    and stops after it, unless it is already on: a call nested in a traced
    one also counts what it frees of memory the outer call allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def fresh_python(args: list[str], **env) -> subprocess.CompletedProcess:
    """`python args` in a fresh interpreter that imports these sources, with
    `env` over this process's environment (a value of None unsets it)."""
    src = str(Path(tabrep.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={k: v for k, v in env.items() if v is not None})


def stage_modules(argv: list[str]) -> set[str]:
    """The names in `sys.modules` after the CLI stage `argv` ran in a fresh
    interpreter on these sources, which must end it with exit code 0."""
    script = ("import json, sys\nfrom tabrep.cli import main\ncode = main(sys.argv[1:])\n"
              "print(json.dumps(sorted(sys.modules)))\nsys.exit(code)\n")
    proc = fresh_python(["-c", script, *argv])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def reference_backward(loss, tape) -> None:
    """The reverse sweep that frees nothing: every node of `tape` keeps its
    gradient and backward function, which `numeric.backward` must match."""
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(tape):
        if node.grad is not None:
            node._backward_fn(node.grad)


def padded_act_run(e0, params, config, mask=None, train=False, rng=None):
    """`dynamics.act_run` without packing: every step runs on the padded
    [b, n_s, n_e] windows, and padded positions are computed and ignored.
    Same return values."""
    b, n_s, n_e = e0.shape
    valid = np.ones((b, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    threshold = 1.0 - config.act_epsilon
    acc = np.zeros((b, n_s))
    halted = ~valid
    halt_steps = np.zeros((b, n_s), dtype=np.int64)
    e_t = e0
    final = numeric.Tensor(np.zeros((b, n_s, n_e)))
    probs = []
    for step in range(1, config.t_max + 1):
        e_t = transformer_step(e_t, step, params, config, mask=valid, train=train, rng=rng)
        p = numeric.sigmoid(numeric.matmul(e_t, params.halt_w) + params.halt_b)
        probs.append(p)
        p_data = p.data[..., 0]
        crossing = (~halted) & ((acc + p_data >= threshold) | (step == config.t_max))
        final = final + numeric.Tensor(crossing[..., None].astype(np.float64)) * e_t
        acc = acc + np.where(valid, p_data, 0.0)
        halt_steps[crossing] = step
        halted |= crossing
        if halted.all():
            break
    n_valid = int(valid.sum())
    running = halt_steps[..., None] > np.arange(1, len(probs) + 1)
    mass_before = numeric.tensor_sum(numeric.concat(probs, axis=-1)
                                     * numeric.Tensor(running / n_valid))
    mean_remainder = 1.0 - mass_before
    mean_steps = float(halt_steps.sum() / n_valid)
    stats = PonderStats(halt_steps=halt_steps, mean_steps=mean_steps,
                        mean_remainder=float(mean_remainder.data), accumulated=acc)
    return final, mean_steps + mean_remainder, stats


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
            if not (isinstance(a, Number) and isinstance(b, Number)):
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
        values = [c.value for c in cells_of(table.column(feature)) if isinstance(c, Number)]
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
    else:
        lo = hi = 0.0
    count = 0
    for cust in table.customers:
        cells = [row.cells[j] for row in rows_of(table, cust)]
        if reference_change_statistic(cells, kind, lo, hi) > pair_threshold:
            count += 1
    return "dynamic" if count > feature_threshold else "static"


# ---- row oracles of the columnar table paths ------------------------------
#
# Straight-line loops over `Row` lists, written as the row-storage code was
# before the tables became columnar. The columnar passes must match them
# bit for bit.

def python_normalize(x: float, stats: tuple[float, float]) -> float:
    """Python's `min(max((x - lo) / (hi - lo), 0.0), 1.0)`; 0.5 for a
    constant range. Keeps a -0.0 that `max(v, 0.0)` keeps."""
    lo, hi = stats
    if hi == lo:
        return 0.5
    return min(max((x - lo) / (hi - lo), 0.0), 1.0)


def reference_order(rows: list[Row]) -> list[Row]:
    return sorted(rows, key=lambda r: float("-inf") if r.date is None else r.date)


def reference_vocabulary(cells) -> dict[str, int]:
    """Token -> id from 2, in first-seen order of the non-missing cells."""
    out: dict[str, int] = {}
    for cell in cells:
        if cell is not MISSING:
            out.setdefault(_token_key(cell), 2 + len(out))
    return out


def reference_range(cells) -> tuple[float, float]:
    values = [c.value for c in cells if isinstance(c, Number)]
    return (min(values), max(values)) if values else (0.0, 0.0)


def reference_stats_json(customers, n_features: int, records: dict, labels: dict,
                         kind_ratios: dict) -> str:
    """`stats.json` by per-customer, per-feature loops."""
    active = [c for c in customers if records.get(c)]
    per_feature = [0.0] * n_features
    structural = 0
    for cust in active:
        rows = records[cust]
        for j in range(n_features):
            missing = sum(1 for row in rows if row.cells[j] is MISSING)
            per_feature[j] += missing / len(rows)
            structural += missing == len(rows)
    per_feature = [m / len(active) for m in per_feature]
    label_ratio = {}
    for task, got in labels.items():
        pos = sum(1 for v in got.values() if v == 1)
        neg = sum(1 for v in got.values() if v == 0)
        label_ratio[task] = (pos / neg) if neg else None
    counts = [len(records[c]) for c in active]
    return json.dumps({
        "label_ratio": label_ratio,
        "feature_missing_ratio": sum(per_feature) / n_features,
        "structural_missing_ratio": structural / (len(active) * n_features),
        "kind_ratios": kind_ratios,
        "records_per_customer": {"min": float(min(counts)), "mean": sum(counts) / len(counts),
                                 "max": float(max(counts))},
    }, sort_keys=True)


def _latest(rows: list[Row], j: int):
    for row in reversed(rows):
        if row.cells[j] is not MISSING:
            return row.cells[j]
    return MISSING


def _vocab_id(schema, feature: str, cell) -> int:
    if cell is MISSING:
        return 0
    return schema.vocabularies[feature].token_to_id.get(_token_key(cell), 1)


def reference_encoding(rows: list[Row], schema, layout) -> Batch:
    """One customer's encoding, a one-row `Batch`, by loops over its `Row`s."""
    index = {f: i for i, f in enumerate(schema.feature_order)}
    n_s = layout.n_s
    window = rows[-n_s:]
    cs_latest = [_latest(rows, index[f]) for f in layout.cs_features]
    sn_latest = [_latest(rows, index[f]) for f in layout.sn_features]
    cs_ids = [_vocab_id(schema, f, c) + int(off)
              for f, c, off in zip(layout.cs_features, cs_latest, layout.cs_offsets)]
    ns_vals = [python_normalize(c.value, schema.numeric_stats[f]) if isinstance(c, Number)
               else 0.0 for f, c in zip(layout.sn_features, sn_latest)]
    seq_valid = [t < len(window) for t in range(n_s)]
    if not window:
        seq_valid[0] = True
    cd_ids = np.zeros((n_s, len(layout.cd_features)), dtype=np.int64)
    nd_vals = np.zeros((n_s, len(layout.dn_features)))
    for t in range(n_s):
        for i, f in enumerate(layout.cd_features):
            cell = window[t].cells[index[f]] if t < len(window) else MISSING
            cd_ids[t, i] = _vocab_id(schema, f, cell) + int(layout.cd_offsets[i])
        for i, f in enumerate(layout.dn_features):
            cell = window[t].cells[index[f]] if t < len(window) else MISSING
            if isinstance(cell, Number):
                nd_vals[t, i] = python_normalize(cell.value, schema.numeric_stats[f])
    presence = [float(any(c is not MISSING for c in cs_latest)),
                float(any(isinstance(c, Number) for c in sn_latest)),
                float(bool(window) and len(layout.cd_features) > 0),
                float(bool(window) and len(layout.dn_features) > 0)]
    return Batch(customers=[""],
                 cs_ids=np.array(cs_ids, dtype=np.int64).reshape(1, -1),
                 ns_vals=np.array(ns_vals, dtype=np.float64).reshape(1, -1),
                 cd_ids=cd_ids[None], nd_vals=nd_vals[None],
                 seq_valid=np.array([seq_valid], dtype=bool),
                 presence=np.array([presence]))


def same_encoding(a: Batch, b: Batch) -> bool:
    """Bitwise equality of two batches' arrays, shapes and dtypes (0.0 and
    -0.0 differ); customer names are not compared."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a.arrays, b.arrays))


def reference_summary(rows: list[Row], schema, features: list[str]) -> np.ndarray:
    """The augmented summary of one customer by loops over its `Row`s."""
    branch = schema.branch_features()
    index = {f: i for i, f in enumerate(features)}
    out = []
    for f in branch["SN"]:
        cell = _latest(rows, index[f])
        out.append(python_normalize(cell.value, schema.numeric_stats[f])
                   if isinstance(cell, Number) else 0.0)
    for f in branch["DN"]:
        vals = [python_normalize(row.cells[index[f]].value, schema.numeric_stats[f])
                for row in rows if isinstance(row.cells[index[f]], Number)]
        out.append(sum(vals) / len(vals) if vals else 0.0)
    for f in branch["DC"]:
        keys = [None if row.cells[index[f]] is MISSING else _token_key(row.cells[index[f]])
                for row in rows]
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        out.append(changes / (len(rows) - 1) if len(rows) > 1 else 0.0)
    return np.array(out, dtype=np.float64)


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
    return table_from_rows(list(records), [f"f{i}" for i in range(n_features)], records,
                           has_date_index=True)


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
    rep = model.forward(batch, train=False).rep.data
    if target.kind == "position":
        return rep[:, target.position]
    return model.class_proba(rep, target.task)[:, target.class_index]


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
            rows = rows_of(table, cid)
            if not rows or not feats:
                continue
            rng = numeric.substream(config.seed, f"interpret/{target.key()}/{cid}")
            draws = [(int(rng.integers(len(rows))), int(rng.integers(len(feats))))
                     for _ in range(config.mask_samples)]
            width = len(model.schema.feature_order)
            variants = [encode_rows(table.records[cid], model.schema, model.layout)]
            for t, fi in draws:
                j = model.schema.feature_order.index(feats[fi])
                variants.append(encode_rows(columns_of([masked_rows(rows, j, t)], width),
                                            model.schema, model.layout))
            vals = _reference_target_values(model, stack_encoded(variants), target)
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
