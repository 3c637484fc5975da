"""Batched masking against the re-encoding oracles.

`encode.masked_encodings` must produce, bitwise, what re-encoding a copied
record list with one cell set to Missing produces, and must report a
variant as changed exactly when that re-encoding differs from the unmasked
encoding. The genome report built on it must match the per-customer
re-encode loop byte for byte.
"""

import json

import numpy as np
import pytest

from oracles import (MISSING, Number, Row, Token, columns_of, column_of, masked_rows,
                     reference_genome_report, rows_of, same_encoding, table_from_rows)
from tabrep import interpret, numeric
from tabrep.encode import BranchLayout, encode_rows, encode_table, masked_encodings
from tabrep.eval import SynthConfig, synth_generate
from tabrep.interpret import (InterpretConfig, class_target, genome_report,
                              mask_and_delta, maskable_features, position_target)
from tabrep.model import EVAL_BATCH, CustomerEncoder, ModelConfig, TrainConfig
from tabrep.prep import OOV_TOKEN_ID, build_schema, tokenize
from tabrep.table import BigTable


def test_masked_rows_pure_copy():
    rows = [Row(cells=(Token("x"), Number(1.0)), date=0)]
    out = masked_rows(rows, 0, 0)
    assert out[0].cells[0] is MISSING
    assert out[0].cells[1] == Number(1.0)
    assert rows[0].cells[0] == Token("x")


def _with_extra_customers(table: BigTable, extra: dict) -> BigTable:
    records = {c: rows_of(table, c) for c in table.customers}
    records.update(extra)
    return table_from_rows(list(table.customers) + list(extra), table.features, records,
                           labels=table.labels, has_date_index=table.has_date_index)


def _hand_made_customers(table: BigTable, schema) -> dict:
    """Customers with unseen tokens; with a single static cell whose
    masking clears its branch's presence bit (for the range's minimum,
    which normalizes to 0.0, the presence bit is all that changes); and
    with a static value repeated, so masking the latest cell re-encodes
    to the same bits."""
    kinds = {f: schema.kinds[f].value for f in table.features}

    def row(date, **cells):
        return Row(cells=tuple(cells.get(f, MISSING) for f in table.features), date=date)

    sc = [f for f in table.features if kinds[f] == "SC"]
    dc = [f for f in table.features if kinds[f] == "DC"]
    sn = [f for f in table.features if kinds[f] == "SN"]
    assert sc and dc and sn
    unseen = {f: Token(f"unseen-{f}") for f in sc + dc}
    return {
        "oov": [row(t, **unseen, **{sn[0]: Number(1.0)}) for t in range(6)],
        "lone_static": [row(0, **{sc[0]: Token("unseen")}), row(1), row(2)],
        "lone_number": [row(0), row(1, **{sn[0]: Number(2.0)})],
        "lone_minimum": [row(0, **{sn[0]: Number(schema.numeric_stats[sn[0]][0])})],
        "repeated_number": [row(0, **{sn[0]: Number(2.0)}), row(1, **{sn[0]: Number(2.0)})],
    }


def test_masked_encodings_match_reencoding_on_every_cell():
    base_table = synth_generate(SynthConfig(n_customers=40, records_min=2, records_max=9,
                                            seed=4))
    schema = build_schema(base_table)
    table = _with_extra_customers(base_table, _hand_made_customers(base_table, schema))
    layout = BranchLayout.from_schema(schema, n_s=4)
    vocabs = schema.vocabularies
    codes = table.columns.codes.copy()

    # every (customer, record, feature) cell, masked in one call
    cells = [(i, t, j) for i, cid in enumerate(table.customers)
             for t in range(table.n_records(cid)) for j in range(len(schema.feature_order))]
    who, records, features = map(list, zip(*cells))
    changed, masked = masked_encodings(table, [table.customers[i] for i in who], records,
                                       features, schema, layout)
    got = {k: masked[[row]] for row, k in enumerate(changed)}
    assert table.columns.codes.tobytes() == codes.tobytes()

    seen = {"long_history": 0, "missing": 0, "oov": 0, "presence_flip": 0,
            "skipped": 0, "edited": 0}
    encoded = encode_table(table, schema, layout)
    bases = {cid: encoded[[i]] for i, cid in enumerate(table.customers)}
    for cid in table.customers:
        seen["long_history"] += table.n_records(cid) > layout.n_s
        assert same_encoding(bases[cid], encode_rows(table.records[cid], schema, layout)), cid
    for k, (i, t, j) in enumerate(cells):
        cid, f = table.customers[i], schema.feature_order[j]
        rows, base = rows_of(table, cid), bases[cid]
        cell = rows[t].cells[j]
        seen["missing"] += cell is MISSING
        seen["oov"] += f in vocabs and cell is not MISSING \
            and tokenize(column_of([cell]), vocabs[f])[0] == [OOV_TOKEN_ID]
        want = encode_rows(columns_of([masked_rows(rows, j, t)], len(table.features)), schema,
                           layout)
        if k not in got:
            seen["skipped"] += 1
            assert same_encoding(want, base), (cid, t, f)
        else:
            seen["edited"] += 1
            assert same_encoding(got[k], want), (cid, t, f)
            assert not same_encoding(want, base), (cid, t, f)
            seen["presence_flip"] += not np.array_equal(got[k].presence, base.presence)
    assert all(seen.values()), seen


# ---- the report against the re-encode loop --------------------------------
#
# A customer's representation and class probabilities are bitwise the same
# whichever rows share their batch, so the report, which forwards shared
# batches, must match the reference, which forwards one customer's variants
# per batch, byte for byte on every target.


@pytest.fixture(scope="module")
def trained():
    table = synth_generate(SynthConfig(n_customers=36, n_dynamic_categorical=1,
                                       records_min=2, records_max=10,
                                       label_noise=0.02, seed=21))
    table = _with_extra_customers(table, {"nobody": []})
    schema = build_schema(table)
    model = CustomerEncoder(schema,
                            ModelConfig(embed_dim=8, n_s=4, heads=2, t_max=2, rep_width=8,
                                        fusion_hidden=16, head_hidden=16, recon_count=1,
                                        recon_dim=4, dropout=0.0),
                            tasks={"churn": 2}, seed=1)
    model.fit(table, TrainConfig(epochs=3, batch_size=16, learning_rate=3e-3,
                                 validation_fraction=0.0, seed=1))
    return model, table


MIXED = InterpretConfig(k=37, mask_samples=12, delta_threshold=0.0, seed=5,
                        targets=(class_target("churn", 1), position_target(0),
                                 class_target("churn", 0), position_target(5)))


@pytest.mark.parametrize("config", [MIXED, InterpretConfig(k=6, mask_samples=9, seed=2)],
                         ids=["mixed-targets", "all-positions-default-threshold"])
def test_report_equals_reencoding_reference(trained, config, monkeypatch):
    model, table = trained
    slices = []

    def spy(source, who, *args):
        slices.append(len(who))
        return masked_encodings(source, who, *args)

    monkeypatch.setattr(interpret, "masked_encodings", spy)
    got = genome_report(model, table, config).to_dict()
    assert max(slices) <= EVAL_BATCH
    want = reference_genome_report(model, table, config).to_dict()
    assert [g["target"] for g in got["targets"]] == [w["target"] for w in want["targets"]]
    for g, w in zip(got["targets"], want["targets"]):
        assert json.dumps(g, sort_keys=True) == json.dumps(w, sort_keys=True), g["target"]
    if config is MIXED:
        assert all(g["per_customer"]["nobody"] == [] for g in got["targets"])
        assert sum(slices) > EVAL_BATCH         # distinct masked cells span two slices


@pytest.mark.parametrize("n_records", [1, 3, 7, 16, 100, 5000])
@pytest.mark.parametrize("n_feats", [1, 2, 7, 8])
def test_one_integers_call_draws_what_scalar_calls_draw(n_records, n_feats):
    """`genome_report` draws a customer's (record, feature) pairs with one
    call; the reference report draws them two scalar calls a pair. The values
    and the stream's position afterwards must be the same."""
    vector, scalar = (numeric.substream(3, f"pairs/{n_records}/{n_feats}") for _ in range(2))
    got = vector.integers(np.tile([n_records, n_feats], 64)).reshape(-1, 2).tolist()
    want = [[int(scalar.integers(n_records)), int(scalar.integers(n_feats))] for _ in range(64)]
    assert got == want
    assert vector.bit_generator.state == scalar.bit_generator.state


def test_mask_and_delta_equals_report_delta(trained):
    """With one draw per customer, each contribution is that cell's delta."""
    model, table = trained
    config = InterpretConfig(k=37, mask_samples=1, delta_threshold=0.0, seed=3,
                             targets=MIXED.targets)
    report = genome_report(model, table, config)
    feats = maskable_features(model)
    checked = 0
    for genome in report.targets:
        for cid in genome.customers:
            rows = rows_of(table, cid)
            if not rows:
                continue
            rng = numeric.substream(config.seed, f"interpret/{genome.target.key()}/{cid}")
            t, fi = int(rng.integers(len(rows))), int(rng.integers(len(feats)))
            delta = mask_and_delta(model, table, cid, feats[fi], t, genome.target)
            [rec] = genome.per_customer[cid]
            assert rec["feature"] == feats[fi]
            assert rec["contribution"] == delta, (genome.target.key(), cid)
            checked += delta != 0.0
    assert checked


def test_forwarded_rows_do_not_depend_on_chunking(trained):
    """Copies of one row, in a full chunk and as a lone last row, and the
    row forwarded alone, are bitwise one representation."""
    model, table = trained
    enc = encode_rows(table.records[table.customers[0]], model.schema, model.layout)
    rows = model.forward_stream([enc[[0] * (EVAL_BATCH + 1)]])
    assert len(rows) == EVAL_BATCH + 1
    alone = model.forward(enc).rep.data
    assert all(row.tobytes() == alone[0].tobytes() for row in rows)
