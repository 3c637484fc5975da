"""The columnar table paths against the row oracles of `oracles.py`.

Random `Row` tables become `BigTable` columns; every whole-table pass (ordering,
recognition, vocabularies, ranges, dynamics counts, statistics, encoding,
summaries, masked re-encoding) must give, bit for bit, what straight-line
loops over the same `Row`s give.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (MISSING, Date, Number, Row, Token, masked_rows, reference_encoding,
                     reference_feature_kind, reference_change_statistic, reference_order,
                     reference_range, reference_stats_json, reference_summary,
                     reference_vocabulary, rows_of, same_encoding, table_from_rows)
from tabrep.encode import (BranchLayout, augmented_summaries, augmented_summary,
                           encode_table, masked_encodings, summary_width)
from tabrep.errors import EmptyTableError, MixedKindFeatureError
from tabrep.prep import NC_KIND, FeatureKind, RecognizerConfig, build_schema, nc_recognize
from tabrep.table import Columns, compute_stats, load_table, order_records

# One cell style per feature. "int" holds integer-valued numbers (-0.0
# among them), so it is recognized categorical; "num" turns numerical once
# a fractional value is drawn, and its sums depend on their order. Up to
# 10 records per customer, so numpy's pairwise summation (from 8 terms)
# would show. "mix" puts the token "1" next to the number
# 1 and is pinned to categorical by an override; "mixnum" mixes all three
# kinds and is pinned to numerical, where a token or date acts as missing.
STYLES = {
    "tok": [Token("a"), Token("b"), Token("1")],
    "num": [Number(-0.0), Number(0.0), Number(0.1), Number(1.0), Number(2.0), Number(-3.25),
            Number(2.7)],
    "int": [Number(-0.0), Number(0.0), Number(1.0), Number(2.0), Number(3.0)],
    "day": [Date(0), Date(86_400), Date(172_800)],
    "mix": [Token("1"), Number(1.0), Number(2.0)],
    "mixnum": [Token("1"), Number(1.0), Number(2.5), Date(86_400)],
}
FEATURES = list(STYLES)
OVERRIDES = {"mix": FeatureKind.DYNAMIC_CATEGORICAL, "mixnum": FeatureKind.DYNAMIC_NUMERICAL}
DYNAMIC = (FeatureKind.DYNAMIC_NUMERICAL, FeatureKind.DYNAMIC_CATEGORICAL)
N_S = 3


rows = st.lists(st.builds(lambda cells, date: Row(cells=tuple(cells), date=date),
                          st.tuples(*(st.sampled_from([MISSING, *STYLES[f]]) for f in FEATURES)),
                          st.none() | st.sampled_from([0, 1, 1, 2])),
                max_size=10)


@st.composite
def row_tables(draw):
    n = draw(st.integers(1, 6))
    customers = [f"u{i}" for i in range(n)]
    records = {c: draw(rows) for c in customers}
    labels = draw(st.dictionaries(st.sampled_from(customers), st.integers(0, 1)))
    return customers, records, labels


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=row_tables())
def test_columnar_paths_equal_row_oracles(drawn):
    customers, records, labels = drawn
    table = table_from_rows(customers, FEATURES, records,
                            labels={"churn": labels} if labels else {}, has_date_index=True)
    assert {c: rows_of(table, c) for c in customers} == records
    assert {c: [[repr(x) for x in r.cells] + [r.date] for r in rows_of(table, c)]
            for c in customers} == \
        {c: [[repr(x) for x in r.cells] + [r.date] for r in rs] for c, rs in records.items()}

    table = order_records(table)
    ordered = {c: reference_order(rs) for c, rs in records.items()}
    assert {c: rows_of(table, c) for c in customers} == ordered
    if any(r.cells[FEATURES.index("mix")] == Token("1") for rs in records.values() for r in rs) \
            and any(r.cells[FEATURES.index("mix")] == Number(1.0)
                    for rs in records.values() for r in rs):
        with pytest.raises(MixedKindFeatureError):
            nc_recognize(table, RecognizerConfig())

    config = RecognizerConfig()
    schema = build_schema(table, config, overrides=OVERRIDES)
    threshold = config.resolved_feature_threshold(len(customers))
    for j, f in enumerate(FEATURES):
        cells = [r.cells[j] for c in customers for r in ordered[c]]
        nc = NC_KIND[schema.kinds[f]]
        if f not in OVERRIDES:
            assert nc == reference_feature_kind(cells, config.integer_unique_threshold)
        if nc == "categorical":
            assert list(schema.vocabularies[f].token_to_id.items()) == \
                list(reference_vocabulary(cells).items())
        if nc == "numerical":
            lo, hi = reference_range(cells)
            assert tuple(map(_bits, schema.numeric_stats[f])) == (_bits(lo), _bits(hi))
        if nc != "date":
            lo, hi = reference_range(cells) if nc == "numerical" else (0.0, 0.0)
            count = sum(reference_change_statistic([r.cells[j] for r in ordered[c]], nc, lo, hi)
                        > config.pair_threshold(nc) for c in customers)
            assert schema.dynamics_summary[f] == count
            if f not in OVERRIDES:
                assert (schema.kinds[f] in DYNAMIC) == (count > threshold)

    if any(ordered.values()):
        want = reference_stats_json(customers, len(FEATURES), ordered, table.labels,
                                    schema.kind_ratios())
        assert compute_stats(table, schema).to_json() == want
    else:
        with pytest.raises(EmptyTableError):
            compute_stats(table, schema)

    layout = BranchLayout.from_schema(schema, n_s=N_S)
    encoded = encode_table(table, schema, layout)
    shuffled = encode_table(table, schema, layout, customers[::-1])
    assert encoded.customers == customers and shuffled.customers == customers[::-1]
    for i, cid in enumerate(customers):
        want = reference_encoding(ordered[cid], schema, layout)
        assert same_encoding(encoded[i:i + 1], want), cid
        assert same_encoding(shuffled[[len(customers) - 1 - i]], want), cid

    summaries = augmented_summaries(table, schema)
    for i, cid in enumerate(customers):
        want = reference_summary(ordered[cid], schema, FEATURES).tobytes()
        assert augmented_summary(table, cid, schema).tobytes() == want
        assert summaries[i].tobytes() == want

    cells = [(i, t, j) for i, cid in enumerate(customers)
             for t in range(len(ordered[cid])) for j in range(len(FEATURES))]
    who, at, features = (list(x) for x in zip(*cells)) if cells else ([], [], [])
    changed, masked = masked_encodings(table, [customers[i] for i in who], at, features,
                                       schema, layout)
    assert masked.customers == [customers[who[k]] for k in changed]
    got = {k: masked[[row]] for row, k in enumerate(changed)}
    for k, (i, t, j) in enumerate(cells):
        cid, enc = customers[i], encoded[[i]]
        want = reference_encoding(masked_rows(ordered[cid], j, t), schema, layout)
        if k not in got:
            assert same_encoding(want, enc), (cid, t, j)
        else:
            assert same_encoding(got[k], want) and not same_encoding(want, enc), (cid, t, j)


def test_records_give_each_customer_as_one_customer_columns():
    records = {"a": [Row(cells=(Number(1.5), Token("x")), date=1)],
               "b": [Row(cells=(Number(1.5), Token("x")), date=None)], "c": []}
    table = table_from_rows(["a", "b", "c"], ["f", "g"], records, has_date_index=True)
    for c in "abc":
        got = table.records[c]
        assert isinstance(got, Columns) and got.n_customers == 1
        assert got.pool is table.columns.pool
        assert rows_of(table, c) == records[c]
    assert table.records["a"].codes.tolist() == table.records["b"].codes.tolist()
    assert "c" in table.records and "z" not in table.records
    assert list(table.records) == ["a", "b", "c"]
    assert table.n_records("a") == 1 and table.n_records("c") == 0


def test_negative_zero_keeps_its_own_pool_entry(tmp_path):
    (tmp_path / "t.csv").write_text("customer_id,f\na,0.0\na,-0.0\n")
    table = load_table(tmp_path / "t.csv")
    cells = [row.cells[0] for row in rows_of(table, "a")]
    assert [repr(c.value) for c in cells] == ["0.0", "-0.0"]


def test_replace_keeps_the_records():
    from dataclasses import replace
    table = table_from_rows(["a"], ["f"], {"a": [Row(cells=(Token("x"),))]})
    again = replace(table, labels={"churn": {"a": 1}})
    assert rows_of(again, "a") == rows_of(table, "a") and again.labels == {"churn": {"a": 1}}


def test_summary_of_a_customer_without_records_is_zeros():
    table = table_from_rows(["a"], ["f"], {"a": []}, has_date_index=True)
    schema = build_schema(table_from_rows(["b"], ["f"], {"b": [Row(cells=(Number(0.5),)),
                                                               Row(cells=(Number(1.5),))]}))
    width = summary_width(schema)
    assert width and augmented_summary(table, "a", schema).tolist() == [0.0] * width


def test_cli_stages_build_no_rows(tmp_path, monkeypatch, capsys):
    """Every stage works on the whole columns; none reads one customer's
    records through `table.records`."""
    import json
    from tabrep.cli import main
    from tabrep.table import RecordsView
    monkeypatch.setattr(RecordsView, "__getitem__",
                        lambda *a: pytest.fail("a customer's records were read"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 1, "format": {"date_column": "date", "label_columns": ["churn"]},
        "synth": {"n_customers": 60, "records_min": 2, "records_max": 12},
        "model": {"embed_dim": 4, "n_s": 4, "heads": 1, "t_max": 1, "rep_width": 4,
                  "fusion_hidden": 4, "head_hidden": 4, "recon_count": 1, "recon_dim": 2},
        "train": {"epochs": 1, "batch_size": 16},
        "interpret": {"k": 3, "mask_samples": 4}}))
    common = ["--config", str(config), "--out", str(tmp_path)]
    table = ["--table", str(tmp_path / "synth.csv")]
    checkpoint = ["--checkpoint", str(tmp_path / "checkpoint.json")]
    assert main(["synth", *common]) == 0
    for stage in ("profile", "train"):
        assert main([stage, *common, *table]) == 0
    for stage in ("embed", "predict", "interpret", "evaluate"):
        assert main([stage, *common, *table, *checkpoint]) == 0
    assert not capsys.readouterr().err
