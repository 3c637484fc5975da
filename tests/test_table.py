import csv
import io
import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MISSING, Date, Number, Row, Token, parse_cell, rows_of, table_from_rows
from tabrep import SynthConfig, build_schema, synth_generate
from tabrep import table as tb
from tabrep.errors import (EmptyTableError, InterleavedTableError, MissingDateIndexError,
                           ParseError, SchemaError, TableIOError)
from tabrep.table import (KIND_DATE, KIND_MISSING, KIND_NUMBER, KIND_TOKEN, TableFormat,
                          compute_stats, load_table, order_records, parse_text, read_groups,
                          save_table)


def make_table(records, features=("f",), labels=None, dated=True):
    return table_from_rows(list(records), features, records, labels=labels, has_date_index=dated)


def rows_by_customer(table):
    return {c: rows_of(table, c) for c in table.customers}


# ---- cell parsing --------------------------------------------------------

@pytest.mark.parametrize("text", ["", "na", "NaN", "NULL", "  ", " nan "])
def test_missing_spellings(text):
    assert parse_text(text) == (KIND_MISSING, None)


def test_parse_number_token_date():
    assert parse_text(" 3.5") == (KIND_NUMBER, 3.5)
    assert parse_text(" premium ") == (KIND_TOKEN, "premium")
    assert parse_text("2021-01-02") == (KIND_DATE, 1_609_545_600)
    assert parse_text(" 2021-01-02T01:00:00Z") == (KIND_DATE, 1_609_549_200)
    assert parse_text("2021-01-02T01:00:00+01:00") == (KIND_DATE, 1_609_545_600)


def test_non_finite_numbers_become_missing():
    for text in ("inf", "-inf", " Infinity", "1e999"):
        assert parse_text(text) == (KIND_MISSING, None)


# ---- loading -------------------------------------------------------------

def test_fixture_counts(fixture_csv):
    t = load_table(fixture_csv, TableFormat(date_column="date"))
    assert t.n_customers == 3
    assert t.n_features == 2
    assert sum(len(rows) for rows in rows_by_customer(t).values()) == 5


def test_empty_cell_is_missing(fixture_csv):
    t = load_table(fixture_csv, TableFormat(date_column="date"))
    plan = rows_of(t, "a1")[1].cells[t.feature_index("plan")]
    assert plan is MISSING


def test_float_cell_parses(fixture_csv):
    t = load_table(fixture_csv, TableFormat(date_column="date"))
    assert rows_of(t, "a3")[0].cells[t.feature_index("age")] == Number(3.5)


def test_duplicate_header_rejected(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("customer_id,x,x\nc1,1,2\n")
    with pytest.raises(SchemaError):
        load_table(p)


def test_missing_id_column_rejected(tmp_path):
    p = tmp_path / "noid.csv"
    p.write_text("foo,x\nc1,1\n")
    with pytest.raises(SchemaError):
        load_table(p)


def test_ragged_row_rejected(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("customer_id,x,y\nc1,1\n")
    with pytest.raises(ParseError):
        load_table(p)


def test_byte_order_mark_is_not_part_of_the_first_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("customer_id,f\nc1,1.5\n".encode("utf-8-sig"))
    t = load_table(path)
    assert t.customers == ["c1"] and t.features == ["f"]
    assert rows_of(t, "c1") == [Row(cells=(Number(1.5),))]


def test_ragged_row_error_names_the_line_it_ends_on(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('customer_id,f\nc1,"a\nb"\nc2,x,y\n')
    with pytest.raises(ParseError, match=r"t\.csv:4: expected 2 fields, got 3"):
        load_table(path)


def test_label_column_loads_first_value_per_customer(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("customer_id,x,churn\nc1,1,1\nc1,2,1\nc2,3,0\nc2,4,\nc2,5, 0.0\nc3,6,na\n")
    t = load_table(p, TableFormat(label_columns=("churn",)))
    assert t.labels["churn"] == {"c1": 1, "c2": 0}
    assert t.features == ["x"]


@pytest.mark.parametrize("rows,line", [
    ("c1,1,yes\nc1,2,1\n", 2),                 # a token
    ("c1,1,0\nc1,2,1\n", 3),                   # a later label that differs
    ("c1,1,2020-01-01\n", 2),                  # a date
    ("c1,1,\nc1,2,-3\n", 3),                   # a negative number
    ("c1,1,1\nc2,2,1\nc2,3,0.5\n", 4),         # a fraction
])
def test_every_label_cell_is_missing_or_the_customers_one_integer(tmp_path, rows, line):
    p = tmp_path / "labels.csv"
    p.write_text("customer_id,x,churn\n" + rows)
    with pytest.raises(ParseError, match=rf"labels\.csv:{line}: label column 'churn'"):
        load_table(p, TableFormat(label_columns=("churn",)))


# ---- ordering ------------------------------------------------------------

def test_order_records_sorts_by_date(fixture_csv):
    t = order_records(load_table(fixture_csv, TableFormat(date_column="date")))
    dates = [r.date for r in rows_of(t, "a2")]
    assert dates == sorted(dates)


def test_order_records_unsorted_then_sorted():
    rows = {"u": [Row(cells=(Token("a"),), date=3), Row(cells=(Token("b"),), date=1),
                  Row(cells=(Token("c"),), date=2)]}
    out = order_records(make_table(rows))
    assert [r.date for r in rows_of(out, "u")] == [1, 2, 3]


def test_order_records_idempotent():
    rows = {"u": [Row(cells=(Token("a"),), date=1), Row(cells=(Token("b"),), date=2)]}
    once = order_records(make_table(rows))
    twice = order_records(once)
    assert rows_by_customer(once) == rows_by_customer(twice)


def test_order_records_stable_on_date_ties():
    rows = {"u": [Row(cells=(Token("a"),), date=5), Row(cells=(Token("b"),), date=5)]}
    out = order_records(make_table(rows))
    # brute-force stable sort oracle: equal keys keep file order
    oracle = sorted(rows["u"], key=lambda r: r.date)
    assert rows_of(out, "u") == oracle
    assert [r.cells[0].value for r in rows_of(out, "u")] == ["a", "b"]


def test_order_records_requires_date_index():
    rows = {"u": [Row(cells=(Token("a"),), date=None)]}
    with pytest.raises(MissingDateIndexError):
        order_records(make_table(rows, dated=False))


# Random CSV text through `load_table`: every feature, date and label cell
# it reads is `parse_cell` of that cell's raw text, although equal texts
# share one pool entry. Cells compare by repr, so a shared entry for "0.0"
# and "-0.0" would show. Most random label columns are refused, so each
# file is also loaded with its label column read as a feature.
RAW_CELLS = ["", "  ", "na", " NA ", "NaN", "null", "nan", "inf", "-inf", "1e999",
             "0.0", "-0.0", " -0.0", "0", "1", "1.0", " 1 ", "-2.5", "2020-01-01",
             " 2020-01-01 ", "2020-01-01T10:00:00Z", "2020-02-30", "a", " a", "a ",
             '"', '""', '"a,b"', 'x"y']
raw_cells = st.one_of(st.sampled_from(RAW_CELLS), st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=5))
csv_rows = st.lists(st.tuples(st.sampled_from(["c1", " c2 ", "c3"]), raw_cells,
                              raw_cells, raw_cells, raw_cells), min_size=1, max_size=12)


CSV_FORMAT = TableFormat(date_column="date", label_columns=("churn",))
FEATURE_FORMAT = TableFormat(date_column="date")        # "churn" is a feature


def csv_file(directory, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["customer_id", "date", "f", "g", "churn"])
    writer.writerows(rows)
    path = directory / "t.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return path


def cells_by_customer(table):
    return {cust: [(row.date, *map(repr, row.cells)) for row in rows]
            for cust, rows in rows_by_customer(table).items()}


def epoch_of(text):
    """The date a load reads from a date cell's raw text, or None."""
    cell = parse_cell(text)
    return (cell.epoch if isinstance(cell, Date)
            else int(cell.value) if isinstance(cell, Number) else None)


def refused(rows, labels=True):
    """The file line of the first cell a load refuses, and what its error
    names: a date outside the 64-bit epoch range, or with `labels` a label
    cell that is neither missing nor its customer's one non-negative
    integer. None if there is none."""
    first = {}
    for line, (cust, date, _, _, label) in enumerate(rows, start=2):
        epoch = epoch_of(date)
        if epoch is not None and not -2 ** 63 <= epoch < 2 ** 63:
            return line, "date"
        cell = parse_cell(label)
        if not labels or cell is MISSING:
            continue
        if not (isinstance(cell, Number) and cell.value >= 0 and cell.value.is_integer()) \
                or first.setdefault(cust.strip(), cell.value) != cell.value:
            return line, "label column 'churn'"
    return None


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(rows=csv_rows)
def test_loaded_cells_equal_parse_cell_of_their_raw_text(tmp_path_factory, rows):
    path = csv_file(tmp_path_factory.mktemp("load"), rows)
    for fmt, bad in ((FEATURE_FORMAT, refused(rows, labels=False)), (CSV_FORMAT, refused(rows))):
        if bad is not None:
            with pytest.raises(ParseError, match=rf"t\.csv:{bad[0]}: {bad[1]}"):
                load_table(path, fmt)
    if refused(rows, labels=False) is not None:
        return
    want_records, want_labels = {}, {}
    for cust, date, f, g, label in rows:
        label_cell = parse_cell(label)
        want_records.setdefault(cust.strip(), []).append(
            (epoch_of(date), repr(parse_cell(f)), repr(parse_cell(g)), repr(label_cell)))
        if isinstance(label_cell, Number):
            want_labels.setdefault(cust.strip(), int(label_cell.value))
    t = load_table(path, FEATURE_FORMAT)
    assert t.customers == list(want_records)
    assert cells_by_customer(t) == want_records
    if refused(rows) is not None:
        return
    t = load_table(path, CSV_FORMAT)
    assert cells_by_customer(t) == {c: [r[:-1] for r in records]
                                    for c, records in want_records.items()}
    assert t.labels == ({"churn": want_labels} if want_labels else {})


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(rows=csv_rows, group=st.integers(1, 3))
def test_groups_are_the_load_cut_between_customers(tmp_path_factory, rows, group):
    # the same random rows: the groups hold the load's customers, `group` at a
    # time, unless a customer's rows continue after its group
    path = csv_file(tmp_path_factory.mktemp("groups"), rows)
    fmt = CSV_FORMAT
    if refused(rows) is not None:
        with pytest.raises(ParseError):
            load_table(path, CSV_FORMAT)
        with pytest.raises((ParseError, InterleavedTableError)):
            list(read_groups(path, CSV_FORMAT, group))
        if refused(rows, labels=False) is not None:
            return
        fmt = FEATURE_FORMAT
    whole = load_table(path, fmt)
    group_of = {c: i // group for i, c in enumerate(whole.customers)}
    in_file_order = [group_of[cust.strip()] for cust, *_ in rows]
    if in_file_order != sorted(in_file_order):
        with pytest.raises(InterleavedTableError):
            list(read_groups(path, fmt, group))
        return
    parts = list(read_groups(path, fmt, group))
    assert [p.customers for p in parts] == [whole.customers[i:i + group]
                                            for i in range(0, len(whole.customers), group)]
    assert {c: v for p in parts for c, v in cells_by_customer(p).items()} == \
        cells_by_customer(whole)
    assert {c: v for p in parts for c, v in p.labels.get("churn", {}).items()} == \
        whole.labels.get("churn", {})


def test_equal_texts_in_one_load_share_one_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("customer_id,f,g\nc1,gold,1.5\nc2,gold,1.5\nc2,1.5,-0.0\nc3, gold,0.0\n")
    t = load_table(path)
    f, g = t.column("f").codes.tolist(), t.column("g").codes.tolist()
    assert f[0] == f[1] and g[0] == g[1] == f[2]
    # distinct texts get their own cells, even when the cells compare equal
    assert f[3] != f[0]
    first, _, third, (spaced, zero) = (row.cells for c in t.customers for row in rows_of(t, c))
    assert spaced == first[0]
    assert math.copysign(1.0, third[1].value) == -1.0 and math.copysign(1.0, zero.value) == 1.0


def test_pool_shares_number_cells_by_value_bits_and_others_by_raw_text(tmp_path):
    texts = ["1.5", " 1.5", "1.50", "0.0", "-0.0", " -0.0", "1e3", "gold", " gold", "gold ",
             "2020-01-01", " 2020-01-01", "", "na", " NULL ", "inf", "1.5", "-0.0"]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([["customer_id", "f"]]
                                                      + [["c", text] for text in texts])
    path = tmp_path / "t.csv"
    path.write_text(buffer.getvalue())
    t = load_table(path)
    codes = t.column("f").codes.tolist()
    code = dict(zip(texts, codes))
    assert code["1.5"] == code[" 1.5"] == code["1.50"] == codes[texts.index("1.5", 1)]
    assert code["0.0"] != code["-0.0"] == code[" -0.0"] == codes[-1]
    assert len({code["gold"], code[" gold"], code["gold "], code["1e3"]}) == 4
    assert code["2020-01-01"] != code[" 2020-01-01"]
    assert {code[""], code["na"], code[" NULL "], code["inf"]} == {tb.MISSING_CODE}
    pool = t.columns.pool
    for text, c in zip(texts, codes):
        kind, item = parse_text(text)
        assert pool.kinds[c] == kind
        if kind == KIND_NUMBER:
            assert pool.values[c].tobytes() == np.float64(item).tobytes()
        else:
            assert np.isnan(pool.values[c]) and pool.items.get(c) == item


@pytest.mark.parametrize("kept", [0, 3])
def test_number_texts_beyond_the_kept_ones_load_alike(tmp_path, monkeypatch, kept):
    """A load keeps the first `KEPT_NUMBERS` number texts by text and parses
    later ones where they occur; the codes and the pool do not depend on
    where that switch falls."""
    texts = ["1.5", "2", "x", " 1.5", "2", "-0.0", "7", "0.0", "1.50", "2", "x", "7", "-0.0"]
    path = tmp_path / "t.csv"
    path.write_text("customer_id,f\n" + "".join(f"c{i % 3},{t}\n" for i, t in enumerate(texts)))
    default = load_table(path).columns
    monkeypatch.setattr(tb, "KEPT_NUMBERS", kept)
    switched = load_table(path).columns
    assert switched.codes.tolist() == default.codes.tolist()
    assert switched.pool.values.tobytes() == default.pool.values.tobytes()
    assert switched.pool.kinds.tolist() == default.pool.kinds.tolist()


@pytest.fixture(scope="module")
def synth_2k():
    return synth_generate(SynthConfig(n_customers=2000, seed=3))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_memory_per_record_is_bounded(tmp_path, synth_2k):
    """`load_table`'s traced peak on a 2k-customer synthetic table stays
    under 300 bytes per record. A Python cell and a dict entry per distinct
    number text took about 480."""
    fmt = TableFormat(date_column="date", label_columns=("churn",))
    save_table(synth_2k, tmp_path / "t.csv", fmt)
    n_records = len(synth_2k.columns.codes)
    peak = traced_peak(load_table, tmp_path / "t.csv", fmt)
    assert peak < 300 * n_records, peak / n_records


def test_repeated_numbers_load_peak_memory_per_record_is_bounded(tmp_path, synth_2k):
    """On the `synth_2k` table with every number rounded to an integer 0-99
    (100 distinct number texts), `load_table`'s traced peak stays under
    220 bytes per record, about 165 here. Codes in a Python list and a
    cell per distinct text took about 275."""
    fmt = TableFormat(date_column="date", label_columns=("churn",))
    save_table(synth_2k, tmp_path / "t.csv", fmt)
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[2:-1] = [str(int(abs(float(t))) % 100) if parse_text(t)[0] == KIND_NUMBER else t
                     for t in row[2:-1]]
    with open(tmp_path / "t.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    peak = traced_peak(load_table, tmp_path / "t.csv", fmt)
    assert peak < 220 * len(synth_2k.columns.codes), peak / len(synth_2k.columns.codes)


# ---- round trip ----------------------------------------------------------

def test_save_load_round_trip(tmp_path, fixture_csv):
    fmt = TableFormat(date_column="date")
    t = load_table(fixture_csv, fmt)
    out = tmp_path / "copy.csv"
    save_table(t, out, fmt)
    again = load_table(out, fmt)
    assert again.customers == t.customers
    assert again.features == t.features
    assert rows_by_customer(again) == rows_by_customer(t)


def test_save_refuses_a_customer_without_records_before_writing(tmp_path):
    table = table_from_rows(["a", "b"], ["f"], {"a": [Row(cells=(Number(1.0),), date=0)], "b": []},
                            labels={"churn": {"a": 1, "b": 0}}, has_date_index=True)
    path = tmp_path / "t.csv"
    with pytest.raises(TableIOError, match="'b'"):
        save_table(table, path, TableFormat(date_column="date", label_columns=("churn",)))
    assert not path.exists()


# Tables through `save_table` and back through `load_table`: every cell,
# date and label survives, also in ids and tokens that hold the delimiter,
# quotes or line breaks. Only cells that `parse_cell` maps back onto
# themselves are drawn, and only labels a load accepts.
def cell_text(cell) -> str:
    """The text `save_table` writes for `cell`."""
    if cell is MISSING:
        return ""
    if isinstance(cell, Date):
        return datetime.fromtimestamp(cell.epoch, tz=timezone.utc).isoformat()
    return repr(cell.value) if isinstance(cell, Number) else cell.value


trip_text = st.text(st.sampled_from(list("ab7 ,;\t\"'\r\n\x85\u2028")), min_size=1, max_size=6)
trip_cells = st.one_of(
    st.just(MISSING),
    st.floats(allow_nan=False, allow_infinity=False).map(Number),
    st.integers(-2 ** 34, 2 ** 34).map(Date),
    trip_text.filter(str.strip).map(Token),
).filter(lambda cell: parse_cell(cell_text(cell)) == cell)


@st.composite
def trip_tables(draw):
    ids = st.lists(trip_text.filter(lambda c: c.strip() == c), min_size=1, max_size=4,
                   unique=True)
    customers = draw(ids)
    rows = st.lists(st.builds(Row, cells=st.tuples(trip_cells, trip_cells),
                              date=st.none() | st.integers(-2 ** 34, 2 ** 34)),
                    min_size=1, max_size=3)
    labels = draw(st.dictionaries(st.sampled_from(customers), st.integers(0, 3)))
    return table_from_rows(customers, ["f", "g"], {c: draw(rows) for c in customers},
                           labels={"churn": labels} if labels else {}, has_date_index=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(table=trip_tables(), delimiter=st.sampled_from([",", ";", "\t"]))
def test_save_load_round_trip_keeps_every_cell(tmp_path_factory, table, delimiter):
    fmt = TableFormat(delimiter=delimiter, date_column="date", label_columns=("churn",))
    path = tmp_path_factory.mktemp("trip") / "t.csv"
    save_table(table, path, fmt)
    again = load_table(path, fmt)
    assert again.customers == table.customers
    assert again.features == table.features
    assert rows_by_customer(again) == rows_by_customer(table)
    assert again.labels == table.labels


# ---- stats ---------------------------------------------------------------

class KindStub:
    def __init__(self, ratios):
        self._ratios = ratios

    def kind_ratios(self):
        return self._ratios


def test_stats_zero_missing():
    rows = {"u": [Row(cells=(Number(1.0),), date=1)],
            "v": [Row(cells=(Number(2.0),), date=1)]}
    stats = compute_stats(make_table(rows), KindStub({"SN": 1.0}))
    assert stats.feature_missing_ratio == 0.0
    assert stats.structural_missing_ratio == 0.0


def test_stats_single_customer_all_missing():
    rows = {"u": [Row(cells=(MISSING,), date=d) for d in (1, 2, 3)]}
    stats = compute_stats(make_table(rows), KindStub({"SN": 1.0}))
    assert stats.structural_missing_ratio == 1.0
    assert stats.feature_missing_ratio == 1.0


def test_stats_half_missing_hand_count():
    rows = {
        "a": [Row(cells=(MISSING,), date=1), Row(cells=(MISSING,), date=2)],
        "b": [Row(cells=(Number(1.0),), date=1), Row(cells=(Number(2.0),), date=2)],
    }
    stats = compute_stats(make_table(rows), KindStub({"SN": 1.0}))
    assert stats.structural_missing_ratio == pytest.approx(0.5)
    assert stats.feature_missing_ratio == pytest.approx(0.5)


def test_stats_label_ratio_and_positive_fraction():
    rows = {c: [Row(cells=(Number(1.0),), date=1)] for c in "abcde"}
    labels = {"churn": {"a": 1, "b": 0, "c": 0, "d": 0, "e": 0}}
    stats = compute_stats(make_table(rows, labels=labels), KindStub({"SN": 1.0}))
    assert stats.label_ratio["churn"] == pytest.approx(0.25)


def test_stats_empty_table_rejected():
    with pytest.raises(EmptyTableError):
        compute_stats(make_table({}), KindStub({}))


def test_stats_kind_ratios_sum_to_one():
    rows = {"u": [Row(cells=(Number(1.0),), date=1)]}
    stats = compute_stats(make_table(rows), KindStub({"SN": 0.5, "SC": 0.5}))
    assert sum(stats.kind_ratios.values()) == pytest.approx(1.0)


def test_stats_peak_memory_per_record_is_bounded(synth_2k):
    """`compute_stats` of the `synth_2k` table allocates under 80 bytes per
    record (8 features). A running int64 count per record and feature took
    about 140."""
    schema = build_schema(synth_2k)
    peak = traced_peak(compute_stats, synth_2k, schema)
    assert peak < 80 * len(synth_2k.columns.codes), peak / len(synth_2k.columns.codes)
