import struct

import numpy as np
import pytest

from tabrep.errors import MixedKindFeatureError, SchemaError
from tabrep.prep import (FeatureKind, RecognizerConfig, Vocabulary, build_schema,
                         dynamics_matrix, dynamics_statistic,
                         nc_recognize, sd_recognize, tokenize, uniform_normalize,
                         FeatureSchema, MISSING_TOKEN_ID, OOV_TOKEN_ID)

from oracles import (MISSING, Date, Number, Row, Token, cells_of, column_of,
                     numpy_uniform_normalize, random_table, reference_change_statistic,
                     reference_feature_kind, rows_of, table_from_rows)


def seq_table(sequences, features=("f",)):
    """One feature, one customer per dict entry; values are cell lists."""
    records = {u: [Row(cells=(c,) if not isinstance(c, tuple) else c, date=t)
                   for t, c in enumerate(cells)]
               for u, cells in sequences.items()}
    return table_from_rows(customers=list(records), features=list(features),
                           records=records, labels={}, has_date_index=True)


# ---- kind recognition ----------------------------------------------------

def test_fractional_feature_is_numerical():
    t = seq_table({"u1": [Number(1.5)], "u2": [Number(2.0)], "u3": [MISSING]})
    assert nc_recognize(t, RecognizerConfig())["f"] == "numerical"


def test_small_integer_feature_is_categorical():
    t = seq_table({f"u{i}": [Number(float(i % 3))] for i in range(12)})
    assert nc_recognize(t, RecognizerConfig(integer_unique_threshold=10))["f"] == "categorical"


def test_wide_integer_feature_is_numerical():
    t = seq_table({f"u{i}": [Number(float(i))] for i in range(50)})
    config = RecognizerConfig(integer_unique_threshold=10)
    assert nc_recognize(t, config)["f"] == "numerical"
    # cross-check against the straight-line oracle
    cells = [rows_of(t, u)[0].cells[0] for u in t.customers]
    assert reference_feature_kind(cells, 10) == "numerical"


def test_token_feature_is_categorical_and_dates_are_dates():
    t = seq_table({"u1": [(Token("x"), Date(0))], "u2": [(Token("y"), Date(86400))]},
                  features=("a", "b"))
    kinds = nc_recognize(t, RecognizerConfig())
    assert kinds == {"a": "categorical", "b": "date"}


def test_mixed_kind_feature_raises_with_feature_name():
    t = seq_table({"u1": [Token("x")], "u2": [Number(1.0)]})
    with pytest.raises(MixedKindFeatureError) as exc:
        nc_recognize(t, RecognizerConfig())
    assert "f" in str(exc.value)


# ---- tokenization --------------------------------------------------------

def test_tokenize_training_stream_first_seen_order():
    ids, vocab = tokenize(column_of([Token("red"), Token("blue"), Token("red")]))
    assert ids == [2, 3, 2]
    assert vocab.token_to_id == {"red": 2, "blue": 3}
    assert vocab.size == 4


def test_vocabulary_fit_is_tokenize_train_mode():
    cells = [MISSING, Token("b"), Number(3.0), Date(86400), MISSING, Token("b"),
             Number(2.5), Token("3"), Date(0), Number(3.0), MISSING]
    vocab = Vocabulary.fit(column_of(cells))
    assert vocab.token_to_id == {"b": 2, "3": 3, "86400": 4, "2.5": 5, "0": 6}
    ids, train_vocab = tokenize(column_of(cells))
    assert train_vocab == vocab
    assert ids == [0, 2, 3, 4, 0, 2, 5, 3, 6, 3, 0]


def test_schema_vocabulary_is_the_shared_fit():
    table = build_mixed_table()
    schema = build_schema(table, overrides={"dn": FeatureKind.DYNAMIC_CATEGORICAL})
    for f, vocab in schema.vocabularies.items():
        assert vocab == Vocabulary.fit(table.column(f)) == tokenize(table.column(f))[1]


def test_tokenize_missing_and_oov():
    _, vocab = tokenize(column_of([Token("red")]))
    ids, _ = tokenize(column_of([MISSING, Token("green"), Token("red")]), vocab)
    assert ids == [MISSING_TOKEN_ID, OOV_TOKEN_ID, 2]


# ---- normalization and imputation ---------------------------------------

def test_normalize_endpoints_and_midpoint():
    assert uniform_normalize(0.0, (0.0, 10.0)) == 0.0
    assert uniform_normalize(10.0, (0.0, 10.0)) == 1.0
    assert uniform_normalize(5.0, (0.0, 10.0)) == 0.5


def test_normalize_clamps_out_of_range():
    assert uniform_normalize(-3.0, (0.0, 10.0)) == 0.0
    assert uniform_normalize(42.0, (0.0, 10.0)) == 1.0


def test_normalize_degenerate_stats_give_half():
    assert uniform_normalize(7.0, (7.0, 7.0)) == 0.5


def test_normalize_is_scalar_and_bit_equal_to_numpy_version():
    rng = np.random.default_rng(11)
    cases = [(float(v), (float(lo), float(lo + w)))
             for v, lo, w in zip(rng.normal(0, 50, 500), rng.normal(0, 20, 500),
                                 rng.exponential(10, 500))]
    cases += [(-0.0, (0.0, 1.0)), (0.0, (-0.0, 1.0)), (-0.0, (-0.0, 2.0)),
              (-0.0, (-1.0, 0.0)), (0.0, (0.0, 10.0)), (10.0, (0.0, 10.0)),
              (-3.0, (0.0, 10.0)), (42.0, (0.0, 10.0)), (1e300, (-1e300, 1e300)),
              (7.0, (7.0, 7.0)), (-0.0, (0.0, 0.0)), (3.0, (-5e-324, 5e-324))]
    for x, stats in cases:
        got = uniform_normalize(x, stats)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", numpy_uniform_normalize(x, stats)), \
            (x, stats)
    with pytest.raises(ValueError, match="max < min"):
        uniform_normalize(0.0, (1.0, 0.0))


# ---- change statistics ---------------------------------------------------

def test_categorical_change_count():
    t = seq_table({"u": [Token(x) for x in "AABBC"]})
    assert dynamics_statistic(t, "f", "categorical")[0] == 2.0


def test_constant_sequence_no_change():
    t = seq_table({"u": [Token("X")] * 3})
    assert dynamics_statistic(t, "f", "categorical")[0] == 0.0


def test_numerical_change_sum_identity_range():
    # second customer pins the feature range to [0, 1] so normalization is
    # the identity and the statistic is the raw absolute-difference sum
    t = seq_table({"u": [Number(0.1), Number(0.4), Number(0.2)],
                   "span": [Number(0.0), Number(1.0)]})
    got = dynamics_statistic(t, "f", "numerical")
    assert got[0] == pytest.approx(abs(0.4 - 0.1) + abs(0.2 - 0.4))
    assert got[0] == pytest.approx(0.5)


def test_numerical_change_sum_rescaled_range():
    # with only one customer the observed span is [0.1, 0.4]; the statistic
    # is computed on the rescaled values
    t = seq_table({"u": [Number(0.1), Number(0.4), Number(0.2)]})
    got = dynamics_statistic(t, "f", "numerical")[0]
    want = abs(1.0 - 0.0) + abs((0.2 - 0.1) / 0.3 - 1.0)
    assert got == pytest.approx(want)


def test_single_record_scores_zero():
    t = seq_table({"u": [Number(5.0)]})
    assert dynamics_statistic(t, "f", "numerical")[0] == 0.0


def test_missing_is_its_own_categorical_value():
    t = seq_table({"u": [Token("A"), MISSING, Token("A")]})
    assert dynamics_statistic(t, "f", "categorical")[0] == 2.0


def test_numerical_pairs_with_missing_skipped():
    t = seq_table({"u": [Number(0.0), MISSING, Number(1.0)]})
    assert dynamics_statistic(t, "f", "numerical")[0] == 0.0


# ---- static / dynamic decision ------------------------------------------

def test_sd_thresholds():
    t = seq_table({f"u{i}": [Token("a"), Token("b")] for i in range(10)})
    kinds = {"f": "categorical"}
    config = RecognizerConfig(feature_threshold=5)
    d = dynamics_matrix(t, kinds, config)
    assert sd_recognize(d, kinds, config)["f"] is True      # D_f = 10 > 5
    config = RecognizerConfig(feature_threshold=15)
    assert sd_recognize(d, kinds, config)["f"] is False     # D_f = 10 < 15


def test_sd_equality_is_static():
    t = seq_table({f"u{i}": [Token("a"), Token("b" if i < 5 else "a")]
                   for i in range(10)})
    kinds = {"f": "categorical"}
    config = RecognizerConfig(feature_threshold=5)          # D_f == threshold
    d = dynamics_matrix(t, kinds, config)
    assert sd_recognize(d, kinds, config)["f"] is False


def test_sd_four_customer_fixture():
    t = seq_table({"u0": [Token("a"), Token("b")], "u1": [Token("a"), Token("b")],
                   "u2": [Token("a"), Token("b")], "u3": [Token("a"), Token("a")]})
    kinds = {"f": "categorical"}
    config = RecognizerConfig(pair_threshold_categorical=0.0, feature_threshold=2)
    d = dynamics_matrix(t, kinds, config)
    assert list(d.values[:, 0]) == [1.0, 1.0, 1.0, 0.0]
    assert sd_recognize(d, kinds, config)["f"] is True


def test_recognizer_and_statistic_match_oracle_on_random_tables():
    rng = np.random.default_rng(9)
    config = RecognizerConfig(integer_unique_threshold=20)
    for _ in range(30):
        t = random_table(rng)
        kinds = nc_recognize(t, config)
        for f in t.features:
            assert kinds[f] == reference_feature_kind(cells_of(t.column(f)), 20)
        for f in t.features:
            if kinds[f] == "date":
                continue
            got = dynamics_statistic(t, f, kinds[f])
            if kinds[f] == "numerical":
                vals = [c.value for c in cells_of(t.column(f)) if isinstance(c, Number)]
                lo, hi = (min(vals), max(vals)) if vals else (0.0, 0.0)
            else:
                lo = hi = 0.0
            j = t.features.index(f)
            for i, u in enumerate(t.customers):
                cells = [r.cells[j] for r in rows_of(t, u)]
                assert got[i] == reference_change_statistic(cells, kinds[f], lo, hi)


# ---- schema --------------------------------------------------------------

def build_mixed_table():
    records = {}
    rng = np.random.default_rng(4)
    for u in range(30):
        k = 3
        base_token = f"t{u % 2}"
        rows = []
        for t in range(k):
            rows.append(Row(cells=(
                Token(base_token),                       # static categorical
                Number(float(u)),                        # static numerical (wide)
                Token(f"v{int(rng.integers(3))}"),       # dynamic categorical
                Number(float(rng.uniform(0, 100))),      # dynamic numerical
                Date(t * 86400),                         # date column
            ), date=t))
        records[f"u{u:02d}"] = rows
    return table_from_rows(customers=list(records), features=["sc", "sn", "dc", "dn", "ts"],
                           records=records, labels={}, has_date_index=True)


def test_build_schema_assigns_all_kinds():
    schema = build_schema(build_mixed_table(), RecognizerConfig())
    got = {f: schema.kinds[f] for f in schema.feature_order}
    assert got == {"sc": FeatureKind.STATIC_CATEGORICAL,
                   "sn": FeatureKind.STATIC_NUMERICAL,
                   "dc": FeatureKind.DYNAMIC_CATEGORICAL,
                   "dn": FeatureKind.DYNAMIC_NUMERICAL,
                   "ts": FeatureKind.DATE_INDEX}


def test_schema_round_trip(tmp_path):
    schema = build_schema(build_mixed_table(), RecognizerConfig())
    path = tmp_path / "schema.json"
    schema.save(path)
    loaded = FeatureSchema.load(path)
    assert loaded.feature_order == schema.feature_order
    assert loaded.kinds == schema.kinds
    assert loaded.numeric_stats == schema.numeric_stats
    assert {f: v.token_to_id for f, v in loaded.vocabularies.items()} == \
        {f: v.token_to_id for f, v in schema.vocabularies.items()}


K = FeatureKind
RECOGNIZED = {"sc": K.STATIC_CATEGORICAL, "sn": K.STATIC_NUMERICAL,
              "dc": K.DYNAMIC_CATEGORICAL, "dn": K.DYNAMIC_NUMERICAL, "ts": K.DATE_INDEX}
SUMMARY = {"sc": 0, "sn": 0, "dc": 24, "dn": 30}

# (overrides, vocabulary keys, numeric_stats keys, dynamics_summary) on
# `build_mixed_table`; every other feature keeps its recognized kind
OVERRIDE_CASES = [
    ({"dc": K.STATIC_CATEGORICAL}, {"sc", "dc"}, {"sn", "dn"}, SUMMARY),
    ({"sc": K.DYNAMIC_CATEGORICAL}, {"sc", "dc"}, {"sn", "dn"}, SUMMARY),
    ({"dn": K.STATIC_NUMERICAL}, {"sc", "dc"}, {"sn", "dn"}, SUMMARY),
    ({"sn": K.DYNAMIC_NUMERICAL}, {"sc", "dc"}, {"sn", "dn"}, SUMMARY),
    ({"ts": K.DATE_INDEX}, {"sc", "dc"}, {"sn", "dn"}, SUMMARY),
    # a token feature pinned numerical: no number, range (0, 0), no change
    ({"sc": K.STATIC_NUMERICAL}, {"dc"}, {"sc", "sn", "dn"}, SUMMARY),
    # a number feature pinned categorical: its values become tokens
    ({"dn": K.DYNAMIC_CATEGORICAL}, {"sc", "dc", "dn"}, {"sn"}, SUMMARY),
    # the date index moved to another feature; the dates become tokens
    ({"ts": K.STATIC_CATEGORICAL, "sn": K.DATE_INDEX}, {"sc", "dc", "ts"}, {"dn"},
     {"sc": 0, "dc": 24, "dn": 30, "ts": 30}),
]


def test_schema_overrides_pin_kinds():
    table = build_mixed_table()
    for overrides, vocab_keys, stats_keys, summary in OVERRIDE_CASES:
        schema = build_schema(table, RecognizerConfig(), overrides=overrides)
        assert schema.kinds == {**RECOGNIZED, **overrides}, overrides
        assert set(schema.vocabularies) == vocab_keys, overrides
        assert set(schema.numeric_stats) == stats_keys, overrides
        assert schema.dynamics_summary == summary, overrides
    assert {kind for case in OVERRIDE_CASES for kind in case[0].values()} == set(FeatureKind)


def test_pinned_token_feature_has_empty_range():
    schema = build_schema(build_mixed_table(), overrides={"sc": K.STATIC_NUMERICAL})
    assert schema.numeric_stats["sc"] == (0.0, 0.0)
    schema = build_schema(build_mixed_table(), overrides={"dn": K.DYNAMIC_CATEGORICAL})
    assert schema.vocabularies["dn"].size == 30 * 3 + 2


def test_unknown_override_raises_after_recognition():
    table = seq_table({"u": [(Token("x"), Number(1.0))]}, features=("a", "b"))
    # nc_recognize runs first, so the mixed-kind error wins over the unknown name
    mixed = seq_table({"u": [Token("x"), Number(1.0)]})
    with pytest.raises(MixedKindFeatureError):
        build_schema(mixed, overrides={"nope": K.STATIC_CATEGORICAL})
    with pytest.raises(SchemaError, match="override for unknown feature 'nope'"):
        build_schema(table, overrides={"nope": K.STATIC_CATEGORICAL})


def test_kind_ratios_exclude_date_features():
    table = build_mixed_table()
    schema = build_schema(table, RecognizerConfig())
    ratios = schema.kind_ratios()
    assert sum(ratios.values()) == pytest.approx(1.0)
    assert set(ratios) == {"SN", "DN", "SC", "DC"}
