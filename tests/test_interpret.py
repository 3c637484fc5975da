import numpy as np
import pytest

from oracles import MISSING, Number, Row, Token, rows_of, table_from_rows
from tabrep.errors import (ConfigError, InvalidCellCoordinatesError,
                           PositionOutOfRangeError)
from tabrep.interpret import (InterpretConfig, Target, class_target, genome_report, mask_and_delta,
                              position_target, sensitive_customers,
                              sensitive_features)
from tabrep.model import CustomerEncoder, ModelConfig, TrainConfig
from tabrep.prep import FeatureKind, FeatureSchema, RecognizerConfig


def linear_model(weights, rep_position=0):
    """Model whose representation coordinate `rep_position` equals
    sum_i weights[i] * value_i exactly.

    One static numerical feature per weight, identity numeric lookup, and a
    relu pair h+ = relu(w.v), h- = relu(-w.v) fused as h+ - h-, which
    reproduces the linear functional without rounding tricks.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    schema = FeatureSchema(
        feature_order=[f"f{i}" for i in range(n)],
        kinds={f"f{i}": FeatureKind.STATIC_NUMERICAL for i in range(n)},
        vocabularies={},
        numeric_stats={f"f{i}": (0.0, 1.0) for i in range(n)},
        dynamics_summary={},
        config=RecognizerConfig(),
    )
    config = ModelConfig(embed_dim=n, heads=1, n_s=2, t_max=1, rep_width=4,
                         fusion_hidden=2, head_hidden=2, recon_count=1,
                         recon_dim=2, dropout=0.0)
    model = CustomerEncoder(schema, config, tasks=None, seed=0)
    model.static_num.data[:] = np.eye(n)
    model.fusion_w1.data[:] = 0.0
    model.fusion_w1.data[n:2 * n, 0] = w
    model.fusion_w1.data[n:2 * n, 1] = -w
    model.fusion_b1.data[:] = 0.0
    model.fusion_w2.data[:] = 0.0
    model.fusion_w2.data[0, rep_position] = 1.0
    model.fusion_w2.data[1, rep_position] = -1.0
    model.fusion_b2.data[:] = 0.0
    return model


def linear_table(rows_by_customer):
    n = len(next(iter(rows_by_customer.values())))
    records = {
        cid: [Row(cells=tuple(MISSING if v is None else Number(float(v))
                              for v in vals), date=0)]
        for cid, vals in rows_by_customer.items()
    }
    return table_from_rows(customers=list(records),
                           features=[f"f{i}" for i in range(n)],
                           records=records, labels={}, has_date_index=True)


# ---- step one: sensitive customers ---------------------------------------

def test_top_k_by_position_value():
    reps = {"c1": np.array([0.9]), "c2": np.array([0.1]), "c3": np.array([0.5])}
    assert sensitive_customers(reps, 0, 2) == ["c1", "c3"]


def test_k_equals_population_returns_everyone():
    reps = {"c1": np.array([0.9]), "c2": np.array([0.1]), "c3": np.array([0.5])}
    assert sensitive_customers(reps, 0, 3) == ["c1", "c3", "c2"]


def test_ties_break_toward_lowest_id():
    reps = {"zeta": np.array([1.0]), "alpha": np.array([1.0]), "mid": np.array([1.0])}
    assert sensitive_customers(reps, 0, 1) == ["alpha"]


def test_input_order_does_not_matter():
    rng = np.random.default_rng(0)
    pairs = [(f"c{i}", rng.normal(size=3)) for i in range(20)]
    base = sensitive_customers(pairs, 1, 5)
    for _ in range(5):
        rng.shuffle(pairs)
        assert sensitive_customers(pairs, 1, 5) == base


def test_position_bounds_checked():
    reps = {"c1": np.array([0.9, 0.2])}
    with pytest.raises(PositionOutOfRangeError):
        sensitive_customers(reps, 2, 1)
    with pytest.raises(PositionOutOfRangeError):
        sensitive_customers(reps, -1, 1)


# ---- step two: masking deltas --------------------------------------------

def test_linear_model_delta_is_minus_weight_times_value():
    model = linear_model([2.0])
    table = linear_table({"a": [0.5]})
    delta = mask_and_delta(model, table, "a", "f0", 0, position_target(0))
    assert delta == pytest.approx(-1.0, abs=1e-12)


def test_masking_already_missing_cell_changes_nothing():
    model = linear_model([2.0, 1.0])
    table = linear_table({"a": [None, 0.8]})
    delta = mask_and_delta(model, table, "a", "f0", 0, position_target(0))
    assert delta == 0.0


def test_dead_downstream_path_gives_zero_delta():
    model = linear_model([2.0, 0.0])
    table = linear_table({"a": [0.5, 0.8]})
    delta = mask_and_delta(model, table, "a", "f1", 0, position_target(0))
    assert delta == 0.0


def test_invalid_cell_coordinates_rejected():
    model = linear_model([1.0])
    table = linear_table({"a": [0.5]})
    with pytest.raises(InvalidCellCoordinatesError):
        mask_and_delta(model, table, "nobody", "f0", 0, position_target(0))
    with pytest.raises(InvalidCellCoordinatesError):
        mask_and_delta(model, table, "a", "f0", 1, position_target(0))
    with pytest.raises(InvalidCellCoordinatesError):
        mask_and_delta(model, table, "a", "zz", 0, position_target(0))


def test_masking_leaves_table_untouched():
    model = linear_model([2.0, -1.0])
    table = linear_table({"a": [0.5, 0.25]})
    before = {cid: rows_of(table, cid) for cid in table.customers}
    mask_and_delta(model, table, "a", "f1", 0, position_target(0))
    after = {cid: rows_of(table, cid) for cid in table.customers}
    assert after == before


# ---- step three: aggregation ---------------------------------------------

def test_all_zero_deltas_give_empty_ranking():
    deltas = [("c1", "f", 0, 0.0), ("c2", "f", 1, 0.0)]
    assert sensitive_features(deltas, 0.1) == []


def test_single_feature_above_threshold():
    out = sensitive_features([("c1", "f", 0, 0.5)], 0.1)
    assert len(out) == 1
    assert out[0]["feature"] == "f"
    assert out[0]["score"] == pytest.approx(0.5)
    assert out[0]["sign"] == 1
    assert out[0]["support"] == 1


def test_two_features_ranked_by_mean_abs_delta():
    deltas = [("c1", "a", 0, -0.4), ("c2", "a", 0, -0.4),
              ("c1", "b", 0, 0.3), ("c2", "b", 0, 0.1)]
    out = sensitive_features(deltas, 0.1)
    assert [rec["feature"] for rec in out] == ["a", "b"]
    assert out[0]["score"] == pytest.approx(0.4)
    assert out[0]["sign"] == -1
    assert out[1]["score"] == pytest.approx(0.2)
    assert out[1]["sign"] == 1


def test_support_counts_customers_clearing_threshold():
    deltas = [("c1", "f", 0, 0.5), ("c2", "f", 0, 0.01), ("c3", "f", 0, 0.4)]
    out = sensitive_features(deltas, 0.1)
    assert out[0]["support"] == 2


# ---- target plumbing -----------------------------------------------------

def test_target_validation():
    with pytest.raises(ConfigError):
        Target(kind="gradient")
    with pytest.raises(ConfigError):
        Target(kind="class", task="")
    assert position_target(3).key() == "position:3"
    assert class_target("churn", 1).key() == "class:churn:1"


def test_interpret_config_validation():
    with pytest.raises(ConfigError):
        InterpretConfig(k=0)
    with pytest.raises(ConfigError):
        InterpretConfig(mask_samples=0)
    with pytest.raises(ConfigError):
        InterpretConfig(delta_threshold=-0.1)


# ---- full report ---------------------------------------------------------

def test_linear_model_scores_are_weight_times_value():
    weights = [2.0, -1.5, 0.75]
    values = [0.5, 0.8, 0.4]
    model = linear_model(weights)
    table = linear_table({f"c{i}": values for i in range(3)})
    report = genome_report(model, table, InterpretConfig(
        k=3, mask_samples=64, delta_threshold=0.0,
        targets=(position_target(0),), seed=0))
    genome = report.targets[0]
    want = sorted(((abs(w * v), f"f{i}") for i, (w, v) in enumerate(zip(weights, values))),
                  reverse=True)
    assert [rec["feature"] for rec in genome.features] == [f for _, f in want]
    for rec, (score, _) in zip(genome.features, want):
        assert abs(rec["score"] - score) < 1e-9
    # signs follow the signed mean delta = -w*v
    by_feature = {rec["feature"]: rec for rec in genome.features}
    assert by_feature["f0"]["sign"] == -1
    assert by_feature["f1"]["sign"] == 1
    assert by_feature["f2"]["sign"] == -1
    # every sensitive customer sees the same closed-form contribution
    for cid in genome.customers:
        for rec in genome.per_customer[cid]:
            i = int(rec["feature"][1:])
            assert abs(rec["contribution"] - (-weights[i] * values[i])) < 1e-9


def test_report_deterministic_for_equal_seeds():
    model = linear_model([1.0, -0.5, 0.25])
    rng = np.random.default_rng(3)
    table = linear_table({f"c{i}": rng.uniform(0.1, 0.9, size=3).tolist()
                          for i in range(6)})
    config = InterpretConfig(k=2, mask_samples=8, seed=11)
    a = genome_report(model, table, config).to_json()
    b = genome_report(model, table, config).to_json()
    assert a == b


def test_huge_threshold_empties_rankings():
    model = linear_model([1.0, 2.0])
    table = linear_table({"a": [0.3, 0.6], "b": [0.2, 0.4]})
    report = genome_report(model, table, InterpretConfig(
        k=2, mask_samples=4, delta_threshold=1e9,
        targets=(position_target(0),), seed=0))
    assert report.targets[0].features == []
    assert "no feature clears the threshold" in report.render_text()


def test_report_leaves_table_untouched():
    model = linear_model([1.0, -2.0])
    table = linear_table({"a": [0.3, 0.6], "b": [0.2, None]})
    before = {cid: rows_of(table, cid) for cid in table.customers}
    genome_report(model, table, InterpretConfig(k=2, mask_samples=6, seed=1))
    after = {cid: rows_of(table, cid) for cid in table.customers}
    assert after == before


def test_class_target_report_on_trained_model():
    rng = np.random.default_rng(5)
    records, labels = {}, {}
    for u in range(24):
        cid = f"u{u:02d}"
        y = u % 2
        rows = [Row(cells=(Token(f"t{y}"), Token(f"v{int(rng.integers(3))}")), date=t)
                for t in range(3)]
        records[cid] = rows
        labels[cid] = y
    table = table_from_rows(customers=list(records), features=["sc", "dc"],
                            records=records, labels={"churn": labels},
                            has_date_index=True)
    from tabrep.prep import build_schema
    schema = build_schema(table, RecognizerConfig())
    model = CustomerEncoder(
        schema,
        ModelConfig(embed_dim=8, heads=2, n_s=4, t_max=2, rep_width=8,
                    fusion_hidden=16, head_hidden=8, recon_count=1,
                    recon_dim=4, dropout=0.0),
        tasks={"churn": 2}, seed=7)
    model.fit(table, TrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                                 validation_fraction=0.0, seed=7))
    report = genome_report(model, table, InterpretConfig(
        k=5, mask_samples=12, targets=(class_target("churn", 1),), seed=2))
    genome = report.targets[0]
    assert genome.target.key() == "class:churn:1"
    assert len(genome.customers) == 5
    assert genome.threshold >= 0.0
    for rec in genome.features:
        assert set(rec) == {"feature", "score", "sign", "support"}
    text = report.render_text()
    assert "class:churn:1" in text


def test_bad_position_target_rejected():
    model = linear_model([1.0])
    table = linear_table({"a": [0.5]})
    with pytest.raises(PositionOutOfRangeError):
        genome_report(model, table, InterpretConfig(
            targets=(position_target(99),), seed=0))
