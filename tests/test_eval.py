import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabrep

from tabrep.errors import ConfigError, InfeasibleConfigError, SingleClassError
from tabrep.eval import (BaselineConfig, MetricSet, SynthConfig, baseline_linear,
                         f_score, flatten_features, roc_auc, synth_generate,
                         task_labels, weighted_accuracy)
from tabrep.prep import RecognizerConfig, build_schema
from tabrep.table import compute_stats, save_table, TableFormat

from oracles import rows_of, reference_auc, reference_f_score, reference_weighted_accuracy


# ---- auc ----------------------------------------------------------------

def test_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_four_point_example():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_all_ties_is_half():
    assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_monotone_invariance():
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels)
    for f in (lambda s: 3.0 * s + 2.0, np.exp, lambda s: s ** 3):
        assert roc_auc(f(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auc_needs_both_classes():
    with pytest.raises(SingleClassError):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(SingleClassError):
        roc_auc([0.1, 0.9], [0, 0])


def test_auc_rejects_labels_outside_binary():
    labels = [0, 2, 2, 2, 1, 1]
    with pytest.raises(ConfigError):
        roc_auc(np.arange(6.0), labels)
    with pytest.raises(ConfigError):
        MetricSet.from_scores(np.linspace(0.0, 1.0, 6), labels)


# ---- f-score ------------------------------------------------------------

def test_f_score_perfect():
    assert f_score([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0


def test_f_score_no_positive_predictions_defined_zero():
    assert f_score([0, 0, 0], [0, 1, 1]) == 0.0


def test_f_score_half_precision_half_recall():
    # two predicted positives, one right; two actual positives, one found
    assert f_score([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(0.5)


# ---- weighted accuracy ---------------------------------------------------

def test_weighted_accuracy_all_correct():
    assert weighted_accuracy([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0


def test_predict_all_negative_scores_half():
    assert weighted_accuracy([0] * 10, [0] * 9 + [1]) == pytest.approx(0.5)


def test_recall_pair_mean():
    # class 0: 4 of 5 right (0.8); class 1: 3 of 5 right (0.6)
    predicted = [0, 0, 0, 0, 1, 1, 1, 1, 0, 0]
    labels = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert weighted_accuracy(predicted, labels) == pytest.approx(0.7)


def test_relabel_invariance():
    rng = np.random.default_rng(1)
    predicted = rng.integers(0, 2, size=40)
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    a = weighted_accuracy(predicted, labels)
    b = weighted_accuracy(1 - predicted, 1 - labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_frequency_weighted_variant_is_plain_accuracy():
    predicted = [0, 0, 1, 1, 1, 0]
    labels = [0, 1, 1, 1, 0, 0]
    got = weighted_accuracy(predicted, labels, frequency_weighted=True)
    assert got == pytest.approx(np.mean(np.array(predicted) == np.array(labels)))


def test_weighted_accuracy_needs_both_classes():
    with pytest.raises(SingleClassError):
        weighted_accuracy([0, 1], [1, 1])


# ---- oracle comparison ---------------------------------------------------

def test_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 2)   # rounding forces ties often
        predicted = (scores >= 0.5).astype(int)
        assert abs(roc_auc(scores, labels) - reference_auc(scores, labels)) < 1e-12
        assert abs(f_score(predicted, labels) - reference_f_score(predicted, labels)) < 1e-12
        assert abs(weighted_accuracy(predicted, labels)
                   - reference_weighted_accuracy(predicted, labels)) < 1e-12
        assert abs(weighted_accuracy(predicted, labels, frequency_weighted=True)
                   - reference_weighted_accuracy(predicted, labels, frequency_weighted=True)) < 1e-12


# ---- metric set ----------------------------------------------------------

def test_metric_set_from_scores_threshold():
    scores = np.array([0.2, 0.6, 0.7, 0.4])
    labels = np.array([0, 1, 1, 0])
    ms = MetricSet.from_scores(scores, labels)
    assert ms.auc == 1.0
    assert ms.f_score == 1.0
    assert ms.weighted_accuracy == 1.0
    assert set(ms.to_dict()) == {"auc", "f_score", "weighted_accuracy"}


def test_metric_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        MetricSet(auc=1.2, f_score=0.5, weighted_accuracy=0.5)


# ---- synthetic generator -------------------------------------------------

def small_synth(**kwargs):
    defaults = dict(n_customers=300, seed=0)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


def test_label_ratio_near_target():
    table = synth_generate(small_synth(n_customers=1000))
    schema = build_schema(table, RecognizerConfig())
    stats = compute_stats(table, schema)
    # a positive fraction within [0.18, 0.22], as positives per negative
    assert 0.18 / 0.82 <= stats.label_ratio["churn"] <= 0.22 / 0.78


def test_zero_missing_rate_generates_no_missing(tmp_path):
    table = synth_generate(small_synth(missing_rate=0.0, structural_rate=0.0))
    schema = build_schema(table, RecognizerConfig())
    stats = compute_stats(table, schema)
    assert stats.feature_missing_ratio == 0.0
    assert stats.structural_missing_ratio == 0.0


def test_same_seed_bytewise_identical(tmp_path):
    fmt = TableFormat(date_column="date", label_columns=("churn",))
    paths = []
    for run in range(2):
        table = synth_generate(small_synth(seed=42))
        path = tmp_path / f"t{run}.csv"
        save_table(table, path, fmt)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seeds_differ(tmp_path):
    fmt = TableFormat(date_column="date", label_columns=("churn",))
    a, b = synth_generate(small_synth(seed=1)), synth_generate(small_synth(seed=2))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_table(a, pa, fmt)
    save_table(b, pb, fmt)
    assert pa.read_bytes() != pb.read_bytes()


def test_labels_follow_planted_pattern_without_noise():
    config = small_synth(label_noise=0.0, missing_rate=0.0, structural_rate=0.0)
    table = synth_generate(config)
    j = table.feature_index("dc0")
    for cid in table.customers:
        tokens = [row.cells[j] for row in rows_of(table, cid)]
        count = sum(1 for c in tokens
                    if getattr(c, "value", None) == config.signal_token)
        want = 1 if count >= config.signal_min_count else 0
        assert table.labels[config.task][cid] == want


def test_infeasible_configs_rejected():
    with pytest.raises(InfeasibleConfigError):
        synth_generate(small_synth(n_dynamic_categorical=0))
    with pytest.raises(InfeasibleConfigError):
        synth_generate(small_synth(structural_rate=1.0))
    with pytest.raises(InfeasibleConfigError):
        synth_generate(small_synth(records_min=1))
    with pytest.raises(InfeasibleConfigError):
        synth_generate(small_synth(positive_fraction=0.01, label_noise=0.05))


def test_recognizer_recovers_planted_kinds():
    table = synth_generate(small_synth(n_customers=400, seed=5))
    schema = build_schema(table, RecognizerConfig())
    for name in table.features:
        if name == "date":
            assert schema.kinds[name].value == "DATE"
        else:
            assert schema.kinds[name].value == name[:2].upper()


# ---- linear baseline -----------------------------------------------------

def test_separable_features_reach_high_auc():
    rng = np.random.default_rng(3)
    n = 200
    labels = rng.integers(0, 2, size=n)
    x = np.stack([labels + 0.05 * rng.normal(size=n),
                  -2.0 * labels + 0.05 * rng.normal(size=n)], axis=1)
    _, metrics = baseline_linear(x, labels, BaselineConfig(seed=3))
    assert metrics.auc > 0.99


def test_random_features_stay_near_chance():
    # 600 held-out points put the permutation-null standard deviation near
    # 0.024, so ten draws stay inside the +/-0.1 band
    rng = np.random.default_rng(4)
    for seed in range(10):
        x = rng.normal(size=(2000, 5))
        labels = rng.integers(0, 2, size=2000)
        _, metrics = baseline_linear(x, labels, BaselineConfig(seed=seed))
        assert 0.4 <= metrics.auc <= 0.6


def test_single_class_training_labels_rejected():
    x = np.zeros((10, 2))
    with pytest.raises(SingleClassError):
        baseline_linear(x, np.ones(10, dtype=int), BaselineConfig(seed=0))


def test_baseline_rejects_labels_outside_binary():
    x = np.random.default_rng(0).normal(size=(40, 3))
    for bad in (2, -1):
        labels = (x[:, 0] > 0).astype(int)
        labels[:3] = bad
        with pytest.raises(ConfigError, match="baseline needs labels"):
            baseline_linear(x, labels, BaselineConfig(epochs=5))


def test_flatten_features_shapes_and_labels():
    table = synth_generate(small_synth(n_customers=60, seed=7))
    schema = build_schema(table, RecognizerConfig())
    x, names = flatten_features(table, schema)
    assert x.shape[0] == 60
    assert x.shape[1] == len(names)
    assert np.all(np.isfinite(x))
    ids, y = task_labels(table, "churn")
    assert len(ids) == 60
    assert set(y.tolist()) <= {0, 1}

    x_static, names_static = flatten_features(table, schema, include_dynamic=False)
    assert x_static.shape[1] < x.shape[1]
    assert all(not n.startswith(("dc", "dn")) for n in names_static)


def test_evaluate_and_baseline_do_not_import_numpy_ma(tmp_path):
    """`np.unique` without an optional output calls `np.ma.is_masked`, which
    imports `numpy.ma` on first use; nothing else of tabrep needs it."""
    from tabrep.model import CustomerEncoder, ModelConfig
    table = synth_generate(small_synth(n_customers=30, seed=3))
    save_table(table, tmp_path / "t.csv", TableFormat(date_column="date",
                                                      label_columns=("churn",)))
    CustomerEncoder(build_schema(table), ModelConfig(embed_dim=4, n_s=3, heads=1, t_max=1,
                                                     rep_width=4, fusion_hidden=4,
                                                     head_hidden=4, recon_count=1,
                                                     recon_dim=2),
                    tasks={"churn": 2}, seed=0).save(tmp_path / "m.json")
    (tmp_path / "run.json").write_text(json.dumps(
        {"format": {"date_column": "date", "label_columns": ["churn"]}}))
    argv = ["evaluate", "--config", str(tmp_path / "run.json"), "--table",
            str(tmp_path / "t.csv"), "--checkpoint", str(tmp_path / "m.json"),
            "--out", str(tmp_path)]
    script = f"""
import sys
import numpy as np
from tabrep.cli import main
from tabrep.eval import BaselineConfig, baseline_linear
assert main({argv!r}) == 0
x = np.random.default_rng(0).normal(size=(40, 3))
baseline_linear(x, (x[:, 0] > 0).astype(int), BaselineConfig(epochs=5))
print("numpy.ma" in sys.modules)
"""
    src = str(Path(tabrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
