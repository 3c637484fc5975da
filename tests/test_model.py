import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import MISSING, Number, Row, Token, reference_backward, table_from_rows, traced_peak
from tabrep import model as model_module
from tabrep import numeric
from tabrep.encode import (BranchLayout, augmented_summary, encode_customer, encode_table,
                           summary_width)
from tabrep.errors import (AllTermsDisabledError, ConfigError, TableIOError,
                           UnknownTaskError)
from tabrep.eval import SynthConfig, synth_generate
from tabrep.model import (EVAL_BATCH, CustomerEncoder, ModelConfig, TrainConfig,
                          cross_entropy, joint_loss, mean_squared_error)
from tabrep.numeric import Tensor
from tabrep.prep import RecognizerConfig, build_schema


def small_model_config(**kwargs):
    defaults = dict(embed_dim=8, n_s=4, heads=2, t_max=2, rep_width=8,
                    fusion_hidden=16, head_hidden=8, recon_count=1,
                    recon_dim=4, dropout=0.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def fixture_table(n=40, with_labels=True, seed=0):
    """Four-kind table whose label equals the static categorical token index."""
    rng = np.random.default_rng(seed)
    records, labels = {}, {}
    for u in range(n):
        cid = f"u{u:03d}"
        y = u % 2
        rows = []
        for t in range(3):
            rows.append(Row(cells=(
                Token(f"t{y}"),
                Number(float(u)),
                Token(f"v{int(rng.integers(3))}"),
                Number(float(rng.uniform(0, 10))),
            ), date=t))
        records[cid] = rows
        labels[cid] = y
    table = table_from_rows(customers=list(records), features=["sc", "sn", "dc", "dn"],
                            records=records,
                            labels={"churn": labels} if with_labels else {},
                            has_date_index=True)
    return table


@pytest.fixture(scope="module")
def schema():
    return build_schema(fixture_table(), RecognizerConfig())


# ---- encoding ------------------------------------------------------------

def test_encoded_shapes_and_presence(schema):
    table = fixture_table()
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    enc = encode_customer(table, "u000", schema, model.layout)
    assert enc.customers == ["u000"]
    assert enc.cs_ids.shape == (1, 1)
    assert enc.ns_vals.shape == (1, 1)
    assert enc.cd_ids.shape == (1, 4, 1)
    assert enc.nd_vals.shape == (1, 4, 1)
    assert enc.seq_valid.tolist() == [[True, True, True, False]]
    assert enc.presence.tolist() == [[1.0, 1.0, 1.0, 1.0]]


@pytest.mark.parametrize("sizes", [(), (5,), (7, 3, 12)])
def test_layout_offsets_are_the_exclusive_cumsum(sizes):
    layout = BranchLayout(n_s=2, cs_features=(), sn_features=(), cd_features=(), dn_features=(),
                          cs_vocab_sizes=sizes, cd_vocab_sizes=sizes[::-1])
    for got, branch_sizes in ((layout.cs_offsets, sizes), (layout.cd_offsets, sizes[::-1])):
        want = (np.concatenate([[0], np.cumsum(branch_sizes)[:-1]]) if branch_sizes
                else np.zeros(0, dtype=np.int64)).astype(np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_static_value_is_latest_non_missing(schema):
    rows = [Row(cells=(Token("t0"), Number(3.0), MISSING, MISSING), date=0),
            Row(cells=(MISSING, Number(7.0), MISSING, MISSING), date=1)]
    table = table_from_rows(customers=["a"], features=["sc", "sn", "dc", "dn"],
                            records={"a": rows}, labels={}, has_date_index=True)
    model = CustomerEncoder(schema, small_model_config())
    enc = encode_customer(table, "a", schema, model.layout)
    # the later Missing does not shadow the earlier token
    assert enc.cs_ids[0, 0] == schema.vocabularies["sc"].token_to_id["t0"]
    lo, hi = schema.numeric_stats["sn"]
    assert enc.ns_vals[0, 0] == pytest.approx((7.0 - lo) / (hi - lo))


def test_window_keeps_most_recent_records(schema):
    rows = [Row(cells=(MISSING, MISSING, Token(f"v{t % 3}"), Number(float(t))), date=t)
            for t in range(9)]
    table = table_from_rows(customers=["a"], features=["sc", "sn", "dc", "dn"],
                            records={"a": rows}, labels={}, has_date_index=True)
    model = CustomerEncoder(schema, small_model_config())   # n_s = 4
    enc = encode_customer(table, "a", schema, model.layout)
    assert enc.seq_valid.all()
    vocab = schema.vocabularies["dc"]
    want = [vocab.token_to_id[f"v{t % 3}"] for t in range(5, 9)]
    assert enc.cd_ids[0, :, 0].tolist() == want


def test_zero_record_customer_gets_anchor_step(schema):
    table = table_from_rows(customers=["a"], features=["sc", "sn", "dc", "dn"],
                            records={"a": []}, labels={}, has_date_index=True)
    model = CustomerEncoder(schema, small_model_config())
    enc = encode_customer(table, "a", schema, model.layout)
    assert enc.seq_valid.tolist() == [[True, False, False, False]]
    assert enc.presence.tolist() == [[0.0, 0.0, 0.0, 0.0]]
    out = model.forward(enc)
    assert np.all(np.isfinite(out.rep.data))


def test_augmented_summary_hand_check(schema):
    rows = [Row(cells=(Token("t0"), Number(10.0), Token("a"), Number(2.0)), date=0),
            Row(cells=(MISSING, MISSING, Token("b"), Number(4.0)), date=1),
            Row(cells=(MISSING, MISSING, Token("b"), MISSING), date=2)]
    table = table_from_rows(customers=["a"], features=["sc", "sn", "dc", "dn"],
                            records={"a": rows}, labels={}, has_date_index=True)
    got = augmented_summary(table, "a", schema)
    assert got.shape == (summary_width(schema),)
    sn_lo, sn_hi = schema.numeric_stats["sn"]
    dn_lo, dn_hi = schema.numeric_stats["dn"]
    want = [
        (10.0 - sn_lo) / (sn_hi - sn_lo),
        np.mean([(2.0 - dn_lo) / (dn_hi - dn_lo), (4.0 - dn_lo) / (dn_hi - dn_lo)]),
        1.0 / 2.0,    # a -> b -> b: one change over two successive pairs
    ]
    assert np.allclose(got, want, atol=1e-12)


# ---- loss pieces ---------------------------------------------------------

def test_uniform_logits_cost_ln2():
    logits = Tensor(np.zeros((6, 2)))
    labels = np.array([0, 1, 1, 0, 1, 0])
    loss = cross_entropy(logits, labels, np.ones(2))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)
    # weight normalization keeps the uniform cost at ln 2
    loss = cross_entropy(logits, labels, np.array([1.0, 5.0]))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_weighted_cross_entropy_hand_check():
    logits = np.array([[2.0, 0.0], [0.5, 1.5]])
    labels = np.array([0, 1])
    weights = np.array([1.0, 3.0])
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -(1.0 * np.log(p[0, 0]) + 3.0 * np.log(p[1, 1])) / 4.0
    got = float(cross_entropy(Tensor(logits), labels, weights).data)
    assert got == pytest.approx(want, abs=1e-12)


def test_joint_loss_two_tasks_weighted_hand_sum():
    r1 = mean_squared_error(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
    ta = cross_entropy(Tensor(np.array([[1.0, -1.0]])), np.array([0]), np.ones(2))
    tb = cross_entropy(Tensor(np.array([[0.0, 3.0]])), np.array([1]), np.ones(2))
    total = joint_loss([r1], {"a": ta, "b": tb}, Tensor(np.array(2.0)),
                       recon_weight=0.5, ponder_weight=0.1,
                       task_weights={"a": 1.0, "b": 2.0})
    want = 0.5 * float(r1.data) + float(ta.data) + 2.0 * float(tb.data) + 0.1 * 2.0
    assert float(total.data) == pytest.approx(want, abs=1e-12)


def test_joint_loss_lower_bound_near_zero():
    recon = mean_squared_error(Tensor(np.array([1.0, 2.0])), np.array([1.0, 2.0]))
    task = cross_entropy(Tensor(np.array([[50.0, -50.0]])), np.array([0]), np.ones(2))
    total = joint_loss([recon], {"t": task}, None, recon_weight=1.0, ponder_weight=0.0)
    assert 0.0 <= float(total.data) < 1e-12


def test_joint_loss_requires_some_term():
    with pytest.raises(AllTermsDisabledError):
        joint_loss([], {}, None, recon_weight=0.5, ponder_weight=0.0)
    recon = mean_squared_error(Tensor(np.array([1.0])), np.array([0.0]))
    with pytest.raises(AllTermsDisabledError):
        joint_loss([recon], {}, None, recon_weight=0.0, ponder_weight=0.0)


# ---- forward contract ----------------------------------------------------

def test_all_missing_customer_is_finite(schema):
    rows = [Row(cells=(MISSING,) * 4, date=t) for t in range(2)]
    table = table_from_rows(customers=["ghost"], features=["sc", "sn", "dc", "dn"],
                            records={"ghost": rows}, labels={}, has_date_index=True)
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    names, reps = model.represent(table)
    assert names == ["ghost"]
    assert reps.shape == (1, 8)
    assert np.all(np.isfinite(reps))


def test_heads_must_divide_embed_dim():
    with pytest.raises(ConfigError, match=r"heads \(4\) must divide embed_dim \(30\)"):
        ModelConfig(embed_dim=30, heads=4)
    assert ModelConfig(embed_dim=30, heads=5).head_dim == 6


def test_rep_width_follows_config(schema):
    model = CustomerEncoder(schema, small_model_config(rep_width=12))
    _, reps = model.represent(fixture_table(n=3))
    assert reps.shape == (3, 12)


def test_forward_bit_identical_across_passes(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    table = fixture_table(n=6)
    _, a = model.represent(table)
    _, b = model.represent(table)
    assert a.tobytes() == b.tobytes()


def test_forwards_outside_recording_return_leaves(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    batch = model.encode_table(fixture_table(n=6))
    outs = [model.forward(batch), model.forward(batch, train=True, rng=np.random.default_rng(0)),
            model.forward(batch[[0]])]
    for out in outs:
        for t in (out.rep, out.ponder):
            assert t._backward_fn is None and not t.requires_grad


FUSED_OPS = ("self_attention", "layer_norm", "mlp", "softmax_cross_entropy")


def training_loss(model, table, batch, rng):
    """The forward result and joint loss of one training step on `batch`."""
    names = batch.customers
    targets = model.reconstruction_targets(
        np.stack([augmented_summary(table, c, model.schema) for c in names]))
    labels = np.array([table.labels["churn"][c] for c in names])
    out = model.forward(batch, train=True, rng=rng)
    recon = [mean_squared_error(pred, t)
             for pred, t in zip(model.reconstruction_outputs(out.rep), targets)]
    task = {"churn": cross_entropy(model.task_logits(out.rep, "churn"), labels, np.ones(2))}
    return out, joint_loss(recon, task, out.ponder, 0.5, 0.01)


def test_training_step_tape_is_bounded_and_each_fused_op_adds_one_node(schema, monkeypatch):
    added = {name: [] for name in FUSED_OPS}
    for name in FUSED_OPS:
        def spy(*args, _op=getattr(numeric, name), _name=name, **kwargs):
            before = len(numeric._tape)
            out = _op(*args, **kwargs)
            added[_name].append(len(numeric._tape) - before)
            return out
        monkeypatch.setattr(numeric, name, spy)

    model = CustomerEncoder(schema, small_model_config(dropout=0.1), tasks={"churn": 2}, seed=2)
    table = fixture_table(n=8)
    batch = model.encode_table(table)
    with numeric.recording():
        out, loss = training_loss(model, table, batch, np.random.default_rng(0))
        tape = len(numeric._tape)
        numeric.backward(loss)
    # both dynamic branches run to the 2-step cap; each step records 12
    # nodes (7 in the block: input coordinates, attention, two dropouts, two
    # residual layer-norms and the transition; 5 for halting and selection),
    # and the step records 93 in all. Unfused, the same step recorded 209.
    assert [b.halt_steps.max() for b in out.branch_stats.values()] == [2, 2]
    assert tape <= 100, f"{tape} tape nodes for one training step"
    assert {name: set(n) for name, n in added.items()} == {name: {1} for name in FUSED_OPS}


# What the sweep holds beyond the tape, as a share of the tape's traced size.
# Keeping every node's gradient and backward function until the sweep ended
# took 59 % for this step (9.9 of 16.6 MB); popping each node as it is passed
# takes 0.2-1 %.
SWEEP_PEAK_SHARE = 0.05


def test_backward_frees_each_node_it_passes():
    table = synth_generate(SynthConfig(n_customers=64, seed=3))
    model = CustomerEncoder(build_schema(table), ModelConfig(), tasks={"churn": 2})
    batch = model.encode_table(table)

    def step(sweep):
        """The traced tape size, `sweep(loss)` and the parameter gradients."""
        for p in model.parameters():
            p.zero_grad()
        with numeric.recording():
            before = tracemalloc.get_traced_memory()[0]
            loss = training_loss(model, table, batch, numeric.substream(0, "dropout"))[1]
            tape_bytes = tracemalloc.get_traced_memory()[0] - before
            swept = sweep(loss)
        return tape_bytes, swept, {name: None if p.grad is None else p.grad.tobytes()
                                   for name, p in model.named_parameters().items()}

    def peak_of_backward(loss):
        return traced_peak(lambda: numeric.backward(loss))[1]

    def backward_keeping_nodes(loss):
        nodes = list(numeric._tape)
        numeric.backward(loss)
        return nodes

    def reference_sweep(loss):
        tape = list(numeric._tape)
        numeric._tape.clear()
        reference_backward(loss, tape)

    (tape_bytes, peak, grads), _ = traced_peak(lambda: step(peak_of_backward))
    assert 0 <= peak <= SWEEP_PEAK_SHARE * tape_bytes, (peak, tape_bytes)
    _, nodes, again = step(backward_keeping_nodes)
    assert nodes and all(n.grad is None and n._backward_fn is None for n in nodes)
    assert again == grads
    assert step(reference_sweep)[2] == grads


def test_same_seed_same_initial_parameters(schema):
    a = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=5)
    b = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=5)
    for name, p in a.named_parameters().items():
        assert p.data.tobytes() == b.named_parameters()[name].data.tobytes()


# ---- reconstruction targets ---------------------------------------------

def test_zero_summary_zero_targets(schema):
    model = CustomerEncoder(schema, small_model_config())
    targets = model.reconstruction_targets(np.zeros((3, model.summary_dim)))
    assert len(targets) == 1
    assert np.all(targets[0] == 0.0)


def test_identity_projection_returns_summary(schema):
    model = CustomerEncoder(schema, small_model_config())
    model.recon_projections = [np.eye(model.summary_dim)]
    x = np.random.default_rng(1).normal(size=(4, model.summary_dim))
    targets = model.reconstruction_targets(x)
    assert np.array_equal(targets[0], x)


def test_projections_frozen_and_seed_determined(schema):
    a = CustomerEncoder(schema, small_model_config(), seed=9)
    b = CustomerEncoder(schema, small_model_config(), seed=9)
    assert a.recon_projections[0].tobytes() == b.recon_projections[0].tobytes()
    x = np.ones((2, a.summary_dim))
    t1 = a.reconstruction_targets(x)
    t2 = a.reconstruction_targets(x)
    assert t1[0].tobytes() == t2[0].tobytes()
    # training must never touch the projections
    before = a.recon_projections[0].copy()
    a.fit(fixture_table(n=12), TrainConfig(epochs=1, batch_size=6, seed=1))
    assert np.array_equal(a.recon_projections[0], before)


# ---- training ------------------------------------------------------------

def test_zero_epochs_returns_empty_log(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    log = model.fit(fixture_table(), TrainConfig(epochs=0))
    assert log == []
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name])


def test_training_reduces_loss(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=3)
    log = model.fit(fixture_table(), TrainConfig(
        epochs=6, batch_size=16, learning_rate=0.01, validation_fraction=0.2, seed=3))
    assert len(log) == 6
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    assert log[0]["val_loss"] is not None


def test_halting_histogram_counts_each_valid_training_position_once_per_epoch():
    table = synth_generate(SynthConfig(n_customers=50, records_min=2, records_max=7, seed=4))
    config = small_model_config(t_max=3)
    logs = []
    for run in range(2):
        model = CustomerEncoder(build_schema(table), config, tasks={"churn": 2}, seed=5)
        logs.append(model.fit(table, TrainConfig(epochs=2, batch_size=16,
                                                 validation_fraction=0.0, seed=5)))
    valid = model.encode_table(table).seq_valid
    assert valid.sum() < valid.size                     # some windows are padded
    assert logs[0] == logs[1]
    for record in logs[0]:
        assert set(record["halt_histogram"]) == {"dynamic_categorical", "dynamic_numerical"}
        for counts in record["halt_histogram"].values():
            assert len(counts) == config.t_max and all(type(c) is int for c in counts)
            assert sum(counts) == valid.sum()


def test_identical_seeds_identical_checkpoints(schema, tmp_path):
    table = fixture_table()
    config = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01, seed=7)
    paths = []
    for run in range(2):
        model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=11)
        model.fit(table, config)
        path = tmp_path / f"run{run}.json"
        model.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unsupervised_regime_reduces_reconstruction_error(schema):
    table = fixture_table(with_labels=False)
    model = CustomerEncoder(schema, small_model_config(), tasks=None, seed=13)

    def recon_mse():
        summaries = np.stack([augmented_summary(table, c, schema) for c in table.customers])
        targets = model.reconstruction_targets(summaries)
        _, reps = model.represent(table)
        total = 0.0
        for pred, t in zip(model.reconstruction_outputs(Tensor(reps)), targets):
            total += float(mean_squared_error(pred, t).data)
        return total

    before = recon_mse()
    log = model.fit(table, TrainConfig(epochs=8, batch_size=16, learning_rate=0.01,
                                       validation_fraction=0.0, seed=13))
    assert len(log) == 8
    assert recon_mse() < before


def test_supervision_requires_labels_when_recon_disabled(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    from tabrep.errors import NoLabeledCustomersError
    with pytest.raises(NoLabeledCustomersError):
        model.fit(fixture_table(with_labels=False),
                  TrainConfig(epochs=1, recon_weight=0.0))


@pytest.mark.parametrize("val_labeled", [True, False])
def test_recon_off_skips_batches_without_labeled_customers(val_labeled):
    """Reconstruction off and 6 of 200 customers labeled: most training
    batches have no trainable term and are skipped; with no labeled
    validation customer the validation chunk is skipped too."""
    table = synth_generate(SynthConfig(n_customers=200, seed=3))
    config = TrainConfig(epochs=2, batch_size=16, recon_weight=0.0, seed=3)
    val_idx = numeric.substream(config.seed, "split").permutation(200)[:40]
    train_idx = np.setdiff1d(np.arange(200), val_idx)
    pool = [*train_idx[:3], *(val_idx if val_labeled else train_idx[3:])[:3]]
    labeled = [table.customers[i] for i in pool]
    table.labels["churn"] = {c: table.labels["churn"][c] for c in labeled}
    model = CustomerEncoder(build_schema(table, RecognizerConfig()),
                            small_model_config(dropout=0.1), tasks={"churn": 2}, seed=3)
    log = model.fit(table, config)
    assert len(log) == 2
    for rec in log:
        assert rec["skipped_batches"] > 0
        assert math.isfinite(rec["train_loss"])
        assert (rec["val_loss"] is not None) == val_labeled


@pytest.mark.parametrize("recon_weight", [0.5, 0.0])
def test_validation_class_unseen_in_training_adds_no_term(recon_weight):
    """The first 60 of 200 customers labeled: validation ones 1, training
    ones 0. Class 1 has no training weight, so the validation chunk has no
    supervised term: with reconstruction on its loss is reconstruction and
    ponder only, with it off the chunk is skipped and counted."""
    table = synth_generate(SynthConfig(n_customers=200, seed=3))
    config = TrainConfig(epochs=1, batch_size=16, recon_weight=recon_weight, seed=3)
    perm = numeric.substream(config.seed, "split").permutation(200)
    val_idx, train_idx = perm[:40], perm[40:]
    table.labels["churn"] = {c: int(i in val_idx) for i, c in enumerate(table.customers[:60])}
    model = CustomerEncoder(build_schema(table, RecognizerConfig()),
                            small_model_config(), tasks={"churn": 2}, seed=3)
    (rec,) = model.fit(table, config)
    assert model.class_weights["churn"][1] == 0.0
    assert math.isfinite(rec["train_loss"])
    if recon_weight:
        assert math.isfinite(rec["val_loss"])
        assert rec["skipped_batches"] == 0
    else:
        assert rec["val_loss"] is None
        order = train_idx[numeric.substream(config.seed, "batches").permutation(160)]
        unlabeled = sum(not (order[lo:lo + 16] < 60).any() for lo in range(0, 160, 16))
        assert rec["skipped_batches"] == unlabeled + 1     # plus the validation chunk


def test_task_without_training_labels_adds_no_validation_term():
    """Labels only on validation customers: the head gets class weights 0
    from this fit's own split, so both losses equal, bit for bit, those of
    the same seed without the head."""
    table = synth_generate(SynthConfig(n_customers=200, seed=3))
    config = TrainConfig(epochs=2, batch_size=16, validation_fraction=0.3, seed=3)
    val_idx = numeric.substream(config.seed, "split").permutation(200)[:60]
    table.labels["churn"] = {table.customers[i]: table.labels["churn"][table.customers[i]]
                             for i in val_idx}
    schema = build_schema(table, RecognizerConfig())
    logs = [CustomerEncoder(schema, small_model_config(dropout=0.1), tasks, seed=3)
            .fit(table, config) for tasks in ({"churn": 2}, {})]
    for with_head, without in zip(*logs):
        assert with_head["train_loss"] == without["train_loss"]
        assert with_head["val_loss"] == without["val_loss"]


def test_fit_encodes_once_and_forwards_validation_once_per_epoch(schema, monkeypatch):
    table = fixture_table()
    encoded = []
    monkeypatch.setattr(model_module, "encode_table",
                        lambda t, s, lay, c: encoded.append(c) or encode_table(t, s, lay, c))
    evaluated = []
    forward = CustomerEncoder.forward

    def spy(self, batch, train=False, rng=None):
        if not train:
            evaluated.extend(batch.customers)
        return forward(self, batch, train, rng)

    monkeypatch.setattr(CustomerEncoder, "forward", spy)
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=3)
    log = model.fit(table, TrainConfig(epochs=3, batch_size=16, validation_fraction=0.25,
                                       seed=3))
    assert encoded == [None]            # the whole table, once
    assert len(evaluated) == 3 * 10
    assert Counter(evaluated) == Counter({c: 3 for c in set(evaluated)})
    assert all(rec["val_auc"]["churn"] is not None for rec in log)


def test_label_outside_task_range_rejected(schema):
    table = fixture_table()
    table.labels["churn"]["u000"] = 7
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    with pytest.raises(ConfigError):
        model.fit(table, TrainConfig(epochs=1))


# ---- prediction ----------------------------------------------------------

def test_probabilities_sum_to_one(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    names, proba = model.predict_proba(fixture_table(n=10), "churn")
    assert proba.shape == (10, 2)
    assert np.all(np.abs(proba.sum(axis=1) - 1.0) <= 1e-9)
    assert len(names) == 10


def test_unknown_task_rejected(schema):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    with pytest.raises(UnknownTaskError):
        model.predict_proba(fixture_table(n=2), "upsell")
    with pytest.raises(UnknownTaskError):
        model.task_logits(Tensor(np.zeros((1, 8))), "upsell")


def test_inference_never_forwards_a_lone_row(schema, monkeypatch):
    """A one-row product would take BLAS's matrix-vector path: the lone last
    customer of a table is multiplied as two copies of its row."""
    table = fixture_table(n=EVAL_BATCH + 1)
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2})
    rows = []
    matmul = numeric.matmul

    def spy(a, b):
        rows.append(numeric.as_tensor(a).shape[0])
        return matmul(a, b)

    monkeypatch.setattr(numeric, "matmul", spy)
    _, reps = model.represent(table)
    _, proba = model.predict_proba(table, "churn")
    assert reps.shape[0] == proba.shape[0] == EVAL_BATCH + 1
    assert set(rows) == {EVAL_BATCH, 2}


def test_hand_set_head_matches_straight_line_computation(schema):
    model = CustomerEncoder(schema, small_model_config(head_hidden=2), tasks={"churn": 2})
    w1, b1, w2, b2 = model.task_heads["churn"]
    w1.data[:] = 0.0
    w1.data[0, 0] = 1.0
    w1.data[1, 1] = -2.0
    b1.data[:] = np.array([0.5, 0.0])
    w2.data[:] = np.array([[1.0, -1.0], [2.0, 0.0]])
    b2.data[:] = np.array([0.1, -0.1])

    rep = np.array([[0.3, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    hidden = np.maximum(rep @ w1.data + b1.data, 0.0)
    logits = hidden @ w2.data + b2.data
    got = model.task_logits(Tensor(rep), "churn").data
    assert np.allclose(got, logits, atol=1e-12)
    proba = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    for rows in (rep, np.repeat(rep, 3, axis=0)):      # alone, and as three rows
        assert np.allclose(model.class_proba(rows, "churn"), proba, atol=1e-12)


# ---- checkpointing -------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(schema, tmp_path):
    table = fixture_table(n=8)
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=17)
    model.fit(table, TrainConfig(epochs=1, batch_size=8, seed=17))
    path = tmp_path / "model.json"
    model.save(path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True)
    loaded = CustomerEncoder.load(path)
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    _, a = model.represent(table)
    _, b = loaded.represent(table)
    assert a.tobytes() == b.tobytes()
    _, pa = model.predict_proba(table, "churn")
    _, pb = loaded.predict_proba(table, "churn")
    assert pa.tobytes() == pb.tobytes()


def test_save_peaks_below_the_size_of_the_file_it_writes(schema, tmp_path):
    # the default model's ~47k values as Python floats outweigh its file
    model = CustomerEncoder(schema, ModelConfig(), tasks={"churn": 2}, seed=3)
    path = tmp_path / "model.json"
    _, peak = traced_peak(lambda: model.save(path))
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_checkpoint_round_trip_keeps_extreme_magnitudes(schema, tmp_path):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=2)
    rng = np.random.default_rng(11)
    named = model.named_parameters()
    for i, p in enumerate(named.values()):
        p.data = rng.standard_normal(p.data.shape) * (1e-7 if i % 2 else 1e9)
    w = next(iter(named.values())).data.reshape(-1)
    w[:2] = [5e-324, -0.0]                  # a subnormal and a signed zero
    path = tmp_path / "model.json"
    model.save(path)
    loaded = CustomerEncoder.load(path).named_parameters()
    for name, p in named.items():
        assert loaded[name].data.shape == p.data.shape
        assert loaded[name].data.tobytes() == p.data.tobytes()


def test_checkpoint_holds_constructor_arguments_and_parameters(schema, tmp_path):
    model = CustomerEncoder(schema, small_model_config(), tasks={"churn": 2}, seed=4)
    model.fit(fixture_table(n=12), TrainConfig(epochs=1, batch_size=6, seed=4))
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"format", "version", "seed", "config", "tasks", "schema", "params"}
    assert payload["version"] == model_module.MODEL_VERSION == 4
    assert set(payload["params"]) == set(model.named_parameters())
    for rec in payload["params"].values():
        assert set(rec) == {"shape", "data"}


def test_checkpoint_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(TableIOError):
        CustomerEncoder.load(path)
    path.write_text("not json at all")
    with pytest.raises(TableIOError):
        CustomerEncoder.load(path)
