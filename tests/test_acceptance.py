"""Release gate: one test per acceptance criterion.

Every test prints a single PASS or FAIL line with its headline numbers, so
a verbose pytest run doubles as the release checklist. The criteria cover
gradient correctness, oracle agreement for the recognizers and metrics,
structural invariants, the planted-signal learning task, representation
uplift, interpretation recovery, determinism, and synth/profile closure.
"""

import ast
import inspect
import json
import math
import re
import time
from contextlib import contextmanager

import numpy as np

from tabrep import numeric
from tabrep.cli import main as cli_main
from tabrep.dynamics import (TransformerParams, act_run, attention_weights, dynamic_embed,
                             mhsa, pack, transformer_step)
from tabrep.embed import categorical_embed, max_concat, positional_numeric_embed
from tabrep.encode import augmented_summary
from tabrep.eval import (BaselineConfig, SynthConfig, baseline_linear,
                         f_score, flatten_features, roc_auc, synth_generate,
                         task_labels, weighted_accuracy)
from tabrep.interpret import InterpretConfig, class_target, genome_report, position_target
from tabrep.model import (CustomerEncoder, ModelConfig, TrainConfig,
                          cross_entropy, joint_loss, mean_squared_error)
from tabrep.numeric import Parameter, Tensor
from tabrep.prep import (RecognizerConfig, build_schema, dynamics_matrix, nc_recognize,
                         sd_recognize, uniform_normalize)
from tabrep.table import BigTable

from gradcheck import max_relative_error, scalarize
from oracles import (cells_of, random_table, reference_auc, reference_dynamics,
                     reference_f_score, reference_feature_kind, reference_weighted_accuracy)
from test_interpret import linear_model, linear_table


@contextmanager
def criterion(num: int, label: str):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"criterion {num} [{label}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    detail = info.get("detail", "ok")
    print(f"criterion {num} [{label}]: PASS — {detail} "
          f"({time.perf_counter() - start:.1f}s)")


def subset(table: BigTable, keep) -> BigTable:
    keep = list(keep)
    ks = set(keep)
    return BigTable(customers=keep,
                    features=list(table.features),
                    records=table.select(keep),
                    labels={t: {c: v for c, v in lab.items() if c in ks}
                            for t, lab in table.labels.items()},
                    has_date_index=table.has_date_index)


ENCODER_CONFIG = dict(embed_dim=12, n_s=8, heads=2, t_max=2, rep_width=16,
                      fusion_hidden=32, head_hidden=16, recon_count=1,
                      recon_dim=8, dropout=0.0)


# ---- criterion 1: gradients ----------------------------------------------

def gradient_cases():
    """(name, loss_fn, tensors, sample) covering every differentiable op.

    Values stay away from relu kinks and max ties so central differences
    are well posed at h = 1e-5.
    """
    rng = np.random.default_rng(29)

    def signed(shape, lo=0.3, hi=1.3):
        return rng.uniform(lo, hi, size=shape) * np.where(rng.random(shape) < 0.5, -1, 1)

    def distinct(shape):
        n = int(np.prod(shape))
        return (rng.permutation(n).reshape(shape) * 0.37 - 0.11 * n / 2)

    cases = []

    a = Parameter(signed((3, 4)), name="a")
    b = Parameter(signed((4,)), name="b")
    c = Parameter(signed((3, 1)), name="c")
    w34 = rng.normal(size=(3, 4))
    cases.append(("add/sub/mul/neg", lambda: scalarize(a * b - (a + c) * 0.5 + (-c) * b, w34),
                  [a, b, c]))

    m1 = Parameter(rng.normal(size=(3, 4)), name="m1")
    m2 = Parameter(rng.normal(size=(4, 5)), name="m2")
    w35 = rng.normal(size=(3, 5))
    cases.append(("matmul", lambda: scalarize(numeric.matmul(m1, m2), w35), [m1, m2]))

    mb = Parameter(rng.normal(size=(2, 3, 4)), name="mb")
    w235 = rng.normal(size=(2, 3, 5))
    cases.append(("matmul batched", lambda: scalarize(numeric.matmul(mb, m2), w235),
                  [mb, m2]))
    ms = Parameter(rng.normal(size=(2, 4, 5)), name="ms")
    cases.append(("matmul stacked", lambda: scalarize(numeric.matmul(mb, ms), w235),
                  [mb, ms]))

    c1 = Parameter(rng.normal(size=(3, 2)), name="c1")
    c2 = Parameter(rng.normal(size=(3, 3)), name="c2")
    w35b = rng.normal(size=(3, 5))
    cases.append(("concat", lambda: scalarize(numeric.concat([c1, c2], axis=-1), w35b),
                  [c1, c2]))

    tk = Parameter(rng.normal(size=(5, 3)), name="tk")
    idx = np.array([0, 2, 2, 4, 0])
    w53 = rng.normal(size=(5, 3))
    cases.append(("take", lambda: scalarize(numeric.take(tk, idx), w53), [tk]))
    pl = Parameter(rng.normal(size=(2, 3)), name="pl")
    cases.append(("place", lambda: scalarize(numeric.place(pl, np.array([3, 1]), (5, 3)), w53),
                  [pl]))

    sh = Parameter(rng.normal(size=(2, 6)), name="sh")
    w43 = rng.normal(size=(4, 3))
    cases.append(("reshape/transpose",
                  lambda: scalarize(numeric.transpose(numeric.transpose(
                      numeric.reshape(sh, (4, 3))), (1, 0)), w43), [sh]))

    r = Parameter(signed((4, 5)), name="r")
    w45 = rng.normal(size=(4, 5))
    cases.append(("relu", lambda: scalarize(numeric.relu(r), w45), [r]))
    cases.append(("sigmoid", lambda: scalarize(numeric.sigmoid(r), w45), [r]))
    cases.append(("exp", lambda: scalarize(numeric.exp(r * 0.5), w45), [r]))

    p = Parameter(rng.uniform(0.5, 2.0, size=(4, 5)), name="p")
    cases.append(("log", lambda: scalarize(numeric.log(p), w45), [p]))
    cases.append(("softmax", lambda: scalarize(numeric.softmax(r, axis=-1), w45), [r]))
    cases.append(("layer_norm", lambda: scalarize(numeric.layer_norm(r, axis=-1), w45),
                  [r]))

    dx = Parameter(rng.normal(size=(4, 6)), name="dx")
    w46 = rng.normal(size=(4, 6))
    cases.append(("dropout", lambda: scalarize(numeric.dropout(
        dx, 0.4, train=True, rng=np.random.default_rng(77)), w46), [dx]))

    w5r = rng.normal(size=(5,))
    cases.append(("tensor_sum", lambda: scalarize(numeric.tensor_sum(r, axis=0), w5r),
                  [r]))
    cases.append(("tensor_mean", lambda: numeric.tensor_mean(r * r), [r]))

    mx = Parameter(distinct((4, 6)), name="mx")
    w6 = rng.normal(size=(6,))
    cases.append(("tensor_max", lambda: scalarize(numeric.tensor_max(mx, axis=0), w6),
                  [mx]))
    mask46 = rng.random((4, 6)) < 0.7
    mask46[0] = True
    w6b = rng.normal(size=(6,))
    cases.append(("masked_max", lambda: scalarize(numeric.masked_max(mx, mask46, axis=0),
                                                  w6b), [mx]))

    emb = Parameter(rng.normal(size=(7, 5)), name="emb")
    ids = np.array([[0, 3], [3, 6]])
    w225 = rng.normal(size=(2, 2, 5))
    cases.append(("categorical_embed", lambda: scalarize(categorical_embed(ids, emb), w225),
                  [emb]))

    pm = Parameter(rng.normal(size=(4, 5)), name="pm")
    pv = Parameter(rng.uniform(0.1, 0.9, size=(2, 4)), name="pv")
    w245 = rng.normal(size=(2, 4, 5))
    cases.append(("positional_numeric_embed",
                  lambda: scalarize(positional_numeric_embed(pv, pm), w245), [pm, pv]))

    mc = Parameter(distinct((3, 5)), name="mc")
    w5 = rng.normal(size=(5,))
    cases.append(("max_concat", lambda: scalarize(max_concat(mc), w5), [mc]))

    # the fused ops, each one node with a hand-written backward
    sx = Parameter(rng.normal(size=(2, 3, 8)), name="sx")
    sw = [Parameter(rng.normal(size=(8, 8)) * 0.5, name=f"sw{i}") for i in range(4)]
    smask = np.array([[True, True, False], [True, True, True]])
    w238 = rng.normal(size=(2, 3, 8))
    cases.append(("self_attention",
                  lambda: scalarize(numeric.self_attention(sx, *sw, 2, mask=smask), w238),
                  [sx, *sw]))
    segments = np.array([[0, 0, 1], [2, -1, 2]])
    cases.append(("self_attention segments",
                  lambda: scalarize(numeric.self_attention(sx, *sw, 2, mask=segments), w238),
                  [sx, *sw]))
    lx = Parameter(rng.normal(size=(2, 3, 5)), name="lx")
    ly = Parameter(rng.normal(size=(2, 3, 5)), name="ly")
    w235l = rng.normal(size=(2, 3, 5))
    cases.append(("layer_norm residual",
                  lambda: scalarize(numeric.layer_norm(lx, residual=ly), w235l), [lx, ly]))
    fx = Parameter(rng.normal(size=(2, 3, 4)), name="fx")
    fw = [Parameter(rng.normal(size=shape), name=f"fw{i}")
          for i, shape in enumerate([(4, 6), (6,), (6, 3), (3,)])]
    w233 = rng.normal(size=(2, 3, 3))
    cases.append(("mlp", lambda: scalarize(numeric.mlp(fx, *fw), w233), [fx, *fw]))
    ce = Parameter(rng.normal(size=(5, 3)) * 2.0, name="ce")
    ce_labels = np.array([0, 2, 1, 1, 2])
    ce_weights = np.array([1.0, 0.5, 2.0, 0.0, 1.5])
    cases.append(("softmax_cross_entropy",
                  lambda: numeric.softmax_cross_entropy(ce, ce_labels, ce_weights), [ce]))

    # the refinement block on a batch of two whose rows have different masks,
    # checking every parameter each function reads
    tcfg = ModelConfig(n_s=3, embed_dim=8, heads=2, t_max=3, dropout=0.0)
    tparams = TransformerParams.init(tcfg, numeric.drawing(np.random.default_rng(11)), "t")
    te = Parameter(rng.normal(size=(2, 3, 8)), name="te")
    tmask = np.array([[True, True, False], [True, True, True]])
    w38 = rng.normal(size=(2, 3, 8))
    attention_params = [tparams.wq, tparams.wk, tparams.wv, tparams.wo]
    step_params = attention_params + [tparams.ts_w1, tparams.ts_b1, tparams.ts_w2, tparams.ts_b2]
    cases.append(("mhsa", lambda: scalarize(mhsa(te, tparams, tcfg, mask=tmask), w38),
                  [te, *attention_params]))
    cases.append(("transformer_step",
                  lambda: scalarize(transformer_step(te, 1, tparams, tcfg, mask=tmask), w38),
                  [te, *step_params]))
    dcfg = ModelConfig(n_s=3, embed_dim=8, heads=2, t_max=3, dropout=0.3)
    cases.append(("transformer_step dropout",
                  lambda: scalarize(transformer_step(te, 2, tparams, dcfg, mask=tmask, train=True,
                                                     rng=np.random.default_rng(41)), w38),
                  [te, *step_params]))

    aparams = TransformerParams.init(tcfg, numeric.drawing(np.random.default_rng(35)), "t")
    aparams.halt_b.data[:] = -1.0       # keep refinement running a few steps
    ae = Parameter(rng.normal(size=(2, 3, 8)), name="ae")

    def act_fn():
        final, ponder, _ = act_run(ae, aparams, tcfg, mask=tmask)
        return scalarize(final, w38) + 0.01 * ponder

    # every block parameter but `wd`, which `dynamic_embed` reads
    cases.append(("act_run", act_fn, [ae, *aparams.parameters()[:-1]]))

    # two windows of two positions, one with a hole, share one packed row of four
    pcfg = ModelConfig(n_s=4, embed_dim=8, heads=2, t_max=3, dropout=0.3)
    pparams = TransformerParams.init(pcfg, numeric.drawing(np.random.default_rng(36)), "t")
    pparams.halt_b.data[:] = -1.0
    pe = Parameter(rng.normal(size=(2, 4, 8)), name="pe")
    pmask = np.array([[True, False, True, False], [True, True, False, False]])
    assert pack(pmask).segment.tolist() == [[0, 0, 1, 1]]
    w48 = rng.normal(size=(2, 4, 8))

    def packed_fn():
        final, ponder, _ = act_run(pe, pparams, pcfg, mask=pmask, train=True,
                                   rng=np.random.default_rng(43))
        return scalarize(final, w48) + 0.01 * ponder

    cases.append(("act_run two segments in one packed row", packed_fn,
                  [pe, *pparams.parameters()[:-1]]))

    wd = Parameter(rng.normal(size=(24, 4)), name="wd")
    de = Parameter(rng.normal(size=(1, 3, 8)), name="de")
    w34d = rng.normal(size=(3, 4))
    cases.append(("dynamic_embed", lambda: scalarize(dynamic_embed(de, wd), w34d),
                  [wd, de]))
    return cases


def full_forward_check(rng):
    """Gradcheck the complete model loss on a two-customer batch."""
    table = synth_generate(SynthConfig(n_customers=60, records_min=3, seed=17))
    schema = build_schema(table)
    pair = table.customers[:2]
    model = CustomerEncoder(schema,
                            ModelConfig(embed_dim=16, n_s=6, heads=2, t_max=2,
                                        rep_width=8, fusion_hidden=16,
                                        head_hidden=8, recon_count=1,
                                        recon_dim=6, dropout=0.0),
                            tasks={"churn": 2}, seed=3)
    batch = model.encode_table(table, pair)
    targets = model.reconstruction_targets(
        np.stack([augmented_summary(table, c, schema) for c in pair]))
    labels = np.array([0, 1])
    weights = np.ones(2)

    def loss_fn():
        out = model.forward(batch, train=False)
        recon = [mean_squared_error(pred, t)
                 for pred, t in zip(model.reconstruction_outputs(out.rep), targets)]
        tasks = {"churn": cross_entropy(model.task_logits(out.rep, "churn"),
                                        labels, weights)}
        return joint_loss(recon, tasks, out.ponder, 0.5, 0.01, None)

    return max_relative_error(loss_fn, model.parameters(), h=1e-5, sample=3, rng=rng)


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite") as info:
        start = time.perf_counter()
        worst = 0.0
        for name, fn, tensors, *rest in [c + (None,) for c in gradient_cases()]:
            err = max_relative_error(fn, tensors, h=1e-5)
            assert err < 1e-3, f"{name}: max relative error {err:.2e}"
            worst = max(worst, err)
        err = full_forward_check(np.random.default_rng(5))
        assert err < 1e-3, f"full forward: max relative error {err:.2e}"
        worst = max(worst, err)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        info["detail"] = f"max rel err {worst:.2e} across ops and full forward"


def node_builders(module) -> set[str]:
    """Public top-level functions of `module` that build an autodiff node,
    through `_node` itself or through a private helper that calls it."""
    tree = ast.parse(inspect.getsource(module))
    calls = {f.name: {n.func.id for n in ast.walk(f)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
             for f in tree.body if isinstance(f, ast.FunctionDef)}
    builders = {"_node"}
    while True:
        more = {name for name, called in calls.items() if called & builders} - builders
        if not more:
            return {name for name in builders if not name.startswith("_")}
        builders |= more


def test_every_node_building_numeric_op_has_a_criterion_1_case():
    builders = node_builders(numeric)
    assert {"matmul", "layer_norm", "tensor_max", "self_attention"} <= builders
    covered = {word for name, *_ in gradient_cases() for word in re.split(r"[/ ]", name)}
    missing = sorted(builders - covered)
    assert not missing, f"numeric ops without a criterion-1 gradient case: {missing}"


# ---- criterion 2: recognizer oracle --------------------------------------

def test_criterion_2_recognizer_oracle():
    with criterion(2, "recognizer oracle") as info:
        rng = np.random.default_rng(41)
        config = RecognizerConfig()
        mismatches = 0
        features_checked = 0
        for _ in range(200):
            t = random_table(rng)
            kinds = nc_recognize(t, config)
            sd = sd_recognize(dynamics_matrix(t, kinds, config), kinds, config)
            t_f = max(1, math.ceil(0.05 * t.n_customers))
            for f in t.features:
                features_checked += 1
                if kinds[f] != reference_feature_kind(cells_of(t.column(f)),
                                                      config.integer_unique_threshold):
                    mismatches += 1
                    continue
                if kinds[f] == "date":
                    continue
                t_d = 0.0 if kinds[f] == "categorical" else 0.05
                want = reference_dynamics(t, f, kinds[f], t_d, t_f)
                if sd[f] != (want == "dynamic"):
                    mismatches += 1
        assert mismatches == 0, f"{mismatches} recognizer mismatches"
        info["detail"] = f"200 tables, {features_checked} features, 0 mismatches"


# ---- criterion 3: metric oracle ------------------------------------------

def test_criterion_3_metric_oracle():
    with criterion(3, "metric oracle") as info:
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[rng.integers(n)] = 1 - labels[0]
            scores = np.round(rng.random(n), 2)     # duplicates force tie handling
            predicted = (scores >= 0.5).astype(int)
            diffs = [
                roc_auc(scores, labels) - reference_auc(scores, labels),
                f_score(predicted, labels) - reference_f_score(predicted, labels),
                weighted_accuracy(predicted, labels)
                - reference_weighted_accuracy(predicted, labels),
                weighted_accuracy(predicted, labels, frequency_weighted=True)
                - reference_weighted_accuracy(predicted, labels, frequency_weighted=True),
            ]
            worst = max(worst, max(abs(d) for d in diffs))
        assert worst <= 1e-12, f"metric deviation {worst:.2e}"
        info["detail"] = f"100 instances, max deviation {worst:.2e}"


# ---- criterion 4: structural invariants ----------------------------------

def test_criterion_4_structural_invariants():
    with criterion(4, "structural invariants") as info:
        rng = np.random.default_rng(47)

        # attention rows are distributions; masked keys get exactly zero
        for _ in range(20):
            config = ModelConfig(n_s=int(rng.integers(2, 6)), embed_dim=8, heads=2,
                                 t_max=2, dropout=0.0)
            params = TransformerParams.init(config, numeric.drawing(rng), "t")
            e = Tensor(rng.normal(size=(3, config.n_s, config.embed_dim)))
            mask = rng.random((3, config.n_s)) < 0.7
            mask[:, 0] = True
            w = attention_weights(e, params, config, mask=mask)
            assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-6)
            assert np.all(w[:, :, :, :][~np.broadcast_to(
                mask[:, None, None, :], w.shape)] == 0.0)

        # columnwise max is permutation invariant, bit for bit
        for _ in range(10):
            rows = Tensor(rng.normal(size=(6, 5)))
            mask = rng.random(6) < 0.8
            mask[0] = True
            base = numeric.masked_max(rows, mask, axis=-2).data
            for _ in range(10):
                perm = rng.permutation(6)
                shuffled = numeric.masked_max(Tensor(rows.data[perm]), mask[perm],
                                              axis=-2).data
                assert shuffled.tobytes() == base.tobytes()

        # padded positions never leak into valid attention outputs
        config = ModelConfig(n_s=5, embed_dim=8, heads=2, t_max=2, dropout=0.0)
        params = TransformerParams.init(config, numeric.drawing(rng), "t")
        base = rng.normal(size=(1, 5, config.embed_dim))
        mask = np.array([[True, True, True, False, False]])
        altered = base.copy()
        altered[:, 3:] += 100.0
        out_a = mhsa(Tensor(base), params, config, mask=mask).data
        out_b = mhsa(Tensor(altered), params, config, mask=mask).data
        assert out_a[:, :3].tobytes() == out_b[:, :3].tobytes()

        # halting steps stay within the cap on random inputs
        for _ in range(100):
            config = ModelConfig(n_s=3, embed_dim=8, heads=2,
                                 t_max=int(rng.integers(1, 5)), dropout=0.0)
            params = TransformerParams.init(config, numeric.drawing(rng), "t")
            params.halt_b.data[:] = rng.uniform(-3.0, 3.0)
            _, _, stats = act_run(Tensor(rng.normal(size=(1, 3, config.embed_dim))),
                                  params, config)
            assert np.all(stats.halt_steps >= 1)
            assert np.all(stats.halt_steps <= config.t_max)

        # normalization maps endpoints exactly and never leaves [0, 1]
        for _ in range(200):
            lo = float(rng.uniform(-50, 50))
            hi = lo + float(rng.uniform(0.1, 100))
            assert uniform_normalize(lo, (lo, hi)) == 0.0
            assert uniform_normalize(hi, (lo, hi)) == 1.0
            v = float(rng.uniform(-200, 200))
            out = uniform_normalize(v, (lo, hi))
            assert 0.0 <= out <= 1.0
            assert uniform_normalize(v, (lo, lo)) == 0.5
        info["detail"] = ("attention rows, max permutation, padding isolation, "
                          "halting cap, normalization endpoints")


# ---- criterion 5: planted-signal end to end ------------------------------

def test_criterion_5_synthetic_end_to_end():
    with criterion(5, "synthetic end to end") as info:
        start = time.perf_counter()
        # label noise kept low enough that a clean learner can clear the
        # 0.90 gate; the generator default of 0.05 caps reachable AUC below it
        table = synth_generate(SynthConfig(n_customers=2000, positive_fraction=0.2,
                                           missing_rate=0.5, label_noise=0.02,
                                           seed=101))
        schema = build_schema(table)
        split = np.random.default_rng(0).permutation(table.customers)
        train_ids, test_ids = list(split[:1400]), list(split[1400:])
        labels = table.labels["churn"]

        model = CustomerEncoder(schema, ModelConfig(**ENCODER_CONFIG),
                                tasks={"churn": 2}, seed=0)
        model.fit(subset(table, train_ids),
                  TrainConfig(epochs=8, batch_size=64, learning_rate=3e-3,
                              recon_weight=0.3, validation_fraction=0.15, seed=0))
        _, proba = model.predict_proba(table, "churn", test_ids)
        model_auc = roc_auc(proba[:, 1], np.array([labels[c] for c in test_ids]))

        x_static, _ = flatten_features(table, schema, include_dynamic=False)
        _, static_metrics = baseline_linear(
            x_static, np.array([labels[c] for c in table.customers]),
            BaselineConfig(seed=0))

        elapsed = time.perf_counter() - start
        assert model_auc >= 0.90, f"model held-out AUC {model_auc:.3f} < 0.90"
        assert static_metrics.auc <= 0.70, \
            f"static baseline AUC {static_metrics.auc:.3f} > 0.70"
        assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"
        info["detail"] = (f"model AUC {model_auc:.3f} vs static baseline "
                          f"{static_metrics.auc:.3f}")


# ---- criterion 6: representation uplift ----------------------------------

def test_criterion_6_representation_uplift():
    with criterion(6, "representation uplift") as info:
        wins = 0
        uplifts = []
        for seed in range(10):
            table = synth_generate(SynthConfig(n_customers=500, label_noise=0.02,
                                               seed=200 + seed))
            schema = build_schema(table)
            customers, labels = task_labels(table, "churn")

            # rebuild the baseline's internal split so the encoder never sees
            # labels of the rows both baselines are scored on
            bcfg = BaselineConfig(seed=seed)
            perm = numeric.substream(seed, "baseline-split").permutation(len(customers))
            n_val = int(round(bcfg.validation_fraction * len(customers)))
            train_ids = [customers[i] for i in perm[n_val:]]

            model = CustomerEncoder(schema, ModelConfig(**ENCODER_CONFIG),
                                    tasks={"churn": 2}, seed=seed)
            model.fit(subset(table, train_ids),
                      TrainConfig(epochs=30, batch_size=32, learning_rate=3e-3,
                                  recon_weight=0.3, validation_fraction=0.15,
                                  seed=seed))
            _, reps = model.represent(table, customers)

            x_raw, _ = flatten_features(table, schema, include_dynamic=True)
            keep = [table.customers.index(c) for c in customers]
            _, raw_metrics = baseline_linear(x_raw[keep], labels, bcfg)
            _, rep_metrics = baseline_linear(reps, labels, bcfg)
            uplift = rep_metrics.weighted_accuracy - raw_metrics.weighted_accuracy
            uplifts.append(uplift)
            wins += uplift >= 0.05
        assert wins >= 8, f"only {wins}/10 seeds show a 5-point uplift: {uplifts}"
        info["detail"] = (f"{wins}/10 seeds, median uplift "
                          f"{np.median(uplifts):+.3f} weighted accuracy")


# ---- criterion 7: interpretation recovery --------------------------------

def test_criterion_7_interpretation_recovery():
    with criterion(7, "interpretation recovery") as info:
        wins = 0
        for seed in range(10):
            table = synth_generate(SynthConfig(n_customers=400,
                                               n_dynamic_categorical=1,
                                               label_noise=0.02, seed=300 + seed))
            schema = build_schema(table)
            model = CustomerEncoder(schema, ModelConfig(**ENCODER_CONFIG),
                                    tasks={"churn": 2}, seed=seed)
            model.fit(table, TrainConfig(epochs=20, batch_size=32,
                                         learning_rate=3e-3, recon_weight=0.3,
                                         validation_fraction=0.15, seed=seed))
            report = genome_report(model, table, InterpretConfig(
                k=25, mask_samples=96, delta_threshold=0.0,
                targets=(class_target("churn"),), seed=seed))
            ranked = report.targets[0].features
            wins += bool(ranked) and ranked[0]["feature"] == "dc0"
        assert wins >= 8, f"planted feature ranked first on only {wins}/10 seeds"

        # closed form: masking feature i of a linear model moves the target
        # by exactly -weight_i * value_i
        weights = [2.0, -1.5, 0.75]
        values = [0.5, 0.8, 0.4]
        model = linear_model(weights)
        table = linear_table({f"c{i}": values for i in range(3)})
        report = genome_report(model, table, InterpretConfig(
            k=3, mask_samples=64, delta_threshold=0.0,
            targets=(position_target(0),), seed=0))
        got = {rec["feature"]: rec["score"] for rec in report.targets[0].features}
        worst = max(abs(got[f"f{i}"] - abs(w * v))
                    for i, (w, v) in enumerate(zip(weights, values)))
        assert worst < 1e-9, f"linear masking score deviation {worst:.2e}"
        info["detail"] = f"{wins}/10 seeds, linear closed form within {worst:.1e}"


# ---- criterion 8: determinism and persistence ----------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion(8, "determinism and persistence") as info:
        def pipeline(out):
            code = cli_main(["synth", "--config", str(cfg_path), "--out", str(out)])
            code |= cli_main(["train", "--config", str(cfg_path),
                              "--table", str(out / "synth.csv"), "--out", str(out)])
            code |= cli_main(["embed", "--config", str(cfg_path),
                              "--table", str(out / "synth.csv"),
                              "--checkpoint", str(out / "checkpoint.json"),
                              "--out", str(out)])
            assert code == 0
            return {name: (out / name).read_bytes()
                    for name in ("synth.csv", "checkpoint.json", "train_log.jsonl",
                                 "embeddings.csv")}

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "seed": 13,
            "format": {"date_column": "date", "label_columns": ["churn"]},
            "synth": {"n_customers": 120, "records_min": 3},
            "model": ENCODER_CONFIG,
            "train": {"epochs": 3, "batch_size": 32, "learning_rate": 3e-3},
            "tasks": ["churn"],
        }))
        first = pipeline(tmp_path / "a")
        second = pipeline(tmp_path / "b")
        assert first == second, "same-seed pipeline runs produced different bytes"

        # save -> load -> forward reproduces the original bit for bit
        from tabrep.table import TableFormat, load_table, order_records
        table = order_records(load_table(tmp_path / "a" / "synth.csv",
                                         TableFormat(date_column="date",
                                                     label_columns=("churn",))))
        model = CustomerEncoder.load(tmp_path / "a" / "checkpoint.json")
        reloaded = CustomerEncoder.load(tmp_path / "a" / "checkpoint.json")
        _, reps_a = model.represent(table)
        _, reps_b = reloaded.represent(table)
        assert reps_a.tobytes() == reps_b.tobytes()
        _, proba_a = model.predict_proba(table, "churn")
        _, proba_b = reloaded.predict_proba(table, "churn")
        assert proba_a.tobytes() == proba_b.tobytes()
        info["detail"] = "pipeline bytes identical, checkpoint forward bit-identical"


# ---- criterion 9: synth/profile closure ----------------------------------

def test_criterion_9_statistics_closure(tmp_path):
    with criterion(9, "synth/profile closure") as info:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "seed": 4242,
            "format": {"date_column": "date", "label_columns": ["churn"]},
            "synth": {"n_customers": 2000},
        }))
        assert cli_main(["synth", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
        assert cli_main(["profile", "--config", str(cfg_path),
                         "--table", str(tmp_path / "synth.csv"),
                         "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        ratio = stats["label_ratio"]["churn"]
        positive = ratio / (1.0 + ratio)
        config = SynthConfig(n_customers=2000)
        gaps = {
            "positive": abs(positive - config.positive_fraction),
            "missing": abs(stats["feature_missing_ratio"] - config.missing_rate),
            "structural": abs(stats["structural_missing_ratio"] - config.structural_rate),
        }
        for name, gap in gaps.items():
            assert gap <= 0.02, f"{name} ratio off by {gap:.3f}"
        info["detail"] = ("gaps " + ", ".join(f"{k} {v:.3f}" for k, v in gaps.items()))
