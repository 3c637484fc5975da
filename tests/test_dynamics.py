import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrep import dynamics, numeric
from tabrep.dynamics import (TransformerParams, act_run, attention_weights,
                             coordinate_embedding, dynamic_embed, mhsa, pack, transformer_step)
from tabrep.errors import AllMaskedError, ShapeMismatchError
from tabrep.model import ModelConfig
from tabrep.numeric import Parameter, Tensor

from gradcheck import assert_gradients_match, scalarize
from oracles import padded_act_run


def small_config(**kwargs):
    defaults = dict(n_s=4, embed_dim=8, heads=2, t_max=3, dropout=0.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def init_params(config, seed=0):
    return TransformerParams.init(config, numeric.drawing(np.random.default_rng(seed)), "t")


def ref_layer_norm(x, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


# ---- parameters and input shapes -----------------------------------------

def test_projections_are_per_head_blocks_drawn_in_order():
    # the layout of the per-head matrices they replace, drawn the same way
    config = small_config(embed_dim=12, heads=3)
    params = TransformerParams.init(config, numeric.drawing(np.random.default_rng(7)), "t")
    rng = np.random.default_rng(7)
    shape = (config.embed_dim, config.head_dim)
    for w in (params.wq, params.wk, params.wv):
        blocks = [numeric.glorot_init(rng, shape) for _ in range(config.heads)]
        assert w.shape == (config.embed_dim, config.embed_dim)
        assert w.data.tobytes() == np.concatenate(blocks, axis=1).tobytes()
    wo = numeric.glorot_init(rng, (config.embed_dim, config.embed_dim))
    assert params.wo.data.tobytes() == wo.tobytes()
    assert [p.name for p in params.parameters()][:3] == ["t.wq", "t.wk", "t.wv"]


UNBATCHED_CALLS = {
    "_check_attention": lambda e, params, config, mask: dynamics._check_attention(e, config, mask),
    "mhsa": lambda e, params, config, mask: mhsa(e, params, config, mask=mask),
    "attention_weights": lambda e, params, config, mask: attention_weights(e, params, config,
                                                                           mask=mask),
    "act_run": lambda e, params, config, mask: act_run(e, params, config, mask=mask),
    "dynamic_embed": lambda e, params, config, mask: dynamic_embed(e, params.wd),
}


@pytest.mark.parametrize("name", list(UNBATCHED_CALLS))
def test_single_unbatched_sequence_is_rejected(name):
    config = small_config()
    params = init_params(config)
    e = Tensor(np.zeros((config.n_s, config.embed_dim)))
    with pytest.raises(ShapeMismatchError):
        UNBATCHED_CALLS[name](e, params, config, np.ones(config.n_s, dtype=bool))


# ---- coordinate embedding ------------------------------------------------

def test_coordinates_bit_identical_across_calls():
    a = coordinate_embedding(2, 6, 10)
    b = coordinate_embedding(2, 6, 10)
    assert a.tobytes() == b.tobytes()


def test_coordinate_rows_distinct_per_position():
    p = coordinate_embedding(1, 8, 16)
    for i in range(8):
        for j in range(i + 1, 8):
            assert not np.array_equal(p[i], p[j])


def test_time_shift_is_position_independent():
    d = coordinate_embedding(2, 5, 12) - coordinate_embedding(1, 5, 12)
    for i in range(1, 5):
        assert np.allclose(d[i], d[0], atol=1e-12)


def test_step_index_starts_at_one():
    with pytest.raises(ValueError):
        coordinate_embedding(0, 4, 8)


# ---- attention -----------------------------------------------------------

def test_single_position_attention_weight_is_one():
    config = small_config(n_s=1)
    params = init_params(config)
    e = Tensor(np.random.default_rng(1).normal(size=(1, 1, config.embed_dim)))
    w = attention_weights(e, params, config)
    assert np.allclose(w, 1.0, atol=1e-12)
    # with the sole softmax weight at 1 the output is (E Wv) mixed by Wo
    want = (e.data @ params.wv.data) @ params.wo.data
    assert np.allclose(mhsa(e, params, config).data, want, atol=1e-12)


def test_attention_rows_sum_to_one():
    config = small_config()
    params = init_params(config, seed=3)
    rng = np.random.default_rng(4)
    e = Tensor(rng.normal(size=(3, config.n_s, config.embed_dim)))
    mask = np.array([[True] * 4, [True, True, True, False], [True, False, False, False]])
    w = attention_weights(e, params, config, mask=mask)
    assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-6)
    # masked keys get exactly zero weight
    assert np.all(w[1, :, :, 3] == 0.0)
    assert np.all(w[2, :, :, 1:] == 0.0)


def test_two_position_single_head_matches_brute_force():
    config = ModelConfig(n_s=2, embed_dim=2, heads=1, t_max=1, dropout=0.0)
    params = init_params(config, seed=5)
    wq = np.array([[1.0, 0.5], [-0.5, 2.0]])
    wk = np.array([[0.3, -1.0], [1.0, 0.2]])
    wv = np.array([[2.0, 0.0], [0.0, -1.0]])
    wo = np.array([[1.0, 1.0], [0.0, 1.0]])
    params.wq.data[:] = wq
    params.wk.data[:] = wk
    params.wv.data[:] = wv
    params.wo.data[:] = wo
    e = np.array([[0.2, -0.4], [1.0, 0.3]])

    scores = (e @ wq) @ (e @ wk).T / np.sqrt(2.0)
    expw = np.exp(scores - scores.max(axis=1, keepdims=True))
    soft = expw / expw.sum(axis=1, keepdims=True)
    want = (soft @ (e @ wv)) @ wo

    got = mhsa(Tensor(e[None]), params, config).data[0]
    assert np.allclose(got, want, atol=1e-12)


def test_padded_values_cannot_leak_into_valid_rows():
    config = small_config()
    params = init_params(config, seed=7)
    rng = np.random.default_rng(8)
    base = rng.normal(size=(1, config.n_s, config.embed_dim))
    mask = np.array([[True, True, False, False]])

    altered = base.copy()
    altered[0, 2:] = rng.normal(size=(2, config.embed_dim)) * 100.0

    out_a = mhsa(Tensor(base), params, config, mask=mask).data
    out_b = mhsa(Tensor(altered), params, config, mask=mask).data
    assert out_a[0, :2].tobytes() == out_b[0, :2].tobytes()


def test_all_masked_sequence_rejected():
    config = small_config()
    params = init_params(config)
    e = Tensor(np.zeros((2, config.n_s, config.embed_dim)))
    mask = np.ones((2, config.n_s), dtype=bool)
    mask[1] = False
    with pytest.raises(AllMaskedError):
        mhsa(e, params, config, mask=mask)


def test_mhsa_gradcheck():
    config = small_config(n_s=3)
    params = init_params(config, seed=11)
    rng = np.random.default_rng(12)
    e = Parameter(rng.normal(size=(1, 3, config.embed_dim)), name="e")
    mask = np.array([[True, True, False]])
    w = rng.normal(size=(1, 3, config.embed_dim))

    def fn():
        return scalarize(mhsa(e, params, config, mask=mask), w)

    assert_gradients_match(fn, [e, params.wq, params.wk, params.wv, params.wo])


# ---- one refinement step -------------------------------------------------

def test_step_deterministic_in_eval_mode():
    config = small_config()
    params = init_params(config, seed=13)
    e = Tensor(np.random.default_rng(14).normal(size=(1, config.n_s, config.embed_dim)))
    a = transformer_step(e, 1, params, config).data
    b = transformer_step(e, 1, params, config).data
    assert a.tobytes() == b.tobytes()


def test_step_preserves_shape():
    for n_s, n_e, k in [(2, 4, 1), (5, 12, 3), (8, 32, 4)]:
        config = ModelConfig(n_s=n_s, embed_dim=n_e, heads=k, dropout=0.0)
        params = init_params(config)
        e = Tensor(np.zeros((3, n_s, n_e)))
        assert transformer_step(e, 2, params, config).shape == (3, n_s, n_e)


def test_zero_weights_reduce_to_double_layer_norm():
    config = small_config()
    params = init_params(config, seed=15)
    for p in params.parameters():
        p.data[:] = 0.0
    e = np.random.default_rng(16).normal(size=(1, config.n_s, config.embed_dim))
    coords = coordinate_embedding(1, config.n_s, config.embed_dim)
    want = ref_layer_norm(ref_layer_norm(e + coords))
    got = transformer_step(Tensor(e), 1, params, config).data
    assert np.allclose(got, want, atol=1e-9)


def test_step_gradcheck():
    config = small_config(n_s=3)
    params = init_params(config, seed=17)
    rng = np.random.default_rng(18)
    e = Parameter(rng.normal(size=(1, 3, config.embed_dim)), name="e")
    w = rng.normal(size=(1, 3, config.embed_dim))

    def fn():
        return scalarize(transformer_step(e, 1, params, config), w)

    assert_gradients_match(fn, [e, params.ts_w1, params.ts_b2, params.wo])


# ---- adaptive refinement -------------------------------------------------

def test_strong_halt_bias_stops_after_one_step():
    config = small_config()
    params = init_params(config, seed=19)
    params.halt_w.data[:] = 0.0
    params.halt_b.data[:] = 20.0          # sigmoid ~ 1 everywhere
    e0 = Tensor(np.random.default_rng(20).normal(size=(1, config.n_s, config.embed_dim)))
    final, ponder, stats = act_run(e0, params, config)
    assert np.all(stats.halt_steps == 1)
    want = transformer_step(e0, 1, params, config).data
    assert final.data.tobytes() == want.tobytes()


def test_near_zero_halting_probability_hits_the_cap():
    config = small_config(t_max=4)
    params = init_params(config, seed=21)
    params.halt_w.data[:] = 0.0
    params.halt_b.data[:] = -20.0         # sigmoid ~ 0 everywhere
    e0 = Tensor(np.random.default_rng(22).normal(size=(1, config.n_s, config.embed_dim)))
    _, _, stats = act_run(e0, params, config)
    assert np.all(stats.halt_steps == config.t_max)


def test_halt_steps_bounded_over_random_trials():
    config = small_config(t_max=4)
    rng = np.random.default_rng(23)
    for trial in range(100):
        params = init_params(config, seed=trial)
        e0 = Tensor(rng.normal(size=(1, config.n_s, config.embed_dim)))
        _, _, stats = act_run(e0, params, config)
        assert np.all(stats.halt_steps >= 1)
        assert np.all(stats.halt_steps <= config.t_max)


def test_halting_mass_accounting():
    config = small_config(t_max=4, act_epsilon=0.1)
    rng = np.random.default_rng(29)
    threshold = 1.0 - config.act_epsilon
    for trial in range(20):
        params = init_params(config, seed=100 + trial)
        e0 = Tensor(rng.normal(size=(1, config.n_s, config.embed_dim)))
        _, _, stats = act_run(e0, params, config)
        # mass before the halting step was below threshold, so total stays
        # under threshold + 1; capped positions can stop with less
        assert np.all(stats.accumulated < threshold + 1.0)
        uncapped = stats.halt_steps < config.t_max
        assert np.all(stats.accumulated[uncapped] >= threshold)


def test_padded_positions_excluded_and_zeroed():
    config = small_config()
    params = init_params(config, seed=31)
    e0 = Tensor(np.random.default_rng(32).normal(size=(1, config.n_s, config.embed_dim)))
    mask = np.array([[True, True, True, False]])
    final, _, stats = act_run(e0, params, config, mask=mask)
    assert stats.halt_steps[0, 3] == 0
    assert np.all(final.data[0, 3] == 0.0)
    assert np.all(stats.halt_steps[0, :3] >= 1)


def test_padded_positions_accumulate_no_halting_mass():
    config = small_config()
    params = init_params(config, seed=31)
    e = np.random.default_rng(32).normal(size=(2, config.n_s, config.embed_dim))
    mask = np.array([[True, True, True, False], [True, False, False, False]])
    _, _, stats = act_run(Tensor(e), params, config, mask=mask)
    assert np.all(stats.accumulated[~mask] == 0.0)
    assert np.all(stats.accumulated[mask] > 0.0)


def test_ponder_is_mean_steps_plus_mean_remainder():
    config = small_config()
    params = init_params(config, seed=34)
    e = np.random.default_rng(33).normal(size=(2, config.n_s, config.embed_dim))
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    _, ponder, stats = act_run(Tensor(e), params, config, mask=mask)
    assert float(ponder.data) == stats.mean_steps + stats.mean_remainder
    assert stats.mean_steps == stats.halt_steps.sum() / mask.sum()
    assert 0.0 <= stats.mean_remainder <= 1.0


def test_act_gradcheck_three_step_unrolled():
    config = small_config(n_s=3, t_max=3)
    params = init_params(config, seed=35)
    params.halt_b.data[:] = -1.0          # keep refinement running a few steps
    rng = np.random.default_rng(36)
    e0 = Parameter(rng.normal(size=(1, 3, config.embed_dim)), name="e0")
    mask = np.array([[True, True, False]])
    w = rng.normal(size=(1, 3, config.embed_dim))

    def fn():
        final, ponder, _ = act_run(e0, params, config, mask=mask)
        return scalarize(final, w) + ponder

    assert_gradients_match(
        fn, [e0, params.wq, params.wv, params.ts_w1, params.halt_w,
             params.halt_b, params.wo])


# ---- packing ---------------------------------------------------------------

# [b, n_s] window masks: lengths 1 to n_s, holes included
window_masks = st.integers(1, 8).flatmap(lambda n_s: st.lists(
    st.lists(st.booleans(), min_size=n_s, max_size=n_s).filter(any), min_size=1, max_size=12))


def reference_first_fit(lengths, n_s):
    """(row, first slot) per window: longest first, batch order among
    equals, each into the first row with room."""
    room, placed = [], {}
    for w in sorted(range(len(lengths)), key=lambda w: -lengths[w]):
        row = next((r for r, free in enumerate(room) if free >= lengths[w]), len(room))
        if row == len(room):
            room.append(n_s)
        placed[w] = (row, n_s - room[row])
        room[row] -= lengths[w]
    return placed, len(room)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=window_masks)
def test_pack_is_first_fit_decreasing_and_each_slot_a_distinct_place(rows):
    valid = np.array(rows)
    b, n_s = valid.shape
    packing = pack(valid)
    placed, n_rows = reference_first_fit(valid.sum(axis=1).tolist(), n_s)
    step = dynamics.SLOT_MULTIPLE // np.gcd(dynamics.SLOT_MULTIPLE, n_s)
    padded_rows = -(-n_rows // step) * step
    assert packing.segment.shape == (padded_rows if padded_rows <= b else n_rows, n_s)
    for w, (row, first) in placed.items():
        slots = np.flatnonzero(packing.segment[row] == w)
        assert slots.tolist() == list(range(first, first + valid[w].sum()))
        assert (packing.window[row, slots] == w).all()
        assert packing.position[row, slots].tolist() == np.flatnonzero(valid[w]).tolist()
    places = packing.window * n_s + packing.position
    assert len(np.unique(places)) == places.size
    assert (valid[packing.key] == (packing.segment >= 0)).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=window_masks, data=st.data())
def test_perturbing_one_packed_segment_leaves_the_others_bitwise_unchanged(rows, data):
    valid = np.array(rows)
    b, n_s = valid.shape
    config = small_config(n_s=n_s, t_max=4)
    params = init_params(config, seed=b)
    params.halt_b.data[:] = -1.0          # keep refinement running a few steps
    rng = np.random.default_rng(n_s)
    e = rng.normal(size=(b, n_s, config.embed_dim))
    victim = data.draw(st.integers(0, b - 1))
    altered = e.copy()
    altered[victim] += 3.0 * rng.normal(size=(n_s, config.embed_dim))
    final_a, _, stats_a = act_run(Tensor(e), params, config, mask=valid)
    final_b, _, stats_b = act_run(Tensor(altered), params, config, mask=valid)
    others = np.arange(b) != victim
    assert final_a.data[others].tobytes() == final_b.data[others].tobytes()
    assert stats_a.halt_steps[others].tolist() == stats_b.halt_steps[others].tolist()


# Packed and padded runs sum each attention row over the same exponentials in
# the same order, so the states agree bit for bit; the ponder term sums its
# halting mass over another layout and may move by a few ulps.
PONDER_ULPS = 4


@pytest.mark.parametrize("train", [False, True])
def test_packed_refinement_agrees_with_the_padded_oracle(train):
    config = ModelConfig(n_s=8, embed_dim=16, heads=2, t_max=4, dropout=0.2)
    rng = np.random.default_rng(51)
    for trial in range(10):
        params = init_params(config, seed=60 + trial)
        params.halt_b.data[:] = rng.uniform(-2.0, 1.0)
        b = int(rng.integers(1, 40))
        valid = rng.random((b, config.n_s)) < rng.uniform(0.2, 0.9)
        valid[np.arange(b), rng.integers(0, config.n_s, size=b)] = True
        e = Tensor(rng.normal(size=(b, config.n_s, config.embed_dim)))
        packed = act_run(e, params, config, mask=valid, train=train,
                         rng=np.random.default_rng(trial))
        padded = padded_act_run(e, params, config, mask=valid, train=train,
                                rng=np.random.default_rng(trial))
        assert packed[0].data.tobytes() == padded[0].data.tobytes()
        assert packed[2].halt_steps.tolist() == padded[2].halt_steps.tolist()
        assert packed[2].accumulated.tobytes() == padded[2].accumulated.tobytes()
        ponder = float(padded[1].data)
        assert abs(float(packed[1].data) - ponder) <= PONDER_ULPS * np.spacing(ponder)


def test_empty_packed_slots_take_no_attention_from_filled_ones():
    config = small_config(n_s=4)
    params = init_params(config, seed=52)
    segment = np.array([[0, 0, 1, -1]])
    w = attention_weights(Tensor(np.random.default_rng(53).normal(size=(1, 4, 8))),
                          params, config, mask=segment)
    assert np.all(w[0, :, :2, 2:] == 0.0) and np.all(w[0, :, 2, [0, 1, 3]] == 0.0)
    assert np.allclose(w.sum(axis=-1), 1.0)


# ---- final dynamic embedding --------------------------------------------

def test_zero_sequence_embeds_to_zero():
    wd = Tensor(np.random.default_rng(37).normal(size=(12, 4)))
    out = dynamic_embed(Tensor(np.zeros((2, 3, 4))), wd)
    assert np.all(out.data == 0.0)


def test_stacked_identity_blocks_give_row_mean():
    n_s, n_e = 4, 5
    e = np.random.default_rng(38).normal(size=(2, n_s, n_e))
    wd = Tensor(np.tile(np.eye(n_e), (n_s, 1)) / n_s)
    out = dynamic_embed(Tensor(e), wd)
    assert np.allclose(out.data, e.mean(axis=1), atol=1e-12)


def test_doubling_input_doubles_embedding():
    rng = np.random.default_rng(39)
    e = rng.normal(size=(1, 2, 6))
    wd = Tensor(rng.normal(size=(12, 3)))
    once = dynamic_embed(Tensor(e), wd).data
    twice = dynamic_embed(Tensor(2.0 * e), wd).data
    assert np.allclose(twice, 2.0 * once, atol=1e-12)


def test_flatten_width_must_match_mixer():
    wd = Tensor(np.zeros((10, 3)))
    with pytest.raises(ShapeMismatchError):
        dynamic_embed(Tensor(np.zeros((1, 3, 4))), wd)


def test_batched_embedding_matches_per_sequence():
    rng = np.random.default_rng(40)
    e = rng.normal(size=(3, 2, 6))
    wd = Tensor(rng.normal(size=(12, 5)))
    batched = dynamic_embed(Tensor(e), wd).data
    for i in range(3):
        single = dynamic_embed(Tensor(e[i:i + 1]), wd).data
        assert np.allclose(batched[i], single[0], atol=1e-12)
