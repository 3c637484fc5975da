import warnings

import numpy as np
import pytest

from tabrep import numeric
from tabrep.errors import (NonFiniteGradientError, NonScalarLossError,
                           NotRecordingError, ShapeMismatchError)
from tabrep.numeric import Parameter, Tensor

from gradcheck import assert_gradients_match, scalarize


def rnd(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---- forward values ------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    out = numeric.softmax(Tensor(np.zeros(3)))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = numeric.softmax(Tensor(rng.standard_normal((5, 7)) * 10), axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-6)
    assert np.all(out.data >= 0)


def test_layer_norm_constant_vector_is_zero():
    out = numeric.layer_norm(Tensor(np.full((4,), 3.7)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(1)
    out = numeric.layer_norm(Tensor(rng.standard_normal((3, 8)) * 5 + 2), axis=-1)
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


def test_matmul_hand_example():
    out = numeric.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        numeric.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


@pytest.mark.parametrize("op,a_shape,b_shape", [
    ("add", (2, 3), (4,)),
    ("add", (2, 3), (3, 3)),
    ("sub", (5,), (4,)),
    ("sub", (2, 1, 3), (4, 2)),
    ("mul", (3, 4), (3,)),
    ("mul", (2, 2, 4), (3, 1, 4)),
    ("matmul", (2, 3, 4), (3, 4, 5)),
    ("matmul", (2, 1, 3, 4), (3, 3, 4, 2)),
])
def test_broadcast_mismatch_reports_op_and_both_shapes(op, a_shape, b_shape):
    fn = getattr(numeric, op)
    with pytest.raises(ShapeMismatchError) as exc:
        fn(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))
    assert str(exc.value) == f"{op}: incompatible shapes {a_shape} vs {b_shape}"
    assert exc.value.shapes == (a_shape, b_shape)


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    out = numeric.dropout(x, 0.5, train=False)
    assert out.data is x.data or np.array_equal(out.data, x.data)


def test_dropout_train_mode_masks_and_rescales():
    rng = np.random.default_rng(2)
    x = Tensor(np.ones(10_000))
    out = numeric.dropout(x, 0.25, train=True, rng=rng)
    kept = out.data != 0
    assert abs(kept.mean() - 0.75) < 0.02
    assert np.allclose(out.data[kept], 1.0 / 0.75)


def test_max_first_argmax_tie_break():
    x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
    with numeric.recording():
        numeric.backward(numeric.tensor_sum(numeric.tensor_max(x, axis=1)))
    assert x.grad.tolist() == [[1.0, 0.0, 0.0]]


def test_masked_max_degenerate_slice_is_zero_without_gradient():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    mask = np.array([False, False])
    with numeric.recording():
        out = numeric.masked_max(x, mask, axis=0)
        assert out.data.tolist() == [0.0, 0.0]
        numeric.backward(numeric.tensor_sum(out))
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_masked_max_gradcheck():
    """One mask row per sequence of the batch, one of them with a single
    valid row."""
    rng = np.random.default_rng(17)
    e = Parameter(rng.normal(size=(2, 4, 3)), name="e")
    mask = np.array([[True, True, False, True], [True, False, False, False]])
    w = rng.normal(size=(2, 3))

    def fn():
        return scalarize(numeric.masked_max(e, mask, axis=-2), w)

    assert_gradients_match(fn, [e])


# ---- backward: spec examples --------------------------------------------

def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    with numeric.recording():
        numeric.backward(x * x)
    assert x.grad == pytest.approx(6.0)


def test_backward_relu_subgradient():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with numeric.recording():
        numeric.backward(numeric.tensor_sum(numeric.relu(x)))
    assert x.grad.tolist() == [0.0, 1.0]


def test_backward_matmul_softmax_composite():
    rng = np.random.default_rng(3)
    a = rnd(rng, 3, 3)
    b = rnd(rng, 3, 3)
    w = rng.standard_normal((3, 3))
    assert_gradients_match(
        lambda: scalarize(numeric.softmax(numeric.matmul(a, b), axis=-1), w), [a, b])


def test_backward_rejects_non_scalar_loss():
    with pytest.raises(NonScalarLossError):
        numeric.backward(Tensor(np.ones(3), requires_grad=True))


# ---- gradient check over every op, 20 random inputs each ----------------

def _op_cases(rng):
    """(name, tensor factory, graph builder) for every differentiable op."""
    return [
        ("add", lambda: (rnd(rng, 2, 3), rnd(rng, 2, 3)),
         lambda a, b: numeric.add(a, b)),
        ("add_broadcast", lambda: (rnd(rng, 2, 3), rnd(rng, 3)),
         lambda a, b: numeric.add(a, b)),
        ("add_constant_operand", lambda: (rnd(rng, 2, 3),),
         lambda a: numeric.add(Tensor(np.arange(6.0).reshape(2, 3)), a)),
        ("sub", lambda: (rnd(rng, 2, 3), rnd(rng, 2, 3)),
         lambda a, b: numeric.sub(a, b)),
        ("mul", lambda: (rnd(rng, 2, 3), rnd(rng, 2, 3)),
         lambda a, b: numeric.mul(a, b)),
        ("mul_broadcast", lambda: (rnd(rng, 2, 3), rnd(rng, 2, 1)),
         lambda a, b: numeric.mul(a, b)),
        ("mul_constant_operand", lambda: (rnd(rng, 2, 3),),
         lambda a: numeric.mul(a, Tensor(np.linspace(-1.0, 2.0, 6).reshape(2, 3)))),
        ("matmul", lambda: (rnd(rng, 2, 3), rnd(rng, 3, 4)),
         lambda a, b: numeric.matmul(a, b)),
        ("matmul_batched", lambda: (rnd(rng, 2, 3, 4), rnd(rng, 2, 4, 2)),
         lambda a, b: numeric.matmul(a, b)),
        ("matmul_constant_operand", lambda: (rnd(rng, 3, 4),),
         lambda b: numeric.matmul(Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3)), b)),
        ("concat", lambda: (rnd(rng, 2, 2), rnd(rng, 3, 2)),
         lambda a, b: numeric.concat([a, b], axis=0)),
        ("concat_negative_axis", lambda: (rnd(rng, 2, 3, 1), rnd(rng, 2, 3, 2)),
         lambda a, b: numeric.concat([a, b], axis=-1)),
        ("getitem", lambda: (rnd(rng, 4, 3),),
         lambda a: a[np.array([0, 2, 2]), np.array([1, 0, 2])]),
        ("reshape", lambda: (rnd(rng, 2, 6),),
         lambda a: numeric.reshape(a, (3, 4))),
        ("transpose", lambda: (rnd(rng, 2, 3, 4),),
         lambda a: numeric.transpose(a, (2, 0, 1))),
        ("transpose_last_two", lambda: (rnd(rng, 2, 3, 4),),
         lambda a: numeric.transpose(a, (0, 2, 1))),
        ("relu", lambda: (rnd(rng, 3, 3),),
         lambda a: numeric.relu(a)),
        ("sigmoid", lambda: (rnd(rng, 3, 3),),
         lambda a: numeric.sigmoid(a)),
        ("exp", lambda: (rnd(rng, 3, 3),),
         lambda a: numeric.exp(a)),
        ("log", lambda: (Tensor(rng.uniform(0.5, 3.0, (3, 3)), requires_grad=True),),
         lambda a: numeric.log(a)),
        ("softmax", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.softmax(a, axis=-1)),
        ("layer_norm", lambda: (rnd(rng, 3, 5),),
         lambda a: numeric.layer_norm(a, axis=-1)),
        ("sum", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_sum(a, axis=1)),
        ("sum_keepdims", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_sum(a, axis=1, keepdims=True)),
        ("mean", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_mean(a, axis=0)),
        ("mean_keepdims", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_mean(a, axis=0, keepdims=True)),
        ("max", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_max(a, axis=0)),
        ("max_keepdims", lambda: (rnd(rng, 3, 4),),
         lambda a: numeric.tensor_max(a, axis=-1, keepdims=True)),
        ("masked_max", lambda: (rnd(rng, 4, 3),),
         lambda a: numeric.masked_max(a, np.array([True, False, True, True]), axis=0)),
    ]


def test_every_op_matches_finite_differences():
    rng = np.random.default_rng(42)
    for name, make, build in _op_cases(rng):
        for trial in range(20):
            tensors = make()
            out_shape = build(*tensors).shape
            w = rng.standard_normal(out_shape)
            err = assert_gradients_match(lambda: scalarize(build(*tensors), w), tensors)
            assert err < 1e-3, f"{name} trial {trial}: {err}"


def test_only_recorded_ops_over_a_live_operand_get_a_backward_function():
    c1, c2 = Tensor(np.ones((2, 2))), Tensor(np.full((2, 2), 3.0))
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    constant_ops = (lambda: c1 + c2, lambda: numeric.matmul(c1, c2), lambda: numeric.relu(c1),
                    lambda: numeric.concat([c1, c2], axis=0),
                    lambda: numeric.tensor_max(c1, axis=0))
    live_ops = (lambda: c1 + x, lambda: x * c2, lambda: numeric.matmul(c1, x),
                lambda: numeric.concat([c1, x, c2], axis=1))
    # outside recording() every op is a plain leaf
    for op in constant_ops + live_ops:
        out = op()
        assert not out.requires_grad and out._backward_fn is None
    with numeric.recording():
        # an op over constants alone is a plain leaf
        for op in constant_ops:
            out = op()
            assert not out.requires_grad and out._backward_fn is None
        # with one grad-requiring operand, only that operand gets a gradient
        for op in live_ops:
            out = op()
            assert out.requires_grad and out._backward_fn is not None
            x.zero_grad()
            numeric.backward(numeric.tensor_sum(out))
            assert x.grad is not None and c1.grad is None and c2.grad is None
            assert not numeric._tape


def test_tensor_consumed_by_three_ops_gets_the_summed_gradient():
    # dyadic values: every partial sum is exact in any order
    x = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    with numeric.recording():
        numeric.backward(numeric.tensor_sum(x * 3.0 + x * x + numeric.relu(x)))
    assert x.grad.tolist() == [7.0, -1.0, 4.5]


def test_backward_outside_recording_raises():
    x = Tensor(np.array(3.0), requires_grad=True)
    with pytest.raises(NotRecordingError, match=r"numeric\.recording\(\)"):
        numeric.backward(x * x)
    assert x.grad is None


def test_dropout_gradient_with_pinned_mask():
    rng = np.random.default_rng(7)
    x = rnd(rng, 4, 4)
    w = rng.standard_normal((4, 4))

    def fn():
        mask_rng = np.random.default_rng(123)
        return scalarize(numeric.dropout(x, 0.5, train=True, rng=mask_rng), w)

    assert_gradients_match(fn, [x])


# ---- optimizer -----------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters():
    p = Parameter(np.array([1.0, 2.0]), name="p")
    opt = numeric.Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert p.data.tolist() == [1.0, 2.0]


def test_adam_moves_against_gradient():
    p = Parameter(np.array([0.0]), name="p")
    opt = numeric.Adam([p], lr=0.01)
    for _ in range(5):
        p.grad = np.array([3.0])
        opt.step()
    assert p.data[0] < 0


def test_adam_quadratic_bowl_converges():
    w = Parameter(np.array([10.0]), name="w")
    opt = numeric.Adam([w], lr=0.1)
    for _ in range(200):
        w.zero_grad()
        with numeric.recording():
            loss = (w - 2.0) * (w - 2.0)
            numeric.backward(numeric.tensor_sum(loss))
        opt.step()
    assert abs(w.data[0] - 2.0) < 1e-2


def test_adam_rejects_non_finite_gradient_and_names_parameter():
    p = Parameter(np.array([1.0]), name="culprit")
    opt = numeric.Adam([p])
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradientError) as exc:
        opt.step()
    assert "culprit" in str(exc.value)
    assert p.data.tolist() == [1.0]

    # a finite gradient whose update overflows the second parameter leaves
    # both parameters, the moments and the step count as they were
    a = Parameter(np.array([1.0]), name="a")
    b = Parameter(np.array([1e308]), name="culprit")
    opt = numeric.Adam([a, b], lr=1e308)
    a.grad, b.grad = np.array([1.0]), np.array([-1.0])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError) as exc:
        opt.step()
    assert "culprit" in str(exc.value)
    assert a.data.tolist() == [1.0] and b.data.tolist() == [1e308]
    assert opt.t == 0
    assert all(not m.any() for m in opt._m + opt._v)


def test_adam_overflow_raises_without_a_numpy_warning():
    # the update overflows; only the typed error reports it
    p = Parameter(np.array([1e308]), name="culprit")
    opt = numeric.Adam([p], lr=1e308)
    p.grad = np.array([-1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteGradientError):
            opt.step()

    # a finite gradient whose square overflows the second moment raises too,
    # although the parameter's update would be finite
    q = Parameter(np.array([1.0]), name="culprit")
    opt = numeric.Adam([q])
    q.grad = np.array([1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteGradientError):
            opt.step()
    assert q.data.tolist() == [1.0] and opt.t == 0


# ---- substreams ---------------------------------------------------------

def test_substreams_are_deterministic_and_distinct():
    a1 = numeric.substream(5, "init").standard_normal(4)
    a2 = numeric.substream(5, "init").standard_normal(4)
    b = numeric.substream(5, "batches").standard_normal(4)
    c = numeric.substream(6, "init").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


@pytest.mark.parametrize("width", [1, 2, 3, 8, numeric.ROW_MAX_CHAIN, numeric.ROW_MAX_CHAIN + 1])
def test_row_max_is_bitwise_numpy_max(width):
    """Masked entries, signed zeros and ties among them, in every order."""
    rng = np.random.default_rng(width)
    pool = np.array([-numeric.NEG_MASK_VALUE, 0.0, -0.0, 1.5, -1.5, 1.5, -2.0])
    x = rng.choice(pool, size=(64, 4, 8, width))
    x[0] = -0.0
    x[1] = -numeric.NEG_MASK_VALUE
    x[2, ..., ::2] = 0.0
    x[2, ..., 1::2] = -0.0
    for axis in (-1, 1):
        want = x.max(axis=axis, keepdims=True)
        got = numeric.row_max(x, axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_max_and_its_index_are_bitwise_argmax_and_take_along_axis():
    """Ties, signed zeros, infinities and NaN: the max's bits and the slot
    its gradient reaches are those of argmax + take_along_axis, for
    tensor_max and masked_max."""
    rng = np.random.default_rng(0)
    pool = np.array([-1.0, -0.0, 0.0, 1.0, 2.5, np.nan, -np.inf, np.inf])
    for _ in range(300):
        shape = list(rng.integers(1, 5, size=rng.integers(1, 5)))
        axis = int(rng.integers(len(shape)))
        shape[axis] = int(rng.integers(1, 6))
        x = rng.choice(pool, size=shape)
        idx = np.expand_dims(np.argmax(x, axis=axis), axis)
        want = np.take_along_axis(x, idx, axis=axis)

        g = rng.standard_normal(want.shape)
        routed = np.zeros(x.shape)
        np.put_along_axis(routed, idx, g, axis=axis)
        t = Tensor(x.copy(), requires_grad=True)
        with numeric.recording(), np.errstate(invalid="ignore"):    # inf - inf in the sum
            out = numeric.tensor_max(t, axis=axis, keepdims=True)
            numeric.backward(numeric.tensor_sum(out * Tensor(g)))
        assert out.data.tobytes() == want.tobytes() and np.array_equal(t.grad, routed)

        mask = rng.random(shape[:axis + 1]) < 0.7
        full = np.broadcast_to(mask.reshape(mask.shape + (1,) * (x.ndim - mask.ndim)), x.shape)
        masked = np.where(full, x, -np.inf)
        idx = np.expand_dims(np.argmax(masked, axis=axis), axis)
        valid = full.any(axis=axis, keepdims=True)
        want = np.where(valid, np.take_along_axis(masked, idx, axis=axis), 0.0)
        routed = np.zeros(x.shape)
        np.put_along_axis(routed, idx, np.where(valid, g, 0.0), axis=axis)
        t = Tensor(x.copy(), requires_grad=True)
        with numeric.recording(), np.errstate(invalid="ignore"):
            out = numeric.masked_max(t, mask, axis=axis, keepdims=True)
            numeric.backward(numeric.tensor_sum(out * Tensor(g)))
        assert out.data.tobytes() == want.tobytes() and np.array_equal(t.grad, routed)


def test_max_outside_recording_keeps_the_bits_of_the_recorded_max():
    """Ties of 0.0 and -0.0, infinities and NaN: outside `recording()`
    tensor_max and masked_max build no index and read the same bits."""
    rng = np.random.default_rng(1)
    pool = np.array([-1.0, -0.0, 0.0, 1.0, np.nan, -np.inf, np.inf])
    for _ in range(300):
        shape = list(rng.integers(1, 5, size=rng.integers(1, 5)))
        axis = int(rng.integers(len(shape)))
        shape[axis] = int(rng.integers(1, numeric.ROW_MAX_CHAIN + 3))
        x = Tensor(rng.choice(pool, size=shape), requires_grad=True)
        mask = rng.random(shape[:axis + 1]) < 0.7
        for op in (lambda: numeric.tensor_max(x, axis=axis),
                   lambda: numeric.masked_max(x, mask, axis=axis, keepdims=True)):
            with numeric.recording():
                recorded = op()
            plain = op()
            assert plain._backward_fn is None
            assert plain.data.tobytes() == recorded.data.tobytes()
