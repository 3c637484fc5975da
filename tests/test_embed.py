import numpy as np
import pytest

from tabrep import numeric
from tabrep.embed import categorical_embed, max_concat, positional_numeric_embed
from tabrep.errors import IdOutOfRangeError, LengthMismatchError
from tabrep.numeric import Parameter, Tensor

from gradcheck import assert_gradients_match, scalarize


def hand_table(rows):
    return Tensor(np.array(rows, dtype=np.float64))


# ---- categorical lookup --------------------------------------------------

def test_lookup_of_hand_set_rows():
    table = hand_table([[0, 0], [9, 9], [1, 2], [3, 4]])
    out = categorical_embed(np.array([2, 3]), table)
    assert np.array_equal(out.data, [[1, 2], [3, 4]])


def test_missing_id_reads_learned_row_not_zero():
    rng = np.random.default_rng(0)
    table = numeric.drawing(rng)("b.cat", (5, 4), numeric.embedding_init)
    out = categorical_embed(np.array([0]), table)
    assert np.array_equal(out.data[0], table.data[0])
    assert np.any(out.data[0] != 0.0)


def test_identical_ids_give_identical_rows():
    table = hand_table([[0.5, -1.0], [2.0, 2.0]])
    out = categorical_embed(np.array([1, 1]), table)
    assert np.array_equal(out.data[0], out.data[1])


def test_id_out_of_range():
    table = hand_table([[1.0, 2.0]])
    with pytest.raises(IdOutOfRangeError):
        categorical_embed(np.array([1]), table)
    with pytest.raises(IdOutOfRangeError):
        categorical_embed(np.array([-1]), table)


def test_lookup_gradient_accumulates_repeated_rows():
    table = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), name="t")
    with numeric.recording():
        numeric.backward(numeric.tensor_sum(categorical_embed(np.array([1, 1, 0]), table)))
    # row 1 picked twice, row 0 once
    assert np.array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0]])


# ---- position-based numerical embedding ----------------------------------

def test_zero_value_gives_zero_row():
    m = hand_table([[5.0, -3.0]])
    out = positional_numeric_embed(np.array([0.0]), m)
    assert np.array_equal(out.data, [[0.0, 0.0]])


def test_unit_value_gives_matrix_row():
    m = hand_table([[5.0, -3.0], [1.0, 1.0]])
    out = positional_numeric_embed(np.array([1.0, 1.0]), m)
    assert np.array_equal(out.data, m.data)


def test_half_value_scales_row():
    m = hand_table([[2.0, 4.0]])
    out = positional_numeric_embed(np.array([0.5]), m)
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linearity_in_values():
    rng = np.random.default_rng(3)
    m = hand_table(rng.normal(size=(4, 6)))
    v = rng.uniform(size=4)
    a = positional_numeric_embed(2.5 * v, m).data
    b = 2.5 * positional_numeric_embed(v, m).data
    assert np.allclose(a, b, atol=1e-12)


def test_value_length_must_match_rows():
    m = hand_table([[1.0], [2.0]])
    with pytest.raises(LengthMismatchError):
        positional_numeric_embed(np.array([1.0, 2.0, 3.0]), m)


def test_numeric_embed_gradcheck():
    rng = np.random.default_rng(7)
    m = Parameter(rng.normal(size=(3, 4)), name="m")
    v = Parameter(rng.uniform(0.1, 0.9, size=3), name="v")
    w = rng.normal(size=(3, 4))

    def fn():
        return scalarize(positional_numeric_embed(v, m), w)

    assert_gradients_match(fn, [m, v])


# ---- max-concatenation ---------------------------------------------------

def test_columnwise_max():
    e = hand_table([[1.0, 5.0], [3.0, 2.0]])
    assert max_concat(e).data.tolist() == [3.0, 5.0]


def test_single_row_passthrough():
    e = hand_table([[0.3, -0.7, 2.0]])
    assert max_concat(e).data.tolist() == [0.3, -0.7, 2.0]


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(11)
    e = rng.normal(size=(6, 5))
    base = max_concat(Tensor(e)).data
    for _ in range(10):
        perm = rng.permutation(6)
        shuffled = max_concat(Tensor(e[perm])).data
        assert shuffled.tobytes() == base.tobytes()


def test_output_dominates_rows_and_comes_from_rows():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(7, 4))
    out = max_concat(Tensor(e)).data
    assert np.all(out[None, :] >= e)
    for j in range(4):
        assert out[j] in e[:, j]


def test_tie_gradient_routes_to_first_row():
    e = Parameter(np.array([[2.0, 1.0], [2.0, 3.0]]), name="e")
    with numeric.recording():
        numeric.backward(numeric.tensor_sum(max_concat(e)))
    # column 0 ties at 2.0: gradient goes to row 0 only
    assert np.array_equal(e.grad, [[1.0, 0.0], [0.0, 1.0]])


def test_max_concat_gradcheck_off_ties():
    rng = np.random.default_rng(13)
    e = Parameter(rng.normal(size=(5, 3)), name="e")
    w = rng.normal(size=3)

    def fn():
        return scalarize(max_concat(e), w)

    assert_gradients_match(fn, [e])
