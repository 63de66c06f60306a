"""The containers of ``ringlp.linalg``, and the product oracles of
``tests/_oracles.py`` that took over ``mat_apply``, ``covec_apply``,
``dot_left`` and ``vec_add`` when linalg stopped doing arithmetic.

The slack and objective tests check the library against those folds, so
the folds are pinned here on hand-worked examples, SKEW's order of
factors included, and checked for linearity and their mismatch errors.
"""

from fractions import Fraction

import pytest

from ringlp import (
    DimensionMismatch,
    RMatrix,
    RVector,
    RingId,
    RingMismatch,
    SKEW_X,
    SKEW_Y,
    Sampler,
    add,
    from_int,
    from_rational,
    matrix,
    mul,
    poly,
    skew,
    vector,
)

from _oracles import covec_apply, dot_left, mat_apply, vec_add
from conftest import ALL_RINGS, COMMUTATIVE_RINGS, int_matrix, int_vector


def test_mat_apply_two_rows():
    A = int_matrix(RingId.INT, [[2], [-2]])
    x = int_vector(RingId.INT, [0])
    assert mat_apply(A, x) == int_vector(RingId.INT, [0, 0])


def test_mat_apply_identity():
    A = int_matrix(RingId.INT, [[1, 0], [0, 1]])
    x = int_vector(RingId.INT, [7, -3])
    assert mat_apply(A, x) == x


def test_mat_apply_skew_entry_left():
    A = matrix(RingId.SKEW, [[SKEW_X]])
    v = vector(RingId.SKEW, [SKEW_Y])
    # x*y rewrites to (1/2)*y*x
    assert mat_apply(A, v) == vector(RingId.SKEW, [skew({(1, 1): Fraction(1, 2)})])


def test_covec_apply_examples():
    A = int_matrix(RingId.INT, [[2], [-2]])
    y = int_vector(RingId.INT, [0, 0])
    assert covec_apply(y, A) == int_vector(RingId.INT, [0])

    a = poly([3, 1])
    assert covec_apply(vector(RingId.POLY, [from_int(RingId.POLY, 1)]), matrix(RingId.POLY, [[a]])) == vector(RingId.POLY, [a])

    assert covec_apply(
        vector(RingId.SKEW, [SKEW_Y]), matrix(RingId.SKEW, [[SKEW_X]])
    ) == vector(RingId.SKEW, [skew({(1, 1): 1})])


def test_dot_left_examples():
    b = from_rational(RingId.RAT, 5, 3)
    assert dot_left(
        vector(RingId.RAT, [from_int(RingId.RAT, 1)]), vector(RingId.RAT, [b])
    ) == b
    assert dot_left(
        int_vector(RingId.INT, [1, 2]), int_vector(RingId.INT, [3, 4])
    ) == from_int(RingId.INT, 11)


def test_dot_left_order_sensitivity_pinned_in_skew():
    u = vector(RingId.SKEW, [SKEW_X])
    v = vector(RingId.SKEW, [SKEW_Y])
    assert dot_left(u, v) == skew({(1, 1): Fraction(1, 2)})
    assert dot_left(v, u) == skew({(1, 1): 1})
    assert dot_left(u, v) != dot_left(v, u)


@pytest.mark.parametrize("ring", COMMUTATIVE_RINGS)
def test_dot_left_symmetric_on_commutative_rings(ring):
    sampler = Sampler(14)
    for _ in range(50):
        u = vector(ring, [sampler.sample(ring) for _ in range(3)])
        v = vector(ring, [sampler.sample(ring) for _ in range(3)])
        assert dot_left(u, v) == dot_left(v, u)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_one_by_one_products_agree_with_scalars(ring):
    sampler = Sampler(15)
    for _ in range(30):
        a = sampler.sample(ring)
        v = sampler.sample(ring)
        assert mat_apply(matrix(ring, [[a]]), vector(ring, [v])) == vector(
            ring, [mul(a, v)]
        )
        assert covec_apply(vector(ring, [v]), matrix(ring, [[a]])) == vector(
            ring, [mul(v, a)]
        )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_linearity_in_each_argument(ring):
    sampler = Sampler(16)
    for _ in range(20):
        A = matrix(ring, [[sampler.sample(ring) for _ in range(2)] for _ in range(2)])
        x1 = vector(ring, [sampler.sample(ring) for _ in range(2)])
        x2 = vector(ring, [sampler.sample(ring) for _ in range(2)])
        assert mat_apply(A, vec_add(x1, x2)) == vec_add(
            mat_apply(A, x1), mat_apply(A, x2)
        )
        y1 = vector(ring, [sampler.sample(ring) for _ in range(2)])
        y2 = vector(ring, [sampler.sample(ring) for _ in range(2)])
        assert covec_apply(vec_add(y1, y2), A) == vec_add(
            covec_apply(y1, A), covec_apply(y2, A)
        )
        assert dot_left(vec_add(x1, x2), y1) == add(
            dot_left(x1, y1), dot_left(x2, y1)
        )


def test_dimension_and_ring_mismatches():
    A = int_matrix(RingId.INT, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        mat_apply(A, int_vector(RingId.INT, [1]))
    with pytest.raises(DimensionMismatch):
        covec_apply(int_vector(RingId.INT, [1, 2]), A)
    with pytest.raises(DimensionMismatch):
        dot_left(int_vector(RingId.INT, [1]), int_vector(RingId.INT, [1, 2]))
    with pytest.raises(RingMismatch):
        dot_left(int_vector(RingId.INT, [1]), int_vector(RingId.RAT, [1]))
    with pytest.raises(RingMismatch):
        vector(RingId.INT, [from_int(RingId.RAT, 1)])
    with pytest.raises(DimensionMismatch):
        matrix(RingId.INT, [[from_int(RingId.INT, 1)], []])


def test_a_matrix_refuses_a_wrong_entry_count_and_no_rows_with_their_messages():
    with pytest.raises(DimensionMismatch) as raised:
        RMatrix(RingId.INT, 2, 2, (from_int(RingId.INT, 1),))
    assert str(raised.value) == "2x2 matrix needs 4 entries, got 1"
    with pytest.raises(DimensionMismatch) as raised:
        matrix(RingId.INT, [])
    assert str(raised.value) == "matrix needs at least one row"


@pytest.mark.parametrize(
    "entry, text",
    [(int_vector(RingId.INT, [1]), "RVector(int, [1])"), (3, "3")],
    ids=["vector", "int"],
)
def test_a_vector_refuses_an_entry_that_is_not_a_ring_element(entry, text):
    """An entry must be a ``RingElement``: a vector over the right ring is
    refused as one, and a plain ``int`` with a ``TypeError`` that names it."""
    with pytest.raises(TypeError) as raised:
        vector(RingId.INT, [entry])
    assert str(raised.value) == f"vector entry {text} is not a RingElement"


def test_a_mixed_entry_raises_in_the_vector():
    mixed = (from_int(RingId.INT, 0), from_int(RingId.RAT, 1))
    with pytest.raises(RingMismatch, match="vector over int contains rat entry"):
        RVector(RingId.INT, mixed)
