"""The fused sum-of-products kernel and the linalg products built on it.

Every result is checked against the fold ``acc = add(acc, mul(a, b))``
from ``zero(ring)``, which this file keeps as its own oracle, and SKEW
products against word rewriting. The guard tests count calls through the
module globals, so a product that falls back to an element per step, or a
trial that builds a slack twice, shows up as a count.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

import ringlp.affine as affine
import ringlp.linalg as linalg
import ringlp.rings as rings
from ringlp import (
    ProgramData,
    RingId,
    RingMismatch,
    Sampler,
    add,
    assert_weak_duality,
    covec_apply,
    dot_left,
    from_int,
    int_matrix,
    int_vector,
    mat_apply,
    matrix,
    mul,
    parse_element,
    to_text,
    vector,
    zero,
)
from ringlp.rings import sum_of_products

from _oracles import skew_mul_by_rewriting
from _strategies import elements
from conftest import ALL_RINGS


def fold(ring, left, right):
    """The element-per-step sum the kernel replaces."""
    acc = zero(ring)
    for a, b in zip(left, right):
        acc = add(acc, mul(a, b))
    return acc


def assert_same(got, want):
    assert got == want
    assert type(got.payload) is type(want.payload)
    assert parse_element(got.ring, to_text(got)) == got


def pairs(ring, max_size=4):
    return st.integers(0, max_size).flatmap(
        lambda n: st.tuples(
            st.lists(elements(ring), min_size=n, max_size=n),
            st.lists(elements(ring), min_size=n, max_size=n),
        )
    )


def matrices(ring):
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(elements(ring), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
            st.lists(elements(ring), min_size=shape[1], max_size=shape[1]),
            st.lists(elements(ring), min_size=shape[0], max_size=shape[0]),
        )
    )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_kernel_equals_the_fold(ring):
    @given(pairs(ring))
    def check(lr):
        left, right = lr
        assert_same(sum_of_products(ring, left, right), fold(ring, left, right))

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_linalg_products_equal_the_fold(ring):
    @given(matrices(ring))
    def check(data):
        rows, x, y = data
        A = matrix(ring, rows)
        Ax = mat_apply(A, vector(ring, x))
        yA = covec_apply(vector(ring, y), A)
        for j, row in enumerate(rows):
            assert_same(Ax[j], fold(ring, row, x))
        for i in range(len(x)):
            assert_same(yA[i], fold(ring, y, [row[i] for row in rows]))
        assert_same(dot_left(vector(ring, x), vector(ring, x[::-1])), fold(ring, x, x[::-1]))

    check()


@given(pairs(RingId.SKEW))
def test_skew_dot_left_keeps_the_left_factor_on_the_left(lr):
    u, v = (vector(RingId.SKEW, side) for side in lr)
    by_rewriting = zero(RingId.SKEW)
    for a, b in zip(u, v):
        by_rewriting = add(by_rewriting, skew_mul_by_rewriting(a, b))
    assert dot_left(u, v) == by_rewriting
    commutes = fold(RingId.SKEW, u, v) == fold(RingId.SKEW, v, u)
    assert (dot_left(u, v) == dot_left(v, u)) == commutes


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_empty_sum_is_zero_with_its_payload_type(ring):
    assert_same(sum_of_products(ring, (), ()), zero(ring))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_mixed_rings_raise(ring):
    other = RingId.SKEW if ring is not RingId.SKEW else RingId.INT
    one_here, one_there = from_int(ring, 1), from_int(other, 1)
    with pytest.raises(RingMismatch):
        sum_of_products(ring, [one_here], [one_there])
    with pytest.raises(RingMismatch):
        sum_of_products(ring, [one_there], [one_here])
    with pytest.raises(RingMismatch):
        sum_of_products(other, [one_here], [one_here])


def test_unequal_lengths_raise():
    with pytest.raises(ValueError):
        sum_of_products(RingId.INT, [from_int(RingId.INT, 1)], [])


# ---------------------------------------------------------------------------
# guards: call counts through module globals


def counting(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_weak_duality_builds_each_slack_once(monkeypatch):
    ring = RingId.SKEW
    sampler = Sampler(3)
    A = matrix(ring, [[sampler.sample(ring) for _ in range(3)] for _ in range(2)])
    x = vector(ring, [sampler.sample_nonneg(ring) for _ in range(3)])
    y = vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)])
    P = ProgramData(ring, A, mat_apply(A, x), covec_apply(y, A), zero(ring))
    calls: dict = {}
    counting(monkeypatch, calls, affine, "mat_apply")
    counting(monkeypatch, calls, affine, "covec_apply")
    report = assert_weak_duality(P, x, y)
    assert report.applicable and report.passed
    assert calls == {"mat_apply": 1, "covec_apply": 1}


def test_poly_mat_apply_builds_no_element_per_product(monkeypatch):
    ring = RingId.POLY
    sampler = Sampler(4)
    A = matrix(ring, [[sampler.sample(ring) for _ in range(3)] for _ in range(3)])
    x = vector(ring, [sampler.sample(ring) for _ in range(3)])
    want = [fold(ring, A.row(j), x) for j in range(3)]
    calls: dict = {}
    for module in (rings, linalg):
        counting(monkeypatch, calls, module, "mul")
        counting(monkeypatch, calls, module, "add")
    assert list(mat_apply(A, x)) == want
    assert calls == {}


def test_infeasible_pair_details_are_unchanged():
    P = ProgramData(
        RingId.INT,
        int_matrix(RingId.INT, [[2]]),
        int_vector(RingId.INT, [1]),
        int_vector(RingId.INT, [1]),
        zero(RingId.INT),
    )
    report = assert_weak_duality(P, int_vector(RingId.INT, [1]), int_vector(RingId.INT, [-1]))
    assert (report.passed, report.applicable) == (True, False)
    assert report.details == (
        "not applicable: x is not primal-feasible; y is not dual-feasible",
    )
