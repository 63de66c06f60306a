"""The fused sum-of-products kernel and the slacks and objectives built
on it.

``mul``, ``add`` and ``sub`` are kernel calls on every ring, so products are
checked first against oracles that share no code with the kernel: a POLY
convolution and SKEW word rewriting. Sums are then checked against
``_oracles.fold``, which adds those products (the payload product on the
scalar rings) to ``zero(ring)`` one by one
in ``Fraction`` arithmetic on the payloads, and the fused slacks,
objectives and cross term against the unfused compositions of the
``_oracles`` products ``mat_apply``, ``covec_apply`` and ``dot_left`` with
the oracle's entry-by-entry sums and negations. SKEW
pins check that each structural coefficient stays the left factor. RAT
and ODDRAT sums and comparisons are also checked against
plain ``Fraction`` arithmetic written here, with denominators up to 10^6,
and the sign of the kernel sum against the sign of the fold.
The feasibility verdicts, which build the point's slack once on every
ring, are checked against ``_oracles.feasibility_verdict_by_folds``, with
wide denominators too; on INT, RAT and ODDRAT so is the box scan's own
walk on the integer form, ``enumeration._feasible_walk``, at the point made
nonnegative and read as int keys over a common denominator. The guard
tests count calls through the module globals, so a slack that falls back
to an element per step or a trial that builds a slack twice shows up as a
count; the ``Fraction`` and ``RingElement``
guards count constructions. The guards on the scan's test (the first
broken line ends it; no slack, ``Fraction`` or element per point) are in
``test_enumeration.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given

import ringlp.affine as affine
import ringlp.rings as rings
from ringlp import (
    DimensionMismatch,
    FeasibilityVerdict,
    ProgramData,
    RingId,
    RingMismatch,
    SKEW_X,
    SKEW_Y,
    Sampler,
    ViolationKind,
    assert_weak_duality,
    compare,
    dual_slack,
    eval_f,
    eval_g,
    from_int,
    from_rational,
    gap,
    is_dual_feasible,
    is_primal_feasible,
    matrix,
    mul,
    neg,
    parse_element,
    primal_slack,
    sign,
    skew,
    sub,
    to_text,
    vector,
    zero,
)
from ringlp.enumeration import _feasible_walk, integer_form
from ringlp.rings import sum_of_products

from _oracles import (
    covec_apply,
    dot_left,
    feasibility_verdict_by_folds,
    fold,
    mat_apply,
    poly_mul_by_convolution,
    skew_mul_by_rewriting,
    negation_by_fractions,
    sum_of_products_by_fold,
    termwise_by_fractions,
    vec_add,
    vec_sub,
)
from _strategies import elements
from conftest import ALL_RINGS, counting_constructions, int_matrix, int_vector


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


@given(elements(RingId.POLY), elements(RingId.POLY))
def test_poly_mul_is_the_convolution(a, b):
    assert_same(mul(a, b), poly_mul_by_convolution(a, b))


@given(elements(RingId.SKEW), elements(RingId.SKEW))
def test_skew_mul_is_word_rewriting(a, b):
    assert_same(mul(a, b), skew_mul_by_rewriting(a, b))


TERM_RINGS = (RingId.POLY, RingId.SKEW)


def noncommuting_pair(ring):
    """An ``(a, b)`` of ``ring``; on SKEW, one with ``a * b != b * a``."""
    pair = st.tuples(elements(ring), elements(ring))
    if ring is RingId.SKEW:
        pair = pair.filter(lambda ab: skew_mul_by_rewriting(*ab) != skew_mul_by_rewriting(*ab[::-1]))
    return pair


@pytest.mark.parametrize("ring", TERM_RINGS)
def test_kernel_term_branch_equals_the_oracle_fold(ring):
    """The kernel's term branch, with its monomial products worked out
    inline, against a fold of products that share no code with it. On
    SKEW the first pair never commutes, so a product taken right to left
    shows."""

    @given(noncommuting_pair(ring), pairs(ring, 3), st.none() | elements(ring), st.booleans())
    def check(ab, lr, minus, negate):
        left, right = [ab[0], *lr[0]], [ab[1], *lr[1]]
        want = sum_of_products_by_fold(ring, left, right, minus, negate)
        assert_same(sum_of_products(ring, left, right, minus, negate), want)

    check()


@pytest.mark.parametrize("ring", TERM_RINGS)
def test_gap_equals_the_difference_of_the_objectives(ring):
    """``gap``, two kernel calls without ``d``, against ``g(y) - f(x)``. On
    SKEW, c_0 and x_0 do not commute, nor do y_0 and b_0. ``gap`` does not
    read A, so A is zero."""

    pair = noncommuting_pair(ring)

    @given(pair, pair, pairs(ring, 2), pairs(ring, 2), elements(ring))
    def check(cx, yb, more_cx, more_yb, d):
        c, x = [cx[0], *more_cx[0]], [cx[1], *more_cx[1]]
        y, b = [yb[0], *more_yb[0]], [yb[1], *more_yb[1]]
        A = matrix(ring, [[zero(ring)] * len(c) for _ in b])
        P = ProgramData(ring, A, vector(ring, b), vector(ring, c), d)
        x, y = vector(ring, x), vector(ring, y)
        assert_same(gap(P, x, y), sub(eval_g(P, y), eval_f(P, x)))

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_kernel_equals_the_fold(ring):
    @given(pairs(ring))
    def check(lr):
        left, right = lr
        assert_same(sum_of_products(ring, left, right), fold(ring, left, right))

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_constant_and_sign_equal_sub_and_neg(ring):
    @given(pairs(ring), elements(ring), st.booleans())
    def check(lr, minus, negate):
        left, right = lr
        want = sum_of_products_by_fold(ring, left, right, minus, negate)
        assert_same(sum_of_products(ring, left, right, minus, negate), want)
        assert_same(
            sum_of_products(ring, left, right, negate=negate),
            sum_of_products_by_fold(ring, left, right, negate=negate),
        )

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_linalg_products_equal_the_fold(ring):
    """A x, y A, c.x and y.b, the products linalg no longer computes, as
    the slacks and objectives compute them: each entry of t and s, and f
    and g, equals the oracle fold with its constant and sign."""

    @given(programs(ring))
    def check(data):
        P, x, y = data
        A, n = P.A, P.cols
        t, s = primal_slack(P, x), dual_slack(P, y)
        for j in range(P.rows):
            assert_same(t[j], sum_of_products_by_fold(ring, A.row(j), x, P.b[j], negate=True))
        for i in range(n):
            assert_same(s[i], sum_of_products_by_fold(ring, y, A.entries[i::n], P.c[i]))
        assert_same(eval_f(P, x), sum_of_products_by_fold(ring, P.c, x, P.d))
        assert_same(eval_g(P, y), sum_of_products_by_fold(ring, y, P.b, P.d))

    check()


@given(noncommuting_pair(RingId.SKEW), pairs(RingId.SKEW, 3))
def test_skew_objectives_keep_the_left_factor_on_the_left(ab, lr):
    """c.x in f and y.b in g keep c_i and y_j on the left: each equals the
    rewriting fold in that order, and equals the swapped order only where
    the folds do."""
    ring = RingId.SKEW
    u, v = [ab[0], *lr[0]], [ab[1], *lr[1]]

    def objectives(left, right):
        # f with c = left at x = right, and g with b = right at y = left
        zeros = matrix(ring, [[zero(ring)] * len(left)] * len(left))
        P = ProgramData(ring, zeros, vector(ring, right), vector(ring, left), zero(ring))
        return eval_f(P, vector(ring, right)), eval_g(P, vector(ring, left))

    f, g = objectives(u, v)
    assert f == g == fold(ring, u, v)
    assert (f == objectives(v, u)[0]) == (fold(ring, u, v) == fold(ring, v, u))


def test_skew_slacks_and_objectives_pin_the_order_of_factors():
    """With A = [x] and b, c, d zero, A x at x = [y] is x*y = (1/2)yx, so
    t = -(1/2)yx, and y A at y = [y] is yx = s. With c = [x], b = [y], f
    at x = [y] and g at y = [x] are both x*y = (1/2)yx; swapped, yx."""
    ring = RingId.SKEW
    half_yx, yx = skew({(1, 1): Fraction(1, 2)}), skew({(1, 1): 1})
    zero1 = int_vector(ring, [0])
    P = ProgramData(ring, matrix(ring, [[SKEW_X]]), zero1, zero1, zero(ring))
    assert primal_slack(P, vector(ring, [SKEW_Y])) == vector(ring, [neg(half_yx)])
    assert dual_slack(P, vector(ring, [SKEW_Y])) == vector(ring, [yx])
    for c, b, want in ((SKEW_X, SKEW_Y, half_yx), (SKEW_Y, SKEW_X, yx)):
        Q = ProgramData(ring, matrix(ring, [[zero(ring)]]), vector(ring, [b]), vector(ring, [c]), zero(ring))
        assert eval_f(Q, vector(ring, [b])) == want
        assert eval_g(Q, vector(ring, [c])) == want


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


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_constant_from_another_ring_raises(ring):
    other = RingId.SKEW if ring is not RingId.SKEW else RingId.INT
    with pytest.raises(RingMismatch):
        sum_of_products(ring, [], [], from_int(other, 1))


def test_unequal_lengths_raise():
    with pytest.raises(ValueError):
        sum_of_products(RingId.INT, [from_int(RingId.INT, 1)], [])


# ---------------------------------------------------------------------------
# RAT and ODDRAT against plain Fraction arithmetic, with wide denominators

FRACTION_RINGS = [RingId.RAT, RingId.ODDRAT]
PRIMES_NEAR_A_MILLION = (999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983)
wide_numerators = st.integers(-(10**6), 10**6)


def wide_denominators(ring):
    dens = st.one_of(st.integers(1, 10**6), st.sampled_from(PRIMES_NEAR_A_MILLION))
    return dens.map(lambda d: d | 1) if ring is RingId.ODDRAT else dens


def wide_fractions(ring):
    return st.builds(Fraction, wide_numerators, wide_denominators(ring))


def shared_denominator_run(n):
    """(left, right): left over one prime denominator, right integers, so
    every product has the same denominator."""
    return st.sampled_from(PRIMES_NEAR_A_MILLION).flatmap(
        lambda p: st.tuples(
            st.lists(
                wide_numerators.filter(lambda k: k % p).map(lambda k: Fraction(k, p)),
                min_size=n,
                max_size=n,
            ),
            st.lists(wide_numerators.map(Fraction), min_size=n, max_size=n),
        )
    )


def wide_terms(ring):
    """(left, right) Fraction lists of one length, from 0 to 5."""
    return st.integers(0, 5).flatmap(
        lambda n: st.one_of(
            st.tuples(
                st.lists(wide_fractions(ring), min_size=n, max_size=n),
                st.lists(wide_fractions(ring), min_size=n, max_size=n),
            ),
            shared_denominator_run(n),
        )
    )


def embed(ring, qs):
    return [from_rational(ring, q) for q in qs]


@pytest.mark.parametrize("ring", FRACTION_RINGS)
def test_fraction_kernel_equals_plain_fraction_arithmetic(ring):
    @given(wide_terms(ring), st.none() | wide_fractions(ring), st.booleans())
    def check(terms, minus, negate):
        left, right = terms
        want = sum((p * q for p, q in zip(left, right)), Fraction(0)) - (minus or 0)
        got = sum_of_products(
            ring,
            embed(ring, left),
            embed(ring, right),
            None if minus is None else from_rational(ring, minus),
            negate,
        ).payload
        assert type(got) is Fraction
        assert got == (-want if negate else want)
        if ring is RingId.ODDRAT:
            assert got.denominator % 2 == 1

    check()


@pytest.mark.parametrize("ring", FRACTION_RINGS)
def test_fraction_compare_equals_plain_fraction_order(ring):
    @given(wide_fractions(ring), wide_fractions(ring), wide_numerators)
    def check(p, q, k):
        # q and a value with p's denominator, each against p, and p against itself
        for r in (q, Fraction(k, p.denominator), p):
            want = (p > r) - (p < r)
            assert compare(from_rational(ring, p), from_rational(ring, r)) == want

    check()


def expected_error(ring, left, right, minus):
    """The error of a kernel call that checks ``minus`` first, then each
    pair in order, and the lengths when one side runs out."""
    if minus is not None and minus.ring is not ring:
        return RingMismatch
    for a, b in zip(left, right):
        if a.ring is not ring or b.ring is not ring:
            return RingMismatch
    return ValueError if len(left) != len(right) else None


def with_stranger(ring, left, right, at, where, other, extra):
    """(left, right, minus) with ``from_int(other, 1)`` put in as ``minus``
    (``at`` -1) or at index ``at`` of ``left``/``right`` (``where`` 0/1),
    and ``left`` one longer (``extra`` 1) or ``right`` one shorter (-1)."""
    minus = None
    stranger = from_int(other, 1)
    if at == -1:
        minus = stranger
    elif where < 2 and at < len(left):
        (left, right)[where][at] = stranger
    if extra > 0:
        left.append(zero(ring))
    elif extra < 0 and right:
        right.pop()
    return left, right, minus


@pytest.mark.parametrize("ring", FRACTION_RINGS)
def test_fraction_kernel_raises_at_the_same_inputs(ring):
    foreign = st.sampled_from([r for r in (RingId.INT, *FRACTION_RINGS) if r is not ring])

    @given(wide_terms(ring), st.integers(-1, 5), st.integers(0, 2), foreign, st.integers(-1, 1))
    def check(terms, at, where, other, extra):
        left, right = (embed(ring, side) for side in terms)
        left, right, minus = with_stranger(ring, left, right, at, where, other, extra)
        got = outcome(sum_of_products, ring, left, right, minus)
        want = expected_error(ring, left, right, minus)
        assert (got if isinstance(got, type) else None) is want

    check()


# ---------------------------------------------------------------------------
# the sign of the kernel sum against the sign of the folded sum


def sign_terms(ring):
    """(left, right, minus) for the kernel: up to five pairs of wide
    RAT/ODDRAT fractions (coprime denominators up to 10^6), up to four
    pairs of other elements, and ``minus`` a drawn element or ``None``."""
    if ring in FRACTION_RINGS:
        terms = wide_terms(ring).map(lambda t: (embed(ring, t[0]), embed(ring, t[1])))
        minus = wide_fractions(ring).map(lambda q: from_rational(ring, q))
    else:
        terms, minus = pairs(ring), elements(ring)
    return st.tuples(terms, st.none() | minus)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_kernel_with_minus_and_negate_equals_the_fold(ring):
    """``sign(sum_of_products(...))``, the sign POLY and SKEW verdicts
    read, equals the sign of the folded sum, exact zeros included."""

    @given(sign_terms(ring), st.booleans(), st.booleans())
    def check(terms, cancel, negate):
        (left, right), minus = terms
        if cancel:  # minus is the sum itself, so the sign is 0
            minus = fold(ring, left, right)
        want = sum_of_products_by_fold(ring, left, right, minus, negate)
        got = sum_of_products(ring, left, right, minus, negate)
        assert_same(got, want)
        assert sign(got) == sign(want)
        if cancel:
            assert sign(got) == 0

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_kernel_raises_at_the_same_inputs(ring):
    foreign = st.sampled_from([r for r in ALL_RINGS if r is not ring])

    @given(pairs(ring), st.integers(-1, 5), st.integers(0, 2), foreign, st.integers(-1, 1))
    def check(terms, at, where, other, extra):
        left, right = (list(side) for side in terms)
        left, right, minus = with_stranger(ring, left, right, at, where, other, extra)
        got = outcome(sum_of_products, ring, left, right, minus)
        want = expected_error(ring, left, right, minus)
        assert (got if isinstance(got, type) else None) is want

    check()


# ---------------------------------------------------------------------------
# fused slacks, objectives and cross term against the unfused compositions


def unfused_primal_slack(P, x):
    return vec_sub(P.b, mat_apply(P.A, x))


def unfused_dual_slack(P, y):
    return vec_sub(covec_apply(y, P.A), P.c)


def unfused_f(P, x):
    return termwise_by_fractions(dot_left(P.c, x), P.d, True)


def unfused_g(P, y):
    return termwise_by_fractions(dot_left(y, P.b), P.d, True)


def unfused_cross(s, x, y, t):
    return termwise_by_fractions(dot_left(s, x), dot_left(y, t), False)


def nonneg(e):
    return negation_by_fractions(e) if sign(e) < 0 else e


def programs(ring):
    """(P, x, y): a random program over ``ring`` with points of its shape."""

    def around(data):
        rows, x, y = data
        m, n = len(rows), len(x)
        return st.tuples(
            st.lists(elements(ring), min_size=m, max_size=m),
            st.lists(elements(ring), min_size=n, max_size=n),
            elements(ring),
        ).map(
            lambda bcd: (
                ProgramData(
                    ring, matrix(ring, rows), vector(ring, bcd[0]), vector(ring, bcd[1]), bcd[2]
                ),
                vector(ring, x),
                vector(ring, y),
            )
        )

    return matrices(ring).flatmap(around)


def assert_same_vector(got, want):
    assert got.ring is want.ring and len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)


def feasible_variant(P, x, y):
    """(P', x', y'): x, y and the slack noise made nonnegative, and b, c
    set to A x' + noise and y' A - noise, so the pair is feasible."""
    ring = P.ring
    x, y = vector(ring, map(nonneg, x)), vector(ring, map(nonneg, y))
    b = vec_add(mat_apply(P.A, x), vector(ring, map(nonneg, P.b)))
    c = vec_sub(covec_apply(y, P.A), vector(ring, map(nonneg, P.c)))
    return ProgramData(ring, P.A, b, c, P.d), x, y


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_fused_slacks_objectives_and_cross_term_equal_the_unfused(ring):
    @given(programs(ring))
    def check(data):
        P, x, y = data
        t, s = primal_slack(P, x), dual_slack(P, y)
        assert_same_vector(t, unfused_primal_slack(P, x))
        assert_same_vector(s, unfused_dual_slack(P, y))
        assert_same(eval_f(P, x), unfused_f(P, x))
        assert_same(eval_g(P, y), unfused_g(P, y))
        assert_same(
            sum_of_products(ring, s.entries + y.entries, x.entries + t.entries),
            unfused_cross(s, x, y, t),
        )
        F, x, y = feasible_variant(P, x, y)
        cross = unfused_cross(unfused_dual_slack(F, y), x, y, unfused_primal_slack(F, x))
        report = assert_weak_duality(F, x, y)
        assert report.applicable and report.passed
        assert report.details[1] == f"s.x + y.t = {to_text(cross)}"

    check()


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error type is what is compared
        return type(exc)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_fused_and_unfused_raise_the_same_errors(ring):
    other = RingId.SKEW if ring is not RingId.SKEW else RingId.INT
    P = ProgramData(
        ring,
        int_matrix(ring, [[1, 2, 3], [4, 5, 6]]),
        int_vector(ring, [1, 2]),
        int_vector(ring, [1, 2, 3]),
        zero(ring),
    )
    cases = [
        (primal_slack, unfused_primal_slack, P.cols),
        (dual_slack, unfused_dual_slack, P.rows),
        (eval_f, unfused_f, P.cols),
        (eval_g, unfused_g, P.rows),
    ]
    for fused, unfused, length in cases:
        for point in (
            int_vector(ring, range(length - 1)),
            int_vector(ring, range(length + 1)),
            int_vector(other, range(length)),
            int_vector(other, range(length + 1)),
        ):
            got = outcome(fused, P, point)
            assert got in (RingMismatch, DimensionMismatch)
            assert got == outcome(unfused, P, point), (fused.__name__, point)


# ---------------------------------------------------------------------------
# feasibility verdicts against the whole slack built by folds


def scalar_or_wide(ring):
    """``elements(ring)``, mixed on INT with values up to 10^6 in size and
    on RAT and ODDRAT with denominators up to 10^6."""
    if ring in FRACTION_RINGS:
        return elements(ring) | wide_fractions(ring).map(lambda q: from_rational(ring, q))
    if ring is RingId.INT:
        return elements(ring) | wide_numerators.map(lambda k: from_int(ring, k))
    return elements(ring)


@st.composite
def verdict_cases(draw, ring):
    """(P, x, y): a 1-3 x 1-3 program whose rows and columns are each kept
    as drawn, zeroed (a zero slack entry), zeroed with a violated bound
    (b_j = -1, c_i = 1), or made tight at the drawn point (b_j = A_j x,
    c_i = y A^i, a zero slack entry with nonzero terms), so several entries
    can break at once; x and y are of its shape, and keep their drawn signs
    or are made nonnegative. Entries, d included, take either sign and
    come from ``scalar_or_wide``, so a point mixes small and wide
    denominators."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    element = scalar_or_wide(ring)
    modes = st.sampled_from(("drawn", "zero", "violated", "tight"))
    A = [[draw(element) for _ in range(n)] for _ in range(m)]
    b = [draw(element) for _ in range(m)]
    c = [draw(element) for _ in range(n)]
    x, y = (draw(st.lists(element, min_size=k, max_size=k)) for k in (n, m))
    if not draw(st.booleans()):
        x, y = list(map(nonneg, x)), list(map(nonneg, y))
    row_modes, col_modes = ([draw(modes) for _ in range(k)] for k in (m, n))
    for j, mode in enumerate(row_modes):
        if mode in ("zero", "violated"):
            A[j] = [zero(ring)] * n
            b[j] = from_int(ring, 0 if mode == "zero" else -1)
    for i, mode in enumerate(col_modes):
        if mode in ("zero", "violated"):
            for row in A:
                row[i] = zero(ring)
            c[i] = from_int(ring, 0 if mode == "zero" else 1)
    for j, mode in enumerate(row_modes):
        if mode == "tight":
            b[j] = fold(ring, A[j], x)
    for i, mode in enumerate(col_modes):
        if mode == "tight":
            c[i] = fold(ring, y, [row[i] for row in A])
    P = ProgramData(ring, matrix(ring, A), vector(ring, b), vector(ring, c), draw(element))
    return P, vector(ring, x), vector(ring, y)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_verdicts_equal_the_fold_oracle(ring):
    """The integer-table verdicts of INT, RAT and ODDRAT and the kernel-sum
    verdicts of POLY and SKEW against the whole slack built by folds, and
    the objectives against ``c.x - d`` and ``y.b - d`` by folds."""

    @given(verdict_cases(ring))
    def check(case):
        P, x, y = case
        for test, point, primal in ((is_primal_feasible, x, True), (is_dual_feasible, y, False)):
            got, want = test(P, point), feasibility_verdict_by_folds(P, point, primal)
            assert got == want
            assert got.as_dict() == want.as_dict()
        assert_same(eval_f(P, x), sum_of_products_by_fold(ring, P.c, x, P.d))
        assert_same(eval_g(P, y), sum_of_products_by_fold(ring, y, P.b, P.d))

    check()


@pytest.mark.parametrize("ring", [RingId.INT, *FRACTION_RINGS])
def test_scalar_verdicts_and_the_scan_test_equal_the_fold_oracle(ring):
    """On INT, RAT and ODDRAT, negative coordinates and wide denominators
    included: each feasibility test equals the fold oracle's verdict, index
    and kind included, and on the point made nonnegative, as every grid
    point is, the box scan's walk of a grid of the point's own keys over
    its G yields the point exactly when the oracle's verdict is
    ``feasible``."""

    @given(verdict_cases(ring))
    def check(case):
        P, x, y = case
        form = integer_form(P)
        for test, point, primal in ((is_primal_feasible, x, True), (is_dual_feasible, y, False)):
            assert test(P, point) == feasibility_verdict_by_folds(P, point, primal)
            grid_point = vector(ring, map(nonneg, point))
            want = feasibility_verdict_by_folds(P, grid_point, primal).feasible
            # the walk's encoding: keys k over G, on a grid of the point's keys
            payloads = [e.payload for e in grid_point.entries]
            G = lcm(*[q.denominator for q in payloads])
            keys = tuple(q.numerator * (G // q.denominator) for q in payloads)
            grid = (tuple(sorted(set(keys))), G, None)
            assert (keys in set(_feasible_walk(P, primal, grid, form))) is want

    check()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_verdicts_raise_where_the_fold_oracle_does(ring):
    """Points of any ring and of any length from 0 to 4, negative
    coordinates and wide denominators included, against a 2 x 3 program:
    the verdicts and objectives raise exactly where the folds do."""
    P = ProgramData(
        ring,
        int_matrix(ring, [[1, -2, 3], [-4, 5, -6]]),
        int_vector(ring, [1, -2]),
        int_vector(ring, [-1, 2, -3]),
        from_int(ring, -7),
    )
    points = st.sampled_from(ALL_RINGS).flatmap(
        lambda r: st.lists(scalar_or_wide(r), max_size=4).map(lambda es: vector(r, es))
    )

    @given(points)
    def check(point):
        for test, primal in ((is_primal_feasible, True), (is_dual_feasible, False)):
            assert outcome(test, P, point) == outcome(feasibility_verdict_by_folds, P, point, primal)
        assert outcome(eval_f, P, point) == outcome(unfused_f, P, point)
        assert outcome(eval_g, P, point) == outcome(unfused_g, P, point)

    check()


def test_alternating_programs_each_get_their_own_verdicts():
    """Calls that alternate between two programs, or between two equal but
    distinct ones, judge every program by its own data."""
    ring = RingId.RAT
    P1 = rat_program([[Fraction(1, 2), 2], [3, -1]], [3, Fraction(7, 3)])
    P2 = rat_program([[2, Fraction(1, 2)], [-1, 3]], [Fraction(7, 3), 3])
    twin = rat_program([[Fraction(1, 2), 2], [3, -1]], [3, Fraction(7, 3)])
    assert twin == P1 and twin is not P1
    grid = [from_rational(ring, Fraction(k, 3)) for k in range(7)]
    points = [vector(ring, [p, q]) for p in grid for q in grid]

    def verdicts(P):
        return [(is_primal_feasible(P, v), is_dual_feasible(P, v), eval_f(P, v), eval_g(P, v)) for v in points]

    def by_folds(P):
        return [
            (
                feasibility_verdict_by_folds(P, v, True),
                feasibility_verdict_by_folds(P, v, False),
                unfused_f(P, v),
                unfused_g(P, v),
            )
            for v in points
        ]

    assert by_folds(P1) != by_folds(P2)
    for P in (P1, P2, P1, twin, P1, twin, twin):
        assert verdicts(P) == by_folds(P)


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
    m, n = 2, 3
    sampler = Sampler(3)
    A = matrix(ring, [[sampler.sample(ring) for _ in range(n)] for _ in range(m)])
    x = vector(ring, [sampler.sample_nonneg(ring) for _ in range(n)])
    y = vector(ring, [sampler.sample_nonneg(ring) for _ in range(m)])
    P = ProgramData(ring, A, mat_apply(A, x), covec_apply(y, A), zero(ring))
    calls: dict = {}
    counting(monkeypatch, calls, affine, "primal_slack")
    counting(monkeypatch, calls, affine, "dual_slack")
    for module in (rings, affine):
        for name in ("sum_of_products", "mul", "add"):
            if hasattr(module, name):
                counting(monkeypatch, calls, module, name)
    report = assert_weak_duality(P, x, y)
    assert report.applicable and report.passed
    # one call per entry of t and s, then c.x and y.b for the gap, then the
    # cross term
    assert calls == {"primal_slack": 1, "dual_slack": 1, "sum_of_products": m + n + 3}


def test_poly_slacks_build_no_element_per_product(monkeypatch):
    ring = RingId.POLY
    sampler = Sampler(4)
    A = matrix(ring, [[sampler.sample(ring) for _ in range(3)] for _ in range(3)])
    b, c = (vector(ring, [sampler.sample(ring) for _ in range(3)]) for _ in "bc")
    P = ProgramData(ring, A, b, c, zero(ring))
    x, y = (vector(ring, [sampler.sample(ring) for _ in range(3)]) for _ in "xy")
    want = (vec_sub(b, mat_apply(A, x)), vec_sub(covec_apply(y, A), c))
    calls: dict = {}
    for module in (rings, affine):
        for name in ("mul", "add", "sub"):
            if hasattr(module, name):
                counting(monkeypatch, calls, module, name)
    assert (primal_slack(P, x), dual_slack(P, y)) == want
    assert calls == {}


def test_rat_slack_builds_one_fraction(monkeypatch):
    ring = RingId.RAT
    left = [from_rational(ring, 1, 2), from_rational(ring, -2, 3), from_rational(ring, 5)]
    right = [from_rational(ring, 3, 7), from_rational(ring, 4), from_rational(ring, -1, 5)]
    minus = from_rational(ring, 7, 4)
    want = sum_of_products_by_fold(ring, left, right, minus, negate=True)
    built = {"Fraction": 0, "RingElement": 0}
    counting_constructions(monkeypatch, built)
    got = sum_of_products(ring, left, right, minus=minus, negate=True)
    monkeypatch.undo()
    assert got == want
    assert built["Fraction"] == 1


def rat_program(rows, b):
    ring = RingId.RAT
    return ProgramData(
        ring,
        matrix(ring, [[from_rational(ring, q) for q in row] for row in rows]),
        vector(ring, [from_rational(ring, q) for q in b]),
        vector(ring, [from_int(ring, 1), from_int(ring, -1)]),
        zero(ring),
    )


def two_by_two(ring):
    return ProgramData(
        ring,
        int_matrix(ring, [[1, 2], [3, 4]]),
        int_vector(ring, [3, 7]),
        int_vector(ring, [1, 1]),
        zero(ring),
    )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_feasible_verdicts_are_one_shared_object(ring):
    P = two_by_two(ring)
    verdicts = [is_primal_feasible(P, int_vector(ring, x)) for x in ([1, 1], [0, 0])]
    verdicts += [is_dual_feasible(P, int_vector(ring, y)) for y in ([1, 0], [0, 1])]
    assert all(v.feasible for v in verdicts)
    assert all(v is verdicts[0] for v in verdicts)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_infeasible_verdicts_name_the_first_broken_line_and_its_kind(ring):
    """On every ring, points that break the same first line get equal
    verdicts naming that line and how it broke."""
    P = two_by_two(ring)
    # x = (4, 0) and (5, 0) break row 0; y = (0, 0) breaks column 0
    slack = [is_primal_feasible(P, int_vector(ring, x)) for x in ([4, 0], [5, 0])]
    slack.append(is_dual_feasible(P, int_vector(ring, [0, 0])))
    negative = [is_primal_feasible(P, int_vector(ring, [-1, 0]))]
    negative.append(is_dual_feasible(P, int_vector(ring, [-2, 1])))
    for verdicts, kind in (
        (slack, ViolationKind.SLACK_NEGATIVE),
        (negative, ViolationKind.NEGATIVE_VARIABLE),
    ):
        assert all(v == FeasibilityVerdict(False, 0, kind) for v in verdicts)
    assert slack[0] != negative[0]


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


def test_weak_duality_checks_each_point_before_its_signs():
    """A malformed point raises in ``assert_weak_duality`` as it does in the
    feasibility tests, even when a negative coordinate comes first."""
    ring = RingId.INT
    P = two_by_two(ring)
    x, y = int_vector(ring, [-1, 0, 5]), int_vector(ring, [-1])
    with pytest.raises(DimensionMismatch):
        is_primal_feasible(P, x)
    with pytest.raises(DimensionMismatch):
        assert_weak_duality(P, x, y)
    with pytest.raises(DimensionMismatch):
        assert_weak_duality(P, int_vector(ring, [0, 0]), y)
    with pytest.raises(RingMismatch):
        assert_weak_duality(P, int_vector(ring, [0, 0]), int_vector(RingId.RAT, [-1, 0]))
