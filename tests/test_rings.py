import pickle
from fractions import Fraction
from operator import ge, gt, le, lt

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from ringlp import (
    Magnitude,
    Ordering,
    ParseError,
    RingId,
    RingElement,
    RingMismatch,
    POLY_X,
    SKEW_X,
    SKEW_Y,
    Sampler,
    add,
    classify_magnitude,
    compare,
    descriptor,
    from_int,
    from_rational,
    is_central,
    is_zero,
    mul,
    neg,
    one,
    parse_element,
    poly,
    pretty,
    sign,
    skew,
    sub,
    to_text,
    try_invert,
    zero,
)

from ringlp.rings import reduced

from _oracles import (
    negation_by_fractions,
    product_by_fractions,
    skew_mul_by_rewriting,
    termwise_by_fractions,
)
from _strategies import elements
from conftest import ALL_RINGS


# ---------------------------------------------------------------------------
# skew products against the word-rewriting oracle


def test_skew_yx_is_already_normal():
    assert mul(SKEW_Y, SKEW_X) == skew({(1, 1): 1})


def test_skew_xy_picks_up_one_half():
    expected = skew_mul_by_rewriting(SKEW_X, SKEW_Y)
    assert expected == skew({(1, 1): Fraction(1, 2)})
    assert mul(SKEW_X, SKEW_Y) == expected


def test_skew_defining_relation_vanishes():
    two = from_int(RingId.SKEW, 2)
    relation = add(mul(two, mul(SKEW_X, SKEW_Y)), neg(mul(SKEW_Y, SKEW_X)))
    assert is_zero(relation)
    oracle = sub(
        mul(two, skew_mul_by_rewriting(SKEW_X, SKEW_Y)),
        skew_mul_by_rewriting(SKEW_Y, SKEW_X),
    )
    assert is_zero(oracle)


@given(elements(RingId.SKEW), elements(RingId.SKEW))
def test_skew_mul_matches_rewriting_oracle(a, b):
    assert mul(a, b) == skew_mul_by_rewriting(a, b)


def test_int_product():
    assert mul(from_int(RingId.INT, 2), from_int(RingId.INT, 3)) == from_int(
        RingId.INT, 6
    )


# ---------------------------------------------------------------------------
# sign and compare


def test_poly_sign_is_leading_coefficient():
    assert sign(sub(POLY_X, from_int(RingId.POLY, 1000000))) == 1


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_sign_of_zero(ring):
    assert sign(zero(ring)) == 0


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_is_zero_agrees_with_equality_to_zero(ring):
    sampler = Sampler(9)
    built = [from_int(ring, 0), sub(one(ring), one(ring))]
    for a in [*(sampler.sample(ring) for _ in range(300)), *built]:
        assert is_zero(a) is (a == zero(ring))
    assert is_zero(from_int(ring, 0))


def test_is_zero_on_the_zero_term_lists():
    assert is_zero(poly([0, 0])) and poly([0, 0]) == zero(RingId.POLY)
    assert is_zero(skew({})) and skew({}) == zero(RingId.SKEW)
    assert not is_zero(poly([0, 1])) and not is_zero(SKEW_X)


def test_skew_sign_uses_lex_greatest_monomial():
    # y*x^3 - y^2*x: the lex-greatest monomial is (2, 1) with coefficient -1
    el = skew({(1, 3): 1, (2, 1): -1})
    assert sign(el) == -1


def test_int_compare():
    assert compare(from_int(RingId.INT, 1), from_int(RingId.INT, 2)) is Ordering.LT


def test_poly_variable_dominates_large_constants():
    assert compare(POLY_X, from_int(RingId.POLY, 10**9)) is Ordering.GT


def test_skew_xy_below_yx():
    assert compare(mul(SKEW_X, SKEW_Y), mul(SKEW_Y, SKEW_X)) is Ordering.LT


# ---------------------------------------------------------------------------
# invertibility


def test_int_two_is_not_invertible():
    assert try_invert(from_int(RingId.INT, 2)) is None
    assert try_invert(from_int(RingId.INT, -1)) == from_int(RingId.INT, -1)


def test_rat_two_inverts():
    assert try_invert(from_rational(RingId.RAT, 2)) == from_rational(RingId.RAT, 1, 2)


def test_oddrat_inverses_need_odd_numerator():
    assert try_invert(from_rational(RingId.ODDRAT, 3, 5)) == from_rational(
        RingId.ODDRAT, 5, 3
    )
    assert try_invert(from_rational(RingId.ODDRAT, 2)) is None
    assert try_invert(from_rational(RingId.ODDRAT, 2, 5)) is None


def test_poly_and_skew_units_are_nonzero_constants():
    assert try_invert(POLY_X) is None
    assert try_invert(from_rational(RingId.POLY, 2, 3)) == from_rational(
        RingId.POLY, 3, 2
    )
    assert try_invert(SKEW_X) is None
    assert try_invert(from_rational(RingId.SKEW, -4)) == from_rational(
        RingId.SKEW, -1, 4
    )
    assert try_invert(zero(RingId.POLY)) is None


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_try_invert_soundness_on_samples(ring):
    sampler = Sampler(11)
    candidates = [sampler.sample(ring) for _ in range(200)]
    candidates += [one(ring), neg(one(ring))]  # units exist in every instance
    found = 0
    for a in candidates:
        u = try_invert(a)
        if u is not None:
            found += 1
            assert mul(u, a) == one(ring)
            assert mul(a, u) == one(ring)
    assert found >= 2


# ---------------------------------------------------------------------------
# centrality and magnitude


def test_centrality():
    assert is_central(from_rational(RingId.SKEW, 3, 4))
    assert not is_central(SKEW_X)
    assert not is_central(SKEW_Y)
    assert is_central(from_int(RingId.INT, 7))
    assert is_central(POLY_X)  # commutative ring: everything is central


def test_magnitude_classification():
    assert classify_magnitude(POLY_X) is Magnitude.INFINITE
    assert classify_magnitude(from_rational(RingId.RAT, 1, 7)) is Magnitude.FINITE
    assert classify_magnitude(mul(SKEW_X, SKEW_Y)) is Magnitude.INFINITE
    for ring in ALL_RINGS:
        assert classify_magnitude(zero(ring)) is Magnitude.ZERO


def test_infinite_elements_exceed_the_probe_bound():
    probe_poly = from_int(RingId.POLY, 2**64)
    probe_skew = from_int(RingId.SKEW, 2**64)
    assert compare(POLY_X, probe_poly) is Ordering.GT
    assert compare(neg(mul(SKEW_X, SKEW_Y)), neg(probe_skew)) is Ordering.LT


# ---------------------------------------------------------------------------
# canonical representation and the text grammar


def test_rat_canonical_reduction():
    assert from_rational(RingId.RAT, 2, 4) == from_rational(RingId.RAT, 1, 2)
    assert from_rational(RingId.RAT, 1, -2) == from_rational(RingId.RAT, -1, 2)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_constructors_reject_floats(ring):
    with pytest.raises(TypeError):
        from_int(ring, 2.7)
    with pytest.raises(TypeError):
        from_int(ring, 0.5)
    with pytest.raises(TypeError):
        from_rational(ring, 0.1)
    with pytest.raises(TypeError):
        from_rational(ring, 1, 2.0)
    with pytest.raises(TypeError):
        poly([0.1])
    with pytest.raises(TypeError):
        skew({(0, 0): "1/3"})
    with pytest.raises(TypeError):
        skew({(1.5, 0.7): 1})
    assert from_int(ring, 3) == from_rational(ring, Fraction(6, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda ring: from_int(ring, True),
        lambda ring: from_rational(ring, False),
        lambda ring: from_rational(ring, 1, True),
        lambda ring: poly([1, True]),
        lambda ring: skew({(0, 1): True}),
        lambda ring: skew({(True, 0): 1}),
    ],
)
@pytest.mark.parametrize("ring", ALL_RINGS)
def test_constructors_reject_bools(ring, build):
    """``bool`` is an ``int`` subclass, but never an element's integer."""
    with pytest.raises(TypeError):
        build(ring)


def test_oddrat_constructor_rejects_even_denominators():
    with pytest.raises(ValueError):
        from_rational(RingId.ODDRAT, 1, 2)
    # 2/6 reduces to 1/3, which is fine
    assert from_rational(RingId.ODDRAT, 2, 6) == from_rational(RingId.ODDRAT, 1, 3)


def test_poly_drops_zero_coefficients():
    assert poly([0, 0]) == zero(RingId.POLY)
    assert poly([1, 0, 0]) == from_int(RingId.POLY, 1)
    assert to_text(poly([0, 0, Fraction(1, 2)])) == "poly:0,0,1/2"


def test_skew_zero_is_empty_term_list():
    assert skew({}) == zero(RingId.SKEW)
    assert to_text(zero(RingId.SKEW)) == "skew:"
    assert to_text(mul(SKEW_Y, SKEW_X)) == "skew:1,1=1"


@pytest.mark.parametrize(
    "ring,text",
    [
        (RingId.INT, "-42"),
        (RingId.RAT, "-7/3"),
        (RingId.ODDRAT, "4/7"),
        (RingId.POLY, "poly:1,-1/2,0,3"),
        (RingId.SKEW, "skew:2,1=-1/2;0,0=3"),
        (RingId.SKEW, "skew:"),
        (RingId.SKEW, "skew:1024,1024=1"),
        (RingId.POLY, "poly:0"),
    ],
)
def test_grammar_round_trip(ring, text):
    assert to_text(parse_element(ring, text)) == text


def test_parse_normalizes_to_canonical_form():
    assert to_text(parse_element(RingId.RAT, "2/4")) == "1/2"
    assert to_text(parse_element(RingId.POLY, "poly:1,0")) == "poly:1"
    assert to_text(parse_element(RingId.SKEW, "skew:0,0=0")) == "skew:"


@pytest.mark.parametrize(
    "ring,bad",
    [
        (RingId.INT, "1/2"),
        (RingId.INT, "x"),
        (RingId.RAT, "1/0"),
        (RingId.ODDRAT, "1/2"),
        (RingId.ODDRAT, "3/6"),
        (RingId.POLY, "1"),
        (RingId.POLY, "poly:"),
        (RingId.SKEW, "skew:1=2"),
        (RingId.SKEW, "skew:1,1=1;1,1=2"),
        (RingId.SKEW, "poly:1"),
        (RingId.SKEW, "skew:1025,0=1"),
        (RingId.SKEW, "skew:0,0=1;0,1025=1"),
        (RingId.SKEW, "skew:1000000,2=1"),
        (RingId.INT, "5\n"),
        (RingId.RAT, "1/2\n"),
        (RingId.SKEW, "skew:0,0=1\n"),
        # more digits than int() converts (4,300 by default)
        pytest.param(RingId.INT, "-" + "7" * 5000, id="int-5000-digits"),
        pytest.param(RingId.RAT, "1/" + "7" * 5000, id="rat-5000-digits"),
        pytest.param(RingId.POLY, "poly:1,0," + "7" * 5000, id="poly-5000-digits"),
    ],
)
def test_parse_rejects_malformed_literals(ring, bad):
    with pytest.raises(ParseError):
        parse_element(ring, bad)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_sampled_round_trips(ring):
    sampler = Sampler(5)
    for _ in range(100):
        e = sampler.sample(ring)
        assert parse_element(ring, to_text(e)) == e


# ---------------------------------------------------------------------------
# structure


def test_cross_ring_arithmetic_rejected():
    with pytest.raises(RingMismatch):
        add(from_int(RingId.INT, 1), from_rational(RingId.RAT, 1))
    with pytest.raises(RingMismatch):
        mul(POLY_X, SKEW_X)
    with pytest.raises(RingMismatch):
        compare(from_int(RingId.INT, 1), from_int(RingId.RAT, 1))


def test_descriptors():
    table = {
        RingId.INT: (True, False, from_int(RingId.INT, 1), True),
        RingId.RAT: (True, True, None, True),
        RingId.ODDRAT: (True, False, None, True),
        RingId.POLY: (True, False, None, False),
        RingId.SKEW: (False, False, None, False),
    }
    for ring, (comm, div, smallest, enumerable) in table.items():
        d = descriptor(ring)
        assert d.is_commutative is comm
        assert d.is_division is div
        assert d.smallest_positive == smallest
        assert d.is_enumerable is enumerable
    # when the smallest positive exists, it is the multiplicative identity
    assert descriptor(RingId.INT).smallest_positive == one(RingId.INT)


def test_operator_sugar_matches_functions():
    a = from_rational(RingId.RAT, 3, 4)
    b = from_rational(RingId.RAT, 1, 4)
    assert a + b == one(RingId.RAT)
    assert a - b == from_rational(RingId.RAT, 1, 2)
    assert a * b == from_rational(RingId.RAT, 3, 16)
    assert -a == neg(a)
    assert b < a and a > b and a >= a and b <= b


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_ordering_operators_refuse_non_elements(ring):
    # like + - *, an ordering operator returns NotImplemented for a
    # non-element, so Python raises TypeError rather than AttributeError
    a = from_int(ring, 2)
    other = from_int(RingId.RAT if ring is RingId.INT else RingId.INT, 2)
    for op in (lt, le, gt, ge):
        for left, right in ((a, 3), (3, a), (a, None)):
            with pytest.raises(TypeError):
                op(left, right)
        with pytest.raises(RingMismatch):
            op(a, other)
    with pytest.raises(TypeError):
        sorted([a, 3])


def test_pretty_rendering():
    assert pretty(poly([1, Fraction(-1, 2), 0, 1])) == "x^3 - 1/2*x + 1"
    assert pretty(skew({(2, 1): 1, (0, 0): Fraction(-1, 2)})) == "y^2*x - 1/2"
    assert pretty(zero(RingId.SKEW)) == "0"
    # negative leading coefficient
    assert pretty(poly([1, Fraction(-1, 2), 0, -2])) == "-2*x^3 - 1/2*x + 1"
    assert pretty(skew({(3, 0): -1, (0, 2): 1, (0, 0): -1})) == "-y^3 + x^2 - 1"
    # +-1 coefficients drop the "1*" on x-only and y-only monomials
    assert pretty(poly([-1, 1])) == "x - 1"
    assert pretty(poly([0, -1, 1])) == "x^2 - x"
    assert pretty(skew({(1, 0): 1, (0, 1): -1})) == "y - x"
    assert pretty(SKEW_X) == "x"
    assert pretty(neg(SKEW_Y)) == "-y"
    # zero and constants keep their coefficient
    assert pretty(zero(RingId.POLY)) == "0"
    assert pretty(from_rational(RingId.POLY, -3, 4)) == "-3/4"
    assert pretty(from_int(RingId.SKEW, 5)) == "5"
    # the scalar rings print their canonical literal
    assert pretty(from_int(RingId.INT, -7)) == "-7"
    assert pretty(from_rational(RingId.RAT, -7, 3)) == "-7/3"
    assert pretty(from_rational(RingId.ODDRAT, 4, 7)) == "4/7"


# ---------------------------------------------------------------------------
# the kernel's Fraction constructor and its arithmetic on integer pairs


@given(n=st.integers(-(2**80), 2**80), d=st.integers(1, 2**80))
@example(n=0, d=7)
@example(n=-(2**64) - 6, d=4)
@example(n=2**64 * 3, d=3 * 2**64 + 3)
def test_reduced_builds_the_fraction_of_its_pair(n, d):
    got, want = reduced(n, d), Fraction(n, d)
    assert got == want and type(got) is Fraction
    assert hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert str(got) == str(want)
    back = pickle.loads(pickle.dumps(got))
    assert back == want and type(back) is Fraction
    flipped = reduced(-want.numerator, want.denominator, True)
    assert flipped == -want and hash(flipped) == hash(-want)


wide_rationals = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 10**6))
wide_odd_rationals = st.builds(
    Fraction, st.integers(-(2**70), 2**70), st.integers(0, 5 * 10**5).map(lambda k: 2 * k + 1)
)


def wide_elements(ring: RingId) -> st.SearchStrategy:
    """Elements with numerators past 2^64 and denominators up to 10^6."""
    if ring is RingId.INT:
        return st.integers(-(2**70), 2**70).map(lambda v: from_int(ring, v))
    if ring is RingId.RAT:
        return wide_rationals.map(lambda q: from_rational(ring, q))
    if ring is RingId.ODDRAT:
        return wide_odd_rationals.map(lambda q: from_rational(ring, q))
    if ring is RingId.POLY:
        return st.lists(wide_rationals, max_size=4).map(poly)
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), wide_rationals, max_size=4
    ).map(skew)


def assert_identical(got: RingElement, want: RingElement):
    """Equal elements whose payloads have the same types throughout."""
    assert got == want and hash(got) == hash(want)
    if type(want.payload) is tuple:
        assert [type(q) for _, q in got.payload] == [Fraction] * len(want.payload)
    else:
        assert type(got.payload) is type(want.payload)


@pytest.mark.parametrize("ring", ALL_RINGS)
@given(data=st.data())
def test_pair_arithmetic_equals_fraction_arithmetic(ring, data):
    """``add``, ``sub``, ``neg`` and ``mul`` against ``int``/``Fraction``
    arithmetic on the payloads, with ``b`` at times ``a`` or ``-a`` so that
    monomials cancel."""
    drawn = st.one_of(elements(ring), wide_elements(ring))
    a = data.draw(drawn)
    b = data.draw(st.one_of(drawn, st.just(a), st.just(negation_by_fractions(a))))
    assert_identical(add(a, b), termwise_by_fractions(a, b, False))
    assert_identical(sub(a, b), termwise_by_fractions(a, b, True))
    assert_identical(neg(a), negation_by_fractions(a))
    assert_identical(mul(a, b), product_by_fractions(a, b))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_elements_compare_and_hash_by_ring_and_payload(ring):
    a, twin = from_rational(ring, 3), parse_element(ring, to_text(from_rational(ring, 3)))
    assert a == twin and hash(a) == hash(twin) == hash((ring, a.payload))
    assert a != from_rational(ring, 5) and a != 3 and a != a.payload
    other = RingId.RAT if ring is RingId.INT else RingId.INT
    assert a != from_int(other, 3)
    assert len({a, twin, from_rational(ring, 5)}) == 2
