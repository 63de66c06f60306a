"""Seeded axiom suite, sampler contracts, and algebraic property tests."""

import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given

import ringlp.sampling as sampling
from ringlp import (
    AxiomViolation,
    RingId,
    Sampler,
    add,
    compare,
    from_int,
    from_rational,
    is_zero,
    mul,
    neg,
    parse_element,
    poly,
    sign,
    skew,
    sub,
    to_text,
    verify_order_axioms,
    zero,
)
from ringlp.sampling import (
    DEN_BOUND,
    INT_BOUND,
    POLY_MAX_DEGREE,
    SKEW_MAX_DEGREE,
    SKEW_MAX_TERMS,
)

from _oracles import ReferenceSampler
from _strategies import elements
from conftest import ALL_RINGS


# ---------------------------------------------------------------------------
# the seeded axiom suite


@pytest.mark.parametrize(
    "ring,samples,seed",
    [
        (RingId.INT, 1000, 42),
        (RingId.RAT, 1000, 42),
        (RingId.ODDRAT, 1000, 42),
        (RingId.POLY, 1000, 7),
        (RingId.SKEW, 1000, 42),
    ],
)
def test_axiom_suite_reports_no_violations(ring, samples, seed):
    report = verify_order_axioms(ring, samples, seed)
    assert report.passed
    assert report.violations == ()
    assert report.trichotomy_checks == 2 * samples
    assert report.closure_checks > 0


# each violation kind, forced by a mutant of the one operation its check
# reads from the sampling module's globals: name -> (kind, operation, mutant)
MUTANTS = {
    "trichotomy": ("trichotomy", "neg", lambda e: e),
    "additive-closure": ("additive-closure", "add", lambda a, b: neg(add(a, b))),
    "multiplicative-closure": ("multiplicative-closure", "mul", lambda a, b: neg(mul(a, b))),
    "multiplicative-closure-by-zero": ("multiplicative-closure", "mul", lambda a, b: zero(a.ring)),
}


@pytest.mark.parametrize("ring", ALL_RINGS)
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_axiom_suite_reports_each_violation_kind_with_its_witnesses(monkeypatch, ring, mutant):
    """The report lists, in sample order, every nonzero sample under a
    ``neg`` that returns its argument, and every positive pair under an
    ``add`` or ``mul`` that negates its result or a ``mul`` that returns
    zero, with their literals."""
    kind, name, operation = MUTANTS[mutant]
    replay = Sampler(5)
    want, positive_pairs = [], 0
    for _ in range(40):
        a, b = replay.sample(ring), replay.sample(ring)
        both_positive = sign(a) == 1 and sign(b) == 1
        positive_pairs += both_positive
        if kind == "trichotomy":
            want += [AxiomViolation(kind, (to_text(e),)) for e in (a, b) if sign(e)]
        elif both_positive:
            want.append(AxiomViolation(kind, (to_text(a), to_text(b))))
    monkeypatch.setattr(sampling, name, operation)
    report = verify_order_axioms(ring, 40, 5)
    assert want and not report.passed
    assert report.violations == tuple(want)
    assert (report.trichotomy_checks, report.closure_checks) == (80, positive_pairs)


def test_axiom_suite_rejects_nonpositive_sample_count():
    with pytest.raises(ValueError):
        verify_order_axioms(RingId.INT, 0, 1)
    assert verify_order_axioms(RingId.INT, 1, 1).sample_count == 1  # the least count


def test_axiom_suite_refuses_a_sample_count_past_100000_before_any_draw(monkeypatch):
    """The bound is accepted, which the first draw shows without drawing the
    samples; one past it is refused before any draw."""

    class Drawn(Exception):
        pass

    def first_draw(*args):
        raise Drawn

    monkeypatch.setattr(Sampler, "sample", first_draw)
    with pytest.raises(ValueError, match="^sample_count must be at most 100000$"):
        verify_order_axioms(RingId.INT, 100_001, 1)
    with pytest.raises(Drawn):
        verify_order_axioms(RingId.INT, 100_000, 1)


def test_axiom_suite_rejects_a_bool_sample_count():
    with pytest.raises(TypeError, match="sample_count must be an int"):
        verify_order_axioms(RingId.INT, True, 1)


# ---------------------------------------------------------------------------
# sampler contracts


def test_lcg_stream_is_documented():
    sampler = Sampler(0)
    sampler.draw_int(0, 0)  # one generator step
    assert sampler.state == 1442695040888963407
    sampler.draw_int(0, 0)
    assert sampler.state == (6364136223846793005 * 1442695040888963407 + 1442695040888963407) % 2**64


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_equal_seeds_give_identical_streams(ring):
    s1 = Sampler(123)
    s2 = Sampler(123)
    for _ in range(50):
        assert s1.sample(ring) == s2.sample(ring)


# sha256 of the first 300 draws per seed 0..4, recorded before the sampler's
# hot path was inlined. A changed digest means a changed seeded stream.
PINNED_STREAMS = {
    RingId.INT: "7fdeec5142f932a899056183af9659c5195deac75de4c9debd1723cc584d3506",
    RingId.RAT: "a60c22ca9f3a558bf3dda67d54863c3fd0b1f1ea6db205f640582bbee95de888",
    RingId.ODDRAT: "26cf313983d05534e0abcb52d3b345f9c8f17ee70867760440e8ee0cc8ea949d",
    RingId.POLY: "9c0eb9cda62df68bf093177527d7ecad55617eaba1c2b8f9a51320f463eba724",
    RingId.SKEW: "1d8e267ab8a8608ce0e0504da084e9e4e63d52eb0d353aaf0fc7e094d819fdec",
}
PINNED_INTS = "6eedd4fd66ed8957ad1bdbde5c74db20dca69a911a2361f7c16425e28a3239a4"


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_seeded_element_streams_are_pinned(ring):
    digest = hashlib.sha256()
    for seed in range(5):
        for method in ("sample", "sample_nonneg", "sample_central"):
            draw = getattr(Sampler(seed), method)
            for _ in range(300):
                e = draw(ring)
                # the payload's repr tells an int from a Fraction
                digest.update(f"{e.ring.value}|{e.payload!r}\n".encode())
    assert digest.hexdigest() == PINNED_STREAMS[ring]


@given(seed=st.integers(0, 2**64 - 1))
def test_sampled_streams_match_the_reference_sampler(seed):
    """Every payload of ``sample``, ``sample_nonneg`` and ``sample_central``
    on each ring, and the generator state after them, equal those of the
    sampler written from the module docstring."""
    for ring in ALL_RINGS:
        for method in ("sample", "sample_nonneg", "sample_central"):
            got, want = Sampler(seed), ReferenceSampler(seed)
            for _ in range(12):
                e, r = getattr(got, method)(ring), getattr(want, method)(ring)
                assert repr(e.payload) == repr(r.payload)
            assert got.state == want.state


def test_seeded_int_stream_is_pinned():
    digest = hashlib.sha256()
    for seed in range(5):
        s = Sampler(seed)
        for _ in range(300):
            draws = (s.draw_int(-1000, 1000), s.draw_int(1, 3), s.draw_int(0, 0))
            digest.update(("%d,%d,%d\n" % draws).encode())
    assert digest.hexdigest() == PINNED_INTS


def _rebuilt(e):
    """``e`` rebuilt from its own coefficients by the validating constructor."""
    if e.ring is RingId.INT:
        return from_int(e.ring, e.payload)
    if e.ring in (RingId.RAT, RingId.ODDRAT):
        return from_rational(e.ring, e.payload)
    coeffs = dict(e.payload)
    if e.ring is RingId.POLY:
        return poly([coeffs.get(d, 0) for d in range(max(coeffs, default=-1) + 1)])
    return skew(coeffs)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_sampled_elements_are_canonical(ring):
    """Every draw builds its payload directly, so each must be exactly what
    the validating constructors build from its coefficients: no zero
    coefficient, leading monomial first, reduced ``Fraction`` coefficients,
    an ``int`` on INT. The ``repr`` tells ``Fraction(3)`` from ``3``."""
    for seed in range(5):
        sampler = Sampler(seed)
        for _ in range(120):
            e = sampler.sample(ring)
            assert repr(e.payload) == repr(_rebuilt(e).payload)


def test_draw_int_rejects_an_empty_range():
    sampler = Sampler(1)
    with pytest.raises(ValueError, match="empty range"):
        sampler.draw_int(3, 1)
    assert sampler.draw_int(2, 2) == 2


@pytest.mark.parametrize(
    "lo,hi,name", [(0, 2.5, "hi"), (0.5, 3, "lo"), (True, 3, "lo"), (0, False, "hi"), ("0", 3, "lo")]
)
def test_draw_int_refuses_a_bound_that_is_not_an_int(lo, hi, name):
    """A float bound would leak a float out of the exact library, and a
    ``bool`` is not an ``int`` bound either."""
    sampler = Sampler(1)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        sampler.draw_int(lo, hi)
    # the refused draw took no step of the stream
    assert sampler.draw_int(-1000, 1000) == Sampler(1).draw_int(-1000, 1000)


def test_sampled_oddrat_denominators_are_odd():
    sampler = Sampler(3)
    for _ in range(300):
        e = sampler.sample(RingId.ODDRAT)
        assert e.payload.denominator % 2 == 1


def test_sampled_bounds():
    sampler = Sampler(4)
    for _ in range(300):
        v = sampler.sample(RingId.INT)
        assert -INT_BOUND <= v.payload <= INT_BOUND
        q = sampler.sample(RingId.RAT)
        assert q.payload.denominator <= DEN_BOUND
        p = sampler.sample(RingId.POLY)
        assert all(d <= POLY_MAX_DEGREE for d, _ in p.payload)
        s = sampler.sample(RingId.SKEW)
        assert len(s.payload) <= SKEW_MAX_TERMS
        assert all(
            n <= SKEW_MAX_DEGREE and m <= SKEW_MAX_DEGREE for (n, m), _ in s.payload
        )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_nonneg_and_positive_samplers(ring):
    sampler = Sampler(9)
    for _ in range(50):
        assert sign(sampler.sample_nonneg(ring)) >= 0
        assert sign(sampler.sample_positive(ring)) == 1


def test_central_sampler_yields_skew_constants():
    from ringlp import is_central

    sampler = Sampler(10)
    for _ in range(100):
        z = sampler.sample_central(RingId.SKEW)
        assert is_central(z)


# ---------------------------------------------------------------------------
# algebraic properties (hypothesis)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_trichotomy_on_samples(ring):
    sampler = Sampler(21)
    z = zero(ring)
    for _ in range(300):
        e = sampler.sample(ring)
        s = sign(e)
        assert s in (-1, 0, 1)
        assert (s == 0) == (e == z)
        assert sign(neg(e)) == -s


@given(a=elements(RingId.SKEW), b=elements(RingId.SKEW), c=elements(RingId.SKEW))
def test_skew_associativity_and_distributivity(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


@pytest.mark.parametrize("ring", [RingId.INT, RingId.RAT, RingId.ODDRAT, RingId.POLY])
def test_commutative_instances_commute(ring):
    sampler = Sampler(33)
    for _ in range(100):
        a = sampler.sample(ring)
        b = sampler.sample(ring)
        assert mul(a, b) == mul(b, a)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_order_translation_invariance(ring):
    sampler = Sampler(55)
    for _ in range(150):
        a = sampler.sample(ring)
        b = sampler.sample(ring)
        c = sampler.sample(ring)
        assert compare(a, b) is compare(add(a, c), add(b, c))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_positivity_closure_on_samples(ring):
    sampler = Sampler(77)
    for _ in range(150):
        a = sampler.sample_positive(ring)
        b = sampler.sample_positive(ring)
        assert sign(add(a, b)) == 1
        assert sign(mul(a, b)) == 1


@given(a=elements(RingId.POLY), b=elements(RingId.POLY))
def test_poly_add_sub_round_trip(a, b):
    assert sub(add(a, b), b) == a
    assert is_zero(sub(a, a))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_canonicality_of_arithmetic_results(ring):
    # encode-decode is identity on everything arithmetic produces
    sampler = Sampler(88)
    for _ in range(100):
        a = sampler.sample(ring)
        b = sampler.sample(ring)
        for e in (add(a, b), mul(a, b), neg(a), sub(a, b)):
            assert parse_element(ring, to_text(e)) == e
            if e.ring in (RingId.RAT, RingId.ODDRAT):
                assert e.payload.denominator > 0
            if e.ring in (RingId.POLY, RingId.SKEW):
                assert all(q != 0 for _, q in e.payload)


def test_skew_relation_holds_exactly():
    from ringlp import SKEW_X, SKEW_Y

    two = from_int(RingId.SKEW, 2)
    assert is_zero(sub(mul(SKEW_Y, SKEW_X), mul(two, mul(SKEW_X, SKEW_Y))))
