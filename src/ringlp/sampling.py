"""Deterministic element sampling and the ordered-ring axiom suite.

The pseudorandom source is a 64-bit linear congruential generator fixed by
the constants below (Knuth's MMIX parameters) so that equal seeds produce
identical streams everywhere:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

Bounded draws take the top 32 bits of the new state modulo the range size.
Documented size bounds: INT is uniform in [-1000, 1000]; RAT and ODDRAT
draw numerators in [-1000, 1000] and denominators in [1, 50], ODDRAT
redrawing the denominator until it is odd; POLY draws degree <= 4 with
rational coefficients on the RAT bounds; SKEW draws at most 5 monomials
with y- and x-degree <= 3.

Each draw builds its canonical payload straight from the generator's
output, not through the validating constructors of :mod:`ringlp.rings`:
the ``int``, the one reduced ``Fraction``, or the term tuple, leading
monomial first, with one ``Fraction`` per nonzero coefficient (a SKEW
monomial drawn twice has its rationals added as integer pairs first).
"""

from __future__ import annotations

from fractions import Fraction

from .reports import AxiomReport, AxiomViolation
from .rings import (
    RingId,
    RingElement,
    add,
    descriptor,
    from_rational,
    mul,
    neg,
    sign,
    to_text,
    zero,
)

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1

INT_BOUND = 1000
DEN_BOUND = 50
POLY_MAX_DEGREE = 4
SKEW_MAX_TERMS = 5
SKEW_MAX_DEGREE = 3


class Lcg:
    """The fixed 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    # int_in inlines the step of next_u64: it is the hot draw.
    def int_in(self, lo: int, hi: int) -> int:
        self.state = state = (_MULT * self.state + _INC) & _MASK
        return lo + (state >> 32) % (hi - lo + 1)


class Sampler:
    """Stateful element source; equal seeds yield equal streams."""

    def __init__(self, seed: int):
        self._lcg = Lcg(seed)

    def draw_int(self, lo: int, hi: int) -> int:
        """Uniform in ``lo..hi``; ``ValueError`` when the range is empty."""
        if hi < lo:
            raise ValueError(f"empty range {lo}..{hi}")
        return self._lcg.int_in(lo, hi)

    # one rational draw as (numerator, denominator), unreduced; the hot draw
    # of every ring but INT, so it takes the generator's steps inline
    def _ratio(self, odd: bool = False) -> tuple[int, int]:
        lcg = self._lcg
        state = (_MULT * lcg.state + _INC) & _MASK
        num = (state >> 32) % (2 * INT_BOUND + 1) - INT_BOUND
        state = (_MULT * state + _INC) & _MASK
        den = 1 + (state >> 32) % DEN_BOUND
        while odd and den % 2 == 0:
            state = (_MULT * state + _INC) & _MASK
            den = 1 + (state >> 32) % DEN_BOUND
        lcg.state = state
        return num, den

    def sample(self, ring: RingId) -> RingElement:
        return RingElement(ring, _DRAWS[ring](self))

    def _poly(self) -> tuple:
        ratio = self._ratio
        terms = [(d, *ratio()) for d in range(self._lcg.int_in(0, POLY_MAX_DEGREE) + 1)]
        terms.reverse()
        return tuple([(d, Fraction(n, den)) for d, n, den in terms if n])

    def _skew(self) -> tuple:
        count = self._lcg.int_in(0, SKEW_MAX_TERMS)
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for _ in range(count):
            key = (self._lcg.int_in(0, SKEW_MAX_DEGREE), self._lcg.int_in(0, SKEW_MAX_DEGREE))
            n, d = self._ratio()
            if key in acc:  # a monomial drawn again: add the two rationals
                n0, d0 = acc[key]
                n, d = n0 * d + n * d0, d0 * d
            acc[key] = (n, d)
        items = sorted(acc.items(), reverse=True)
        return tuple([(key, Fraction(n, d)) for key, (n, d) in items if n])

    def sample_nonneg(self, ring: RingId) -> RingElement:
        e = self.sample(ring)
        return neg(e) if sign(e) < 0 else e

    def sample_positive(self, ring: RingId) -> RingElement:
        while True:
            e = self.sample_nonneg(ring)
            if sign(e) == 1:
                return e

    def sample_central(self, ring: RingId) -> RingElement:
        """A central element: any sample in a commutative ring, a rational
        constant otherwise."""
        if descriptor(ring).is_commutative:
            return self.sample(ring)
        return from_rational(ring, *self._ratio())


# One draw per ring, giving the element's canonical payload. The order of the
# generator calls in each is part of the seeded stream.
_DRAWS = {
    RingId.INT: lambda s: s._lcg.int_in(-INT_BOUND, INT_BOUND),
    RingId.RAT: lambda s: Fraction(*s._ratio()),
    RingId.ODDRAT: lambda s: Fraction(*s._ratio(odd=True)),
    RingId.POLY: Sampler._poly,
    RingId.SKEW: Sampler._skew,
}


def verify_order_axioms(ring: RingId, sample_count: int, seed: int) -> AxiomReport:
    """Seeded check of trichotomy and positivity closure on sampled pairs.

    Trichotomy is checked as sign-consistency: sign(e) lies in {-1, 0, +1},
    equals 0 exactly for the zero element, and flips under negation.
    Closure: positive a, b must give positive a+b and a*b. Violations are
    report content with witnesses, never exceptions. ``sample_count`` must
    be an ``int``, not a ``bool`` (``TypeError``), and positive.
    """
    if type(sample_count) is bool or not isinstance(sample_count, int):
        raise TypeError(f"sample_count must be an int, got {sample_count!r}")
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    sampler = Sampler(seed)
    z = zero(ring)
    violations: list[AxiomViolation] = []
    trichotomy_checks = 0
    closure_checks = 0
    for _ in range(sample_count):
        a = sampler.sample(ring)
        b = sampler.sample(ring)
        for e in (a, b):
            trichotomy_checks += 1
            s = sign(e)
            if s not in (-1, 0, 1) or (s == 0) != (e == z) or sign(neg(e)) != -s:
                violations.append(AxiomViolation("trichotomy", (to_text(e),)))
        if sign(a) == 1 and sign(b) == 1:
            closure_checks += 1
            if sign(add(a, b)) != 1:
                violations.append(
                    AxiomViolation("additive-closure", (to_text(a), to_text(b)))
                )
            if sign(mul(a, b)) != 1:
                violations.append(
                    AxiomViolation("multiplicative-closure", (to_text(a), to_text(b)))
                )
    return AxiomReport(
        ring=ring,
        sample_count=sample_count,
        seed=seed,
        trichotomy_checks=trichotomy_checks,
        closure_checks=closure_checks,
        violations=tuple(violations),
    )
