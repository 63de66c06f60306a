"""Deterministic element sampling and the ordered-ring axiom suite.

The pseudorandom source is a 64-bit linear congruential generator fixed by
the constants below (Knuth's MMIX parameters) so that equal seeds produce
identical streams everywhere. A ``Sampler`` is the generator: its ``state``
starts at the ``int`` seed mod 2^64 and each step sets

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
Every ``Fraction`` is built from its integer pair by ``rings.reduced``.
"""

from __future__ import annotations

from typing import Callable

from .errors import require_int
from .reports import AxiomReport, AxiomViolation
from .rings import (
    RingId,
    RingElement,
    add,
    descriptor,
    from_rational,
    mul,
    neg,
    reduced,
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


class Sampler:
    """Stateful element source: the generator above, its 64-bit ``state``
    seeded by an ``int``; equal seeds yield equal streams."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        require_int("seed", seed)
        self.state = seed & _MASK

    # one generator step and the draw in lo..hi, unchecked: the hot draw,
    # private so that perfbench's tracer, which wraps public methods, skips it
    def _int_in(self, lo: int, hi: int) -> int:
        self.state = state = (_MULT * self.state + _INC) & _MASK
        return lo + (state >> 32) % (hi - lo + 1)

    def draw_int(self, lo: int, hi: int) -> int:
        """Uniform in ``lo..hi``, two ``int`` bounds; ``ValueError`` when the
        range is empty."""
        require_int("lo", lo)
        require_int("hi", hi)
        if hi < lo:
            raise ValueError(f"empty range {lo}..{hi}")
        return self._int_in(lo, hi)

    def shape_draw(self, max_rows: int, max_cols: int) -> Callable[[], tuple[int, int]]:
        """A draw of a program shape ``(m, n)``, uniform in ``1..max_rows`` x
        ``1..max_cols``: the generator steps of ``draw_int(1, max_rows)``
        then ``draw_int(1, max_cols)``. Both bounds are positive ``int``s,
        checked here once rather than at every draw."""
        require_int("max_rows", max_rows, 1)
        require_int("max_cols", max_cols, 1)
        int_in = self._int_in
        return lambda: (int_in(1, max_rows), int_in(1, max_cols))

    # one rational draw as (numerator, denominator), unreduced; the hot draw
    # of every ring but INT, so it takes the generator's steps inline
    def _ratio(self, odd: bool = False) -> tuple[int, int]:
        state = (_MULT * self.state + _INC) & _MASK
        num = (state >> 32) % (2 * INT_BOUND + 1) - INT_BOUND
        state = (_MULT * state + _INC) & _MASK
        den = 1 + (state >> 32) % DEN_BOUND
        while odd and den % 2 == 0:
            state = (_MULT * state + _INC) & _MASK
            den = 1 + (state >> 32) % DEN_BOUND
        self.state = state
        return num, den

    def sample(self, ring: RingId) -> RingElement:
        return RingElement(ring, _DRAWS[ring](self))

    def _poly(self) -> tuple:
        ratio = self._ratio
        terms = [(d, *ratio()) for d in range(self._int_in(0, POLY_MAX_DEGREE) + 1)]
        terms.reverse()
        return tuple([(d, reduced(n, den)) for d, n, den in terms if n])

    def _skew(self) -> tuple:
        count = self._int_in(0, SKEW_MAX_TERMS)
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for _ in range(count):
            key = (self._int_in(0, SKEW_MAX_DEGREE), self._int_in(0, SKEW_MAX_DEGREE))
            n, d = self._ratio()
            if key in acc:  # a monomial drawn again: add the two rationals
                n0, d0 = acc[key]
                n, d = n0 * d + n * d0, d0 * d
            acc[key] = (n, d)
        items = sorted(acc.items(), reverse=True)
        return tuple([(key, reduced(n, d)) for key, (n, d) in items if n])

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
    RingId.INT: lambda s: s._int_in(-INT_BOUND, INT_BOUND),
    RingId.RAT: lambda s: reduced(*s._ratio()),
    RingId.ODDRAT: lambda s: reduced(*s._ratio(odd=True)),
    RingId.POLY: Sampler._poly,
    RingId.SKEW: Sampler._skew,
}


def verify_order_axioms(ring: RingId, sample_count: int, seed: int) -> AxiomReport:
    """Seeded check of trichotomy and positivity closure on sampled pairs.

    Trichotomy is checked as sign-consistency: sign(e) lies in {-1, 0, +1},
    equals 0 exactly for the zero element, and flips under negation.
    Closure: positive a, b must give positive a+b and a*b. Violations are
    report content with witnesses, never exceptions. ``sample_count`` is a
    positive ``int`` (``errors.require_int``).
    """
    require_int("sample_count", sample_count, 1)
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
