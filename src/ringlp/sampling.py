"""Deterministic element sampling and the ordered-ring axiom suite.

The pseudorandom source is a 64-bit linear congruential generator fixed by
the constants below (Knuth's MMIX parameters) so that equal seeds produce
identical streams everywhere. A ``Sampler`` is the generator: its ``state``
starts at the ``int`` seed mod 2^64 and each step sets

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

A draw in ``lo..hi`` takes one step and is ``lo`` plus the top 32 bits
of the new state modulo ``hi - lo + 1``. The draws of one element, in
stream order:

* INT: one draw in [-1000, 1000].
* RAT: a rational, that is a numerator in [-1000, 1000] and then a
  denominator in [1, 50]. ODDRAT redraws the denominator until it is odd.
* POLY: a degree k in [0, 4], then one RAT-bounded rational per
  coefficient, from degree 0 up to k.
* SKEW: a term count in [0, 5], then per term a y-degree in [0, 3], an
  x-degree in [0, 3] and a RAT-bounded rational.

``sample_nonneg`` negates a negative sample. ``sample_central`` is a sample
on the commutative rings and, on SKEW, the constant of one RAT-bounded
rational. ``sample`` picks the draw from the ring's descriptor: a ring
that is not ``is_enumerable`` is drawn as POLY if it is commutative, else
as SKEW; one with a ``smallest_positive`` as INT; any other as RAT,
redrawing each denominator that is not a unit of the ring.

Each draw builds its canonical payload straight from the generator's
output, not through the validating constructors of :mod:`ringlp.rings`:
the ``int``, the one reduced ``Fraction``, or the term tuple, leading
monomial first, with one ``Fraction`` per nonzero coefficient (a SKEW
monomial drawn twice has its rationals added as integer pairs first).
Every ``Fraction`` of a draw is built from its integer pair by
``rings.reduced``; SKEW's central constant alone goes through the
validating ``from_rational``.
The hot draws (``_ratio``, ``_poly``, ``_skew``) take the generator's
steps inline, the state held in a local and stored once.
"""

from __future__ import annotations

from functools import cache

from .errors import require_count, require_int
from .reports import AxiomReport, AxiomViolation
from .rings import (
    RingId,
    RingElement,
    add,
    descriptor,
    from_int,
    from_rational,
    mul,
    neg,
    reduced,
    sign,
    to_text,
    try_invert,
    zero,
)

__all__ = ["Sampler", "verify_order_axioms"]

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

    def shape_draw(self) -> tuple[int, int]:
        """A program shape ``(m, n)``, uniform in ``1..3`` x ``1..3``: the
        generator steps of ``draw_int(1, 3)`` twice, unchecked."""
        return self._int_in(1, 3), self._int_in(1, 3)

    # one rational draw (numerator, unit denominator), unreduced: the rational rings' hot draw
    def _ratio(self, ring: RingId) -> tuple[int, int]:
        units = _unit_denominators(ring)
        state = (_MULT * self.state + _INC) & _MASK
        num = (state >> 32) % (2 * INT_BOUND + 1) - INT_BOUND
        den = 0  # no unit
        while den not in units:
            state = (_MULT * state + _INC) & _MASK
            den = 1 + (state >> 32) % DEN_BOUND
        self.state = state
        return num, den

    def sample(self, ring: RingId) -> RingElement:
        desc = descriptor(ring)
        if not desc.is_enumerable:
            return RingElement(ring, self._poly() if desc.is_commutative else self._skew())
        if desc.smallest_positive is not None:
            return RingElement(ring, self._int_in(-INT_BOUND, INT_BOUND))
        return RingElement(ring, reduced(*self._ratio(ring)))

    def _poly(self) -> tuple:
        state = (_MULT * self.state + _INC) & _MASK
        terms = []
        for d in range((state >> 32) % (POLY_MAX_DEGREE + 1) + 1):
            state = (_MULT * state + _INC) & _MASK
            n = (state >> 32) % (2 * INT_BOUND + 1) - INT_BOUND
            state = (_MULT * state + _INC) & _MASK
            if n:
                terms.append((d, reduced(n, 1 + (state >> 32) % DEN_BOUND)))
        self.state = state
        terms.reverse()
        return tuple(terms)

    def _skew(self) -> tuple:
        state = (_MULT * self.state + _INC) & _MASK
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for _ in range((state >> 32) % (SKEW_MAX_TERMS + 1)):
            state = (_MULT * state + _INC) & _MASK
            ydeg = (state >> 32) % (SKEW_MAX_DEGREE + 1)
            state = (_MULT * state + _INC) & _MASK
            key = (ydeg, (state >> 32) % (SKEW_MAX_DEGREE + 1))
            state = (_MULT * state + _INC) & _MASK
            n = (state >> 32) % (2 * INT_BOUND + 1) - INT_BOUND
            state = (_MULT * state + _INC) & _MASK
            d = 1 + (state >> 32) % DEN_BOUND
            if key in acc:  # a monomial drawn again: add the two rationals
                n0, d0 = acc[key]
                n, d = n0 * d + n * d0, d0 * d
            acc[key] = (n, d)
        self.state = state
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
        return from_rational(ring, *self._ratio(ring))


@cache
def _unit_denominators(ring: RingId) -> frozenset:
    """The denominators in 1..DEN_BOUND whose inverse lies in ``ring``."""
    return frozenset([d for d in range(1, DEN_BOUND + 1) if try_invert(from_int(ring, d))])


def verify_order_axioms(ring: RingId, sample_count: int, seed: int) -> AxiomReport:
    """Seeded check of trichotomy and positivity closure on sampled pairs.

    Trichotomy is checked as sign-consistency: sign(e) lies in {-1, 0, +1},
    equals 0 exactly for the zero element, and flips under negation.
    Closure: positive a, b must give positive a+b and a*b. Violations are
    report content with witnesses, never exceptions. ``sample_count`` is an
    ``int`` from 1 to 100,000 (``errors.require_count``).
    """
    require_count("sample_count", sample_count)
    sampler = Sampler(seed)
    z = zero(ring)
    violations: list[AxiomViolation] = []
    trichotomy_checks = 0
    closure_checks = 0
    for _ in range(sample_count):
        a = sampler.sample(ring)
        b = sampler.sample(ring)
        sa, sb = sign(a), sign(b)
        for e, s in ((a, sa), (b, sb)):
            trichotomy_checks += 1
            if s not in (-1, 0, 1) or (s == 0) != (e == z) or sign(neg(e)) != -s:
                violations.append(AxiomViolation("trichotomy", (to_text(e),)))
        if sa == 1 and sb == 1:
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
