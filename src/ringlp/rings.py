"""Exact arithmetic in five ordered rings.

The ring universe is closed: ``RingId`` names the instances and every
``RingElement`` carries its tag. Cross-ring arithmetic raises
``RingMismatch``. Values are immutable and canonical, so structural
equality coincides with ring equality.

* ``INT``    arbitrary-precision integers.
* ``RAT``    rationals, fully reduced, positive denominator.
* ``ODDRAT`` rationals whose reduced denominator is odd (the integers
  localized away from 2). Here 2 is positive but has no inverse.
* ``POLY``   univariate polynomials with rational coefficients, positive
  when the leading coefficient is positive; the variable therefore
  dominates every rational constant.
* ``SKEW``   the non-commutative ring on x, y with the rewrite
  ``y*x = 2*x*y``, represented on the normal-form basis ``y^n*x^m`` and
  ordered by the sign of the coefficient at the lexicographically
  greatest ``(n, m)``. Note ``x*y = (1/2)*y*x``.

``sign`` realizes each instance's positivity order; comparisons,
magnitude classification and the invertibility/centrality tests build on
it. Element literals follow a small text grammar (see ``parse_element``)
used by program files and the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError, RingMismatch

__all__ = [
    "RingId",
    "Ordering",
    "Magnitude",
    "RingDescriptor",
    "RingElement",
    "descriptor",
    "all_descriptors",
    "zero",
    "one",
    "from_int",
    "from_rational",
    "poly",
    "skew",
    "POLY_X",
    "SKEW_X",
    "SKEW_Y",
    "add",
    "sub",
    "neg",
    "mul",
    "sign",
    "compare",
    "is_zero",
    "try_invert",
    "is_central",
    "classify_magnitude",
    "parse_element",
    "to_text",
    "pretty",
]

_F0 = Fraction(0)


@unique
class RingId(Enum):
    INT = "int"
    RAT = "rat"
    ODDRAT = "oddrat"
    POLY = "poly"
    SKEW = "skew"


@unique
class Ordering(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


@unique
class Magnitude(Enum):
    ZERO = "ZERO"
    INFINITESIMAL = "INFINITESIMAL"
    FINITE = "FINITE"
    INFINITE = "INFINITE"


# Payloads: INT -> int; RAT/ODDRAT -> Fraction; POLY -> ((degree, coeff), ...)
# leading term first; SKEW -> (((ydeg, xdeg), coeff), ...) lex-descending.
Payload = Union[int, Fraction, tuple]


@dataclass(frozen=True)
class RingElement:
    ring: RingId
    payload: Payload

    def __add__(self, other: object) -> "RingElement":
        if isinstance(other, RingElement):
            return add(self, other)
        return NotImplemented

    def __sub__(self, other: object) -> "RingElement":
        if isinstance(other, RingElement):
            return sub(self, other)
        return NotImplemented

    def __mul__(self, other: object) -> "RingElement":
        if isinstance(other, RingElement):
            return mul(self, other)
        return NotImplemented

    def __neg__(self) -> "RingElement":
        return neg(self)

    def __lt__(self, other: "RingElement") -> bool:
        return compare(self, other) is Ordering.LT

    def __le__(self, other: "RingElement") -> bool:
        return compare(self, other) is not Ordering.GT

    def __gt__(self, other: "RingElement") -> bool:
        return compare(self, other) is Ordering.GT

    def __ge__(self, other: "RingElement") -> bool:
        return compare(self, other) is not Ordering.LT

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"RingElement({self.ring.value}, {to_text(self)!r})"


@dataclass(frozen=True)
class RingDescriptor:
    """Capability record of one ring instance."""

    ring: RingId
    is_commutative: bool
    is_division: bool
    smallest_positive: Optional[RingElement]


def _require_same_ring(a: RingElement, b: RingElement) -> None:
    if a.ring is not b.ring:
        raise RingMismatch(
            f"cannot combine {a.ring.value} element {to_text(a)} "
            f"with {b.ring.value} element {to_text(b)}"
        )


# ---------------------------------------------------------------------------
# construction


def _canon_poly(acc: dict[int, Fraction]) -> tuple:
    return tuple(sorted(((d, q) for d, q in acc.items() if q != 0), reverse=True))


def _canon_skew(acc: dict[tuple[int, int], Fraction]) -> tuple:
    return tuple(sorted(((nm, q) for nm, q in acc.items() if q != 0), reverse=True))


def _check_oddrat(q: Fraction) -> Fraction:
    if q.denominator % 2 == 0:
        raise ValueError(
            f"{q.numerator}/{q.denominator} is not an odd-denominator rational"
        )
    return q


def from_int(ring: RingId, n: int) -> RingElement:
    """Embed an integer into any of the five rings."""
    if ring is RingId.INT:
        return RingElement(ring, int(n))
    if ring in (RingId.RAT, RingId.ODDRAT):
        return RingElement(ring, Fraction(n))
    if ring is RingId.POLY:
        return RingElement(ring, _canon_poly({0: Fraction(n)}))
    return RingElement(ring, _canon_skew({(0, 0): Fraction(n)}))


def from_rational(ring: RingId, num: int | Fraction, den: int = 1) -> RingElement:
    """Embed a rational where the ring admits it.

    RAT accepts anything, ODDRAT requires an odd reduced denominator, POLY
    and SKEW take the value as a constant, INT only accepts integers.
    """
    q = Fraction(num, den) if den != 1 else Fraction(num)
    if ring is RingId.INT:
        if q.denominator != 1:
            raise ValueError(f"{q} is not an integer")
        return RingElement(ring, q.numerator)
    if ring is RingId.RAT:
        return RingElement(ring, q)
    if ring is RingId.ODDRAT:
        return RingElement(ring, _check_oddrat(q))
    if ring is RingId.POLY:
        return RingElement(ring, _canon_poly({0: q}))
    return RingElement(ring, _canon_skew({(0, 0): q}))


def poly(coeffs) -> RingElement:
    """POLY element from ascending-degree coefficients (ints or Fractions)."""
    acc = {d: Fraction(c) for d, c in enumerate(coeffs)}
    return RingElement(RingId.POLY, _canon_poly(acc))


def skew(terms) -> RingElement:
    """SKEW element from a {(ydeg, xdeg): coefficient} mapping."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (n, m), c in dict(terms).items():
        if n < 0 or m < 0:
            raise ValueError("skew monomial degrees must be nonnegative")
        acc[(int(n), int(m))] = Fraction(c)
    return RingElement(RingId.SKEW, _canon_skew(acc))


def zero(ring: RingId) -> RingElement:
    return _ZEROS[ring]


def one(ring: RingId) -> RingElement:
    return _ONES[ring]


POLY_X = poly([0, 1])
SKEW_X = skew({(0, 1): 1})
SKEW_Y = skew({(1, 0): 1})

_ZEROS = {r: from_int(r, 0) for r in RingId}
_ONES = {r: from_int(r, 1) for r in RingId}


def is_zero(a: RingElement) -> bool:
    return a == _ZEROS[a.ring]


# ---------------------------------------------------------------------------
# ring operations


def add(a: RingElement, b: RingElement) -> RingElement:
    _require_same_ring(a, b)
    r = a.ring
    if r is RingId.INT:
        return RingElement(r, a.payload + b.payload)
    if r in (RingId.RAT, RingId.ODDRAT):
        return RingElement(r, a.payload + b.payload)
    acc = dict(a.payload)
    for key, q in b.payload:
        acc[key] = acc.get(key, _F0) + q
    canon = _canon_poly(acc) if r is RingId.POLY else _canon_skew(acc)
    return RingElement(r, canon)


def neg(a: RingElement) -> RingElement:
    r = a.ring
    if r is RingId.INT or r in (RingId.RAT, RingId.ODDRAT):
        return RingElement(r, -a.payload)
    return RingElement(r, tuple((key, -q) for key, q in a.payload))


def sub(a: RingElement, b: RingElement) -> RingElement:
    return add(a, neg(b))


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Exact product.

    SKEW multiplies on the normal-form basis with
    ``(y^n1 x^m1) * (y^n2 x^m2) = 2^(-m1*n2) * y^(n1+n2) x^(m1+m2)``,
    which is the bilinear extension of the rewrite ``x*y = (1/2)*y*x``.
    """
    _require_same_ring(a, b)
    r = a.ring
    if r is RingId.INT:
        return RingElement(r, a.payload * b.payload)
    if r in (RingId.RAT, RingId.ODDRAT):
        return RingElement(r, a.payload * b.payload)
    if r is RingId.POLY:
        acc: dict[int, Fraction] = {}
        for da, ca in a.payload:
            for db, cb in b.payload:
                k = da + db
                acc[k] = acc.get(k, _F0) + ca * cb
        return RingElement(r, _canon_poly(acc))
    acc2: dict[tuple[int, int], Fraction] = {}
    for (n1, m1), c1 in a.payload:
        for (n2, m2), c2 in b.payload:
            key = (n1 + n2, m1 + m2)
            coeff = c1 * c2 * Fraction(1, 1 << (m1 * n2))
            acc2[key] = acc2.get(key, _F0) + coeff
    return RingElement(r, _canon_skew(acc2))


def sign(a: RingElement) -> int:
    """+1, 0 or -1: the trichotomy position of ``a``.

    POLY: sign of the leading (highest-degree) coefficient. SKEW: sign of
    the coefficient at the lexicographically greatest ``(ydeg, xdeg)``.
    """
    r = a.ring
    if r is RingId.INT:
        v = a.payload
        return (v > 0) - (v < 0)
    if r in (RingId.RAT, RingId.ODDRAT):
        n = a.payload.numerator
        return (n > 0) - (n < 0)
    if not a.payload:
        return 0
    lead = a.payload[0][1]
    return (lead > 0) - (lead < 0)


def compare(a: RingElement, b: RingElement) -> Ordering:
    """Order of ``a`` against ``b`` via the sign of ``a - b``."""
    s = sign(sub(a, b))
    if s > 0:
        return Ordering.GT
    if s < 0:
        return Ordering.LT
    return Ordering.EQ


def try_invert(a: RingElement) -> Optional[RingElement]:
    """Two-sided inverse of ``a`` when it is a unit, else ``None``."""
    r = a.ring
    if r is RingId.INT:
        return a if a.payload in (1, -1) else None
    if r is RingId.RAT:
        return RingElement(r, 1 / a.payload) if a.payload != 0 else None
    if r is RingId.ODDRAT:
        q = a.payload
        if q == 0 or q.numerator % 2 == 0:
            return None
        return RingElement(r, 1 / q)
    # POLY and SKEW: exactly the nonzero constants are units.
    if len(a.payload) != 1:
        return None
    key, coeff = a.payload[0]
    const_key = 0 if r is RingId.POLY else (0, 0)
    if key != const_key:
        return None
    inv = {const_key: 1 / coeff}
    canon = _canon_poly(inv) if r is RingId.POLY else _canon_skew(inv)
    return RingElement(r, canon)


def is_central(a: RingElement) -> bool:
    """Whether ``a`` commutes with the whole ring.

    SKEW is generated by x and y, so commuting with both generators
    suffices; that happens exactly for constants.
    """
    if a.ring is not RingId.SKEW:
        return True
    return mul(a, SKEW_X) == mul(SKEW_X, a) and mul(a, SKEW_Y) == mul(SKEW_Y, a)


def _is_constant(a: RingElement) -> bool:
    if a.ring is RingId.POLY:
        return len(a.payload) == 1 and a.payload[0][0] == 0
    return len(a.payload) == 1 and a.payload[0][0] == (0, 0)


def classify_magnitude(a: RingElement) -> Magnitude:
    """ZERO / INFINITESIMAL / FINITE / INFINITE, decided analytically.

    FINITE means -m < a < m for some positive integer m; INFINITESIMAL
    means a != 0 with n*|a| < 1 for every positive integer n. INT, RAT and
    ODDRAT contain only ZERO and FINITE elements. POLY and SKEW have no
    nonzero infinitesimals: a nonzero constant c satisfies n*|c| >= 1 for
    some n, and a non-constant dominates every integer under the
    leading-coefficient order, hence INFINITE.
    """
    if is_zero(a):
        return Magnitude.ZERO
    if a.ring in (RingId.INT, RingId.RAT, RingId.ODDRAT):
        return Magnitude.FINITE
    return Magnitude.FINITE if _is_constant(a) else Magnitude.INFINITE


# ---------------------------------------------------------------------------
# descriptors

_DESCRIPTORS = {
    RingId.INT: RingDescriptor(RingId.INT, True, False, one(RingId.INT)),
    RingId.RAT: RingDescriptor(RingId.RAT, True, True, None),
    RingId.ODDRAT: RingDescriptor(RingId.ODDRAT, True, False, None),
    RingId.POLY: RingDescriptor(RingId.POLY, True, False, None),
    RingId.SKEW: RingDescriptor(RingId.SKEW, False, False, None),
}


def descriptor(ring: RingId) -> RingDescriptor:
    return _DESCRIPTORS[ring]


def all_descriptors() -> tuple[RingDescriptor, ...]:
    return tuple(_DESCRIPTORS[r] for r in RingId)


# ---------------------------------------------------------------------------
# text grammar
#
#   INT            -?[0-9]+
#   RAT, ODDRAT    int or int/uint
#   POLY           poly:c0,c1,...,ck     ascending degree, rational literals
#   SKEW           skew:n,m=q;n,m=q;...  ydeg,xdeg=coefficient, lex-descending;
#                  an empty term list ("skew:") is the zero element
#
# Parsing is exact; serialization re-emits the canonical form (reduced
# fractions, dense ascending coefficients for POLY, lex-descending terms
# for SKEW).

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?$")
_INT_RE = re.compile(r"-?[0-9]+$")
_SKEW_TERM_RE = re.compile(r"([0-9]+),([0-9]+)=(-?[0-9]+(?:/[0-9]+)?)$")


def _parse_fraction(text: str) -> Fraction:
    m = _RAT_RE.match(text)
    if not m:
        raise ParseError(f"malformed rational literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_element(ring: RingId, text: str) -> RingElement:
    """Parse one element literal of ``ring``; raises ParseError."""
    if ring is RingId.INT:
        if not _INT_RE.match(text):
            raise ParseError(f"malformed integer literal {text!r}")
        return RingElement(ring, int(text))
    if ring in (RingId.RAT, RingId.ODDRAT):
        q = _parse_fraction(text)
        if ring is RingId.ODDRAT and q.denominator % 2 == 0:
            raise ParseError(
                f"{text!r} reduces to denominator {q.denominator}, "
                "which is even; not an odd-denominator rational"
            )
        return RingElement(ring, q)
    if ring is RingId.POLY:
        if not text.startswith("poly:"):
            raise ParseError(f"poly literal must start with 'poly:': {text!r}")
        body = text[len("poly:"):]
        if not body:
            raise ParseError("poly literal needs at least one coefficient")
        coeffs = [_parse_fraction(part) for part in body.split(",")]
        return RingElement(ring, _canon_poly(dict(enumerate(coeffs))))
    if not text.startswith("skew:"):
        raise ParseError(f"skew literal must start with 'skew:': {text!r}")
    body = text[len("skew:"):]
    acc: dict[tuple[int, int], Fraction] = {}
    if body:
        for part in body.split(";"):
            m = _SKEW_TERM_RE.match(part)
            if not m:
                raise ParseError(f"malformed skew term {part!r}")
            key = (int(m.group(1)), int(m.group(2)))
            if key in acc:
                raise ParseError(f"duplicate skew monomial {part.split('=')[0]}")
            acc[key] = _parse_fraction(m.group(3))
    return RingElement(ring, _canon_skew(acc))


def _frac_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def to_text(a: RingElement) -> str:
    """Canonical text form; ``parse_element`` inverts it exactly."""
    r = a.ring
    if r is RingId.INT:
        return str(a.payload)
    if r in (RingId.RAT, RingId.ODDRAT):
        return _frac_text(a.payload)
    if r is RingId.POLY:
        if not a.payload:
            return "poly:0"
        coeffs = dict(a.payload)
        top = a.payload[0][0]
        return "poly:" + ",".join(_frac_text(coeffs.get(d, _F0)) for d in range(top + 1))
    return "skew:" + ";".join(
        f"{n},{m}={_frac_text(q)}" for (n, m), q in a.payload
    )


def _mono_poly(d: int) -> str:
    if d == 0:
        return ""
    return "x" if d == 1 else f"x^{d}"


def _mono_skew(n: int, m: int) -> str:
    parts = []
    if n:
        parts.append("y" if n == 1 else f"y^{n}")
    if m:
        parts.append("x" if m == 1 else f"x^{m}")
    return "*".join(parts)


def pretty(a: RingElement) -> str:
    """Human-oriented algebraic rendering (not part of the grammar)."""
    r = a.ring
    if r in (RingId.INT, RingId.RAT, RingId.ODDRAT):
        return to_text(a)
    if not a.payload:
        return "0"
    out = ""
    for i, (key, q) in enumerate(a.payload):
        mono = _mono_poly(key) if r is RingId.POLY else _mono_skew(*key)
        qa = abs(q)
        body = mono if (mono and qa == 1) else (f"{_frac_text(qa)}*{mono}" if mono else _frac_text(qa))
        if i == 0:
            out = ("-" if q < 0 else "") + body
        else:
            out += (" - " if q < 0 else " + ") + body
    return out
