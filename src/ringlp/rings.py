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

The operations branch on the payload's shape: a scalar (``int`` or
``Fraction``: INT, RAT, ODDRAT) or a tuple of ``(monomial, coefficient)``
terms (POLY, SKEW), and tell ``int`` from ``Fraction``. A ``Fraction`` is
worked on as its integer pair, numerator and denominator, and each result
is built once, by :func:`reduced`, from the pair in lowest terms: no
``Fraction`` operator and no generic ``Fraction(n, d)`` runs in the
kernel; only parsing and validation call the latter. ``sum_of_products``
works out each ring's monomial product inline. What else differs sits in
one private record per ring (``_RingSpec``): which rationals embed, the
constant monomial, the literal grammar and the monomial text.

``sign`` realizes each instance's positivity order; comparisons,
magnitude classification and the invertibility/centrality tests build on
it. Element literals follow a small text grammar (see ``parse_element``)
used by program files and the command line.
"""

from __future__ import annotations

import re
from enum import Enum, unique
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Union

from ._records import record, setfield
from .errors import ParseError, RingMismatch, require_int

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
    "sum_of_products",
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

    __hash__ = object.__hash__  # members are singletons: no Python-level hash


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


@record
class RingElement:
    ring: RingId
    payload: Payload

    def __init__(self, ring: RingId, payload: Payload):
        setfield(self, "ring", ring)
        setfield(self, "payload", payload)

    # the record's field-wise equality and hash, without its generic field tuple
    def __eq__(self, other: object) -> bool:
        if other.__class__ is RingElement:
            return self.ring is other.ring and self.payload == other.payload
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, self.payload))

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

    def __lt__(self, other: object) -> bool:
        if isinstance(other, RingElement):
            return compare(self, other) is Ordering.LT
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, RingElement):
            return compare(self, other) is not Ordering.GT
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, RingElement):
            return compare(self, other) is Ordering.GT
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, RingElement):
            return compare(self, other) is not Ordering.LT
        return NotImplemented

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"RingElement({self.ring.value}, {to_text(self)!r})"


@record
class RingDescriptor:
    """Capability record of one ring instance.

    These are the per-ring facts that code outside this module reads in
    place of testing which ring it holds.
    """

    ring: RingId
    is_commutative: bool
    is_division: bool
    smallest_positive: Optional[RingElement]
    # the box oracle can walk a finite grid of the ring's elements
    is_enumerable: bool = False


def _require_same_ring(a: RingElement, b: RingElement) -> None:
    if a.ring is not b.ring:
        raise RingMismatch(
            f"cannot combine {a.ring.value} element {to_text(a)} "
            f"with {b.ring.value} element {to_text(b)}"
        )


# ---------------------------------------------------------------------------
# construction


def _canon(acc: dict) -> tuple:
    """Canonical term tuple: nonzero coefficients, leading monomial first."""
    return tuple(sorted(((key, q) for key, q in acc.items() if q), reverse=True))


def reduced(n: int, d: int, coprime: bool = False) -> Fraction:
    """``n/d`` in lowest terms, for ``int``s ``n`` and ``d > 0``: equal,
    hash-equal and type-identical to ``Fraction(n, d)``.

    The kernel's one way to build a ``Fraction`` from an integer pair: one
    ``gcd``, skipped when the caller knows ``coprime`` (a reduced pair with
    its sign flipped), and the two slots set on a bare instance, as
    CPython 3.12's ``Fraction._from_coprime_ints`` does. It does not check
    its arguments, so it is not in ``__all__``.
    """
    if not coprime:
        g = gcd(n, d)
        n //= g
        d //= g
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def from_int(ring: RingId, n: int) -> RingElement:
    """Embed an integer into any of the five rings."""
    return from_rational(ring, n)


def from_rational(ring: RingId, num: int | Fraction, den: int = 1) -> RingElement:
    """Embed a rational where the ring admits it.

    RAT accepts anything, ODDRAT requires an odd reduced denominator, POLY
    and SKEW take the value as a constant, INT only accepts integers.
    ``num`` and ``den`` must be ``int`` or ``Fraction`` (``TypeError``
    otherwise, ``bool`` included), so no float ever reaches a payload.
    """
    if not (_exact(num) and _exact(den)):
        raise TypeError(f"expected int or Fraction arguments, got {num!r}, {den!r}")
    if den != 1:
        q = Fraction(num, den)
    else:
        q = num if type(num) is Fraction else Fraction(num)
    spec = _SPECS[ring]
    if spec.const is None:
        return RingElement(ring, spec.scalar(q))
    return RingElement(ring, ((spec.const, q),) if q else ())


def _exact(v: object) -> bool:
    return isinstance(v, (int, Fraction)) and type(v) is not bool


def _coefficient(c: int | Fraction) -> Fraction:
    if not _exact(c):
        raise TypeError(f"expected an int or Fraction coefficient, got {c!r}")
    return c if type(c) is Fraction else Fraction(c)


def poly(coeffs) -> RingElement:
    """POLY element from ascending-degree coefficients (ints or Fractions;
    ``TypeError`` otherwise, ``bool`` included)."""
    acc = {d: _coefficient(c) for d, c in enumerate(coeffs)}
    return RingElement(RingId.POLY, _canon(acc))


def skew(terms) -> RingElement:
    """SKEW element from a {(ydeg, xdeg): coefficient} mapping; degrees are
    ints, coefficients ints or Fractions (``TypeError`` otherwise, ``bool``
    included)."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (n, m), c in dict(terms).items():
        require_int("skew y-degree", n, 0)
        require_int("skew x-degree", m, 0)
        acc[(int(n), int(m))] = _coefficient(c)
    return RingElement(RingId.SKEW, _canon(acc))


def zero(ring: RingId) -> RingElement:
    return _ZEROS[ring]


def one(ring: RingId) -> RingElement:
    return _ONES[ring]


def is_zero(a: RingElement) -> bool:
    return not a.payload  # 0, Fraction(0) and () are the only zero payloads


# ---------------------------------------------------------------------------
# ring operations


def _sum_pair(p: Fraction, q: Fraction, subtract: bool) -> tuple[int, int]:
    """``p - q`` or ``p + q`` as an unreduced integer pair, over the shared
    denominator when there is one."""
    pn, pd = p.as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    if subtract:
        qn = -qn
    if pd == qd:
        return pn + qn, pd
    return pn * qd + qn * pd, pd * qd


def _negated(q: Fraction) -> Fraction:
    """``-q``: a reduced pair stays reduced with its sign flipped, so no
    ``gcd`` is taken."""
    n, d = q.as_integer_ratio()
    return reduced(-n, d, True)


def _add_or_sub(a: RingElement, b: RingElement, subtract: bool) -> RingElement:
    """``a - b`` or ``a + b``. On the term rings a coefficient of ``a`` or
    ``b`` alone is kept (negated for ``b`` under ``subtract``) and one
    ``Fraction`` is built for each monomial the two share."""
    _require_same_ring(a, b)
    p, q = a.payload, b.payload
    if type(p) is int:
        return RingElement(a.ring, p - q if subtract else p + q)
    if type(p) is not tuple:
        return RingElement(a.ring, reduced(*_sum_pair(p, q, subtract)))
    acc = dict(p)
    for key, c in q:
        old = acc.get(key)
        if old is None:
            acc[key] = _negated(c) if subtract else c
            continue
        n, d = _sum_pair(old, c, subtract)
        if n:
            acc[key] = reduced(n, d)
        else:
            del acc[key]
    return RingElement(a.ring, tuple(sorted(acc.items(), reverse=True)))  # keys are unique


def add(a: RingElement, b: RingElement) -> RingElement:
    return _add_or_sub(a, b, False)


def sub(a: RingElement, b: RingElement) -> RingElement:
    return _add_or_sub(a, b, True)


def neg(a: RingElement) -> RingElement:
    p = a.payload
    if type(p) is int:
        return RingElement(a.ring, -p)
    if type(p) is not tuple:
        return RingElement(a.ring, _negated(p))
    return RingElement(a.ring, tuple([(key, _negated(q)) for key, q in p]))


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Exact product.

    POLY multiplies monomials by adding degrees; SKEW's
    ``(y^n1 x^m1) * (y^n2 x^m2) = 2^(-m1*n2) * y^(n1+n2) x^(m1+m2)`` is the
    bilinear extension of the rewrite ``x*y = (1/2)*y*x``. A term-ring
    product is the one-pair ``sum_of_products``.
    """
    _require_same_ring(a, b)
    p, q = a.payload, b.payload
    if type(p) is int:
        return RingElement(a.ring, p * q)
    if type(p) is tuple:
        return sum_of_products(a.ring, (a,), (b,))
    pn, pd = p.as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    return RingElement(a.ring, reduced(pn * qn, pd * qd))


def sum_of_products(
    ring: RingId, left, right, minus: Optional[RingElement] = None, negate: bool = False
) -> RingElement:
    """``sum_i left[i] * right[i] - minus`` in ``ring``, negated when
    ``negate``, normalized once.

    ``minus`` defaults to zero, so one call gives a slack ``b_j - A_j x``
    (``minus=b_j, negate=True``), ``y A_i - c_i`` (``minus=c_i``) or an
    objective ``c.x - d`` (``minus=d``). Each product keeps ``left[i]`` on
    the left: its monomials multiply as :func:`mul` describes, worked out
    inline per ring. The result equals the fold
    ``acc = add(acc, mul(l, r))`` from ``zero(ring)`` followed by
    ``sub(acc, minus)`` and ``neg``, but builds a single element. INT
    payloads are summed as ``int``s and RAT/ODDRAT ones as an unreduced
    ``(num, den)`` pair of ints, both from ``-minus``. Each term-ring
    coefficient is kept as such a pair too, and a right operand's pairs are
    read once per ``(left[i], right[i])``: a product contributes
    ``(p.num * q.num, p.den * q.den)``, added to the numerator alone when
    its denominator equals the running one, and SKEW's ``2^-s`` is folded
    in as ``den << s``. ``minus`` is the starting pair (one more term on
    the term rings) and the sign is folded into the numerators, until one
    ``Fraction`` per sum, or per output monomial, is built at the end by
    :func:`reduced` (Henrici's gcd-saving rational arithmetic; Knuth,
    *TAOCP* 2, 4.5.1).
    Every element must be in ``ring`` (``RingMismatch``); the sequences
    must have equal lengths (``ValueError``).
    """
    if minus is None:
        acc = _ZEROS[ring].payload
    elif minus.ring is ring:
        acc = minus.payload
    else:
        _raise_mismatch(ring, minus, minus)
    sgn = -1 if negate else 1
    pairs = zip(left, right, strict=True)
    if type(acc) is int:
        n = -acc
        for a, b in pairs:
            if a.ring is not ring or b.ring is not ring:
                _raise_mismatch(ring, a, b)
            n += a.payload * b.payload
        return RingElement(ring, sgn * n)
    if type(acc) is not tuple:
        n, d = acc.as_integer_ratio()
        n = -n
        for a, b in pairs:
            if a.ring is not ring or b.ring is not ring:
                _raise_mismatch(ring, a, b)
            pn, pd = a.payload.as_integer_ratio()
            qn, qd = b.payload.as_integer_ratio()
            pd *= qd
            if pd == d:
                n += pn * qn
            else:
                n = n * pd + pn * qn * d
                d *= pd
        return RingElement(ring, reduced(sgn * n, d))
    terms = {}
    for key, q in acc:
        n, d = q.as_integer_ratio()
        terms[key] = (-sgn * n, d)
    skewed = ring is RingId.SKEW
    for a, b in pairs:
        if a.ring is not ring or b.ring is not ring:
            _raise_mismatch(ring, a, b)
        right = [(kb, *cb.as_integer_ratio()) for kb, cb in b.payload]
        for ka, ca in a.payload:
            na, da = ca.as_integer_ratio()
            na *= sgn
            for kb, nb, db in right:
                # the monomial product, as mul describes it
                if skewed:
                    key = (ka[0] + kb[0], ka[1] + kb[1])
                    d = (da * db) << (ka[1] * kb[0])
                else:
                    key, d = ka + kb, da * db
                n = na * nb
                old = terms.get(key)
                if old is None:
                    terms[key] = (n, d)
                elif old[1] == d:
                    terms[key] = (old[0] + n, d)
                else:
                    terms[key] = (old[0] * d + n * old[1], old[1] * d)
    items = sorted(terms.items(), reverse=True)  # monomials are unique keys
    return RingElement(ring, tuple([(key, reduced(n, d)) for key, (n, d) in items if n]))


def _raise_mismatch(ring: RingId, a: RingElement, b: RingElement) -> None:
    e = a if a.ring is not ring else b
    raise RingMismatch(
        f"cannot combine {ring.value} sum with {e.ring.value} element {to_text(e)}"
    )


def sign(a: RingElement) -> int:
    """+1, 0 or -1: the trichotomy position of ``a``.

    POLY: sign of the leading (highest-degree) coefficient. SKEW: sign of
    the coefficient at the lexicographically greatest ``(ydeg, xdeg)``.
    """
    v = a.payload
    if type(v) is tuple:
        if not v:
            return 0
        v = v[0][1]
    n = v.numerator
    return (n > 0) - (n < 0)


def compare(a: RingElement, b: RingElement) -> Ordering:
    """Order of ``a`` against ``b``: ``int`` payloads directly, ``Fraction``
    payloads by the sign of the one integer cross-multiplication
    ``p.num * q.den - q.num * p.den`` (denominators are positive), and
    term-ring payloads via the sign of ``a - b``."""
    _require_same_ring(a, b)
    p, q = a.payload, b.payload
    if type(p) is int:
        s = (p > q) - (p < q)
    elif type(p) is not tuple:
        pn, pd = p.as_integer_ratio()
        qn, qd = q.as_integer_ratio()
        s = pn * qd - qn * pd
    else:
        s = sign(sub(a, b))
    if s > 0:
        return Ordering.GT
    if s < 0:
        return Ordering.LT
    return Ordering.EQ


def _constant(a: RingElement) -> Optional[int | Fraction]:
    """The value of a scalar or of a nonzero term-ring constant, else ``None``."""
    p = a.payload
    if type(p) is not tuple:
        return p
    if len(p) == 1 and p[0][0] == _SPECS[a.ring].const:
        return p[0][1]
    return None


def try_invert(a: RingElement) -> Optional[RingElement]:
    """Two-sided inverse of ``a`` when it is a unit, else ``None``.

    The units are the nonzero constants c with 1/c in the ring.
    """
    c = _constant(a)
    if not c:
        return None
    try:
        return from_rational(a.ring, 1, c)
    except ValueError:  # 1/c lies outside the ring
        return None


def is_central(a: RingElement) -> bool:
    """Whether ``a`` commutes with the whole ring.

    Everything does in a commutative ring. SKEW is generated by x and y, so
    commuting with both generators suffices; that happens exactly for constants.
    """
    if descriptor(a.ring).is_commutative:
        return True
    return mul(a, SKEW_X) == mul(SKEW_X, a) and mul(a, SKEW_Y) == mul(SKEW_Y, a)


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
    return Magnitude.INFINITE if _constant(a) is None else Magnitude.FINITE


# ---------------------------------------------------------------------------
# text grammar
#
#   INT            -?[0-9]+
#   RAT, ODDRAT    int or int/uint
#   POLY           poly:c0,c1,...,ck     ascending degree, rational literals
#   SKEW           skew:n,m=q;n,m=q;...  ydeg,xdeg=coefficient, lex-descending;
#                  an empty term list ("skew:") is the zero element; no
#                  degree may exceed 1024
#
# Parsing is exact; serialization re-emits the canonical form (reduced
# fractions, dense ascending coefficients for POLY, lex-descending terms
# for SKEW).

# Matched with ``fullmatch``: a ``$`` anchor would also accept a trailing newline.
_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INT_RE = re.compile(r"-?[0-9]+")
_SKEW_TERM_RE = re.compile(r"([0-9]+),([0-9]+)=(-?[0-9]+(?:/[0-9]+)?)")
# A SKEW product allocates 2^(m1*n2), so literal degrees are bounded: at
# 1024 one product's denominator has at most about a million bits.
_SKEW_LITERAL_MAX_DEGREE = 1024


def _int(digits: str, literal: str) -> int:
    """``int(digits)``, or a ParseError naming ``literal`` when ``digits``
    is longer than ``int`` converts (``sys.get_int_max_str_digits()``)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"literal {literal[:20]!r}... has an integer of {len(digits.lstrip('-'))} digits, "
            "more than int() converts"
        ) from None


def _parse_fraction(text: str, literal: re.Pattern = _RAT_RE, noun: str = "rational") -> Fraction:
    if not literal.fullmatch(text):
        raise ParseError(f"malformed {noun} literal {text!r}")
    num, _, den = text.partition("/")
    den = _int(den or "1", text)
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(_int(num, text), den)


def _parse_poly_body(body: str) -> dict[int, Fraction]:
    if not body:
        raise ParseError("poly literal needs at least one coefficient")
    return {d: _parse_fraction(part) for d, part in enumerate(body.split(","))}


def _parse_skew_body(body: str) -> dict[tuple[int, int], Fraction]:
    acc: dict[tuple[int, int], Fraction] = {}
    for part in body.split(";") if body else ():
        m = _SKEW_TERM_RE.fullmatch(part)
        if not m:
            raise ParseError(f"malformed skew term {part!r}")
        key = (_int(m.group(1), part), _int(m.group(2), part))
        if max(key) > _SKEW_LITERAL_MAX_DEGREE:
            raise ParseError(f"skew degree above {_SKEW_LITERAL_MAX_DEGREE} in {part!r}")
        if key in acc:
            raise ParseError(f"duplicate skew monomial {part.split('=')[0]}")
        acc[key] = _parse_fraction(m.group(3))
    return acc


def _frac_text(q: int | Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _poly_body_text(p: tuple) -> str:
    coeffs = dict(p)
    top = p[0][0] if p else 0
    return ",".join(_frac_text(coeffs.get(d, _F0)) for d in range(top + 1))


def _skew_body_text(p: tuple) -> str:
    return ";".join(f"{n},{m}={_frac_text(q)}" for (n, m), q in p)


def parse_element(ring: RingId, text: str) -> RingElement:
    """Parse one element literal of ``ring``; raises ParseError."""
    spec = _SPECS[ring]
    if not text.startswith(spec.prefix):
        raise ParseError(f"{ring.value} literal must start with {spec.prefix!r}: {text!r}")
    value = spec.parse_body(text[len(spec.prefix):])
    if spec.const is not None:
        return RingElement(ring, _canon(value))
    try:
        return RingElement(ring, spec.scalar(value))
    except ValueError as exc:
        raise ParseError(f"{text!r}: {exc}") from None


def to_text(a: RingElement) -> str:
    """Canonical text form; ``parse_element`` inverts it exactly."""
    spec = _SPECS[a.ring]
    return spec.prefix + spec.body_text(a.payload)


def _power(var: str, d: int) -> str:
    if d == 0:
        return ""
    return var if d == 1 else f"{var}^{d}"


def pretty(a: RingElement) -> str:
    """Human-oriented algebraic rendering (not part of the grammar)."""
    if type(a.payload) is not tuple:
        return to_text(a)
    mono_text = _SPECS[a.ring].mono_text
    out = ""
    for i, (key, q) in enumerate(a.payload):
        mono = mono_text(key)
        qa = abs(q)
        body = mono if (mono and qa == 1) else (f"{_frac_text(qa)}*{mono}" if mono else _frac_text(qa))
        if i == 0:
            out = ("-" if q < 0 else "") + body
        else:
            out += (" - " if q < 0 else " + ") + body
    return out or "0"


# ---------------------------------------------------------------------------
# the per-ring records


@record
class _RingSpec:
    """What one ring does differently from the others."""

    prefix: str  # literal prefix; empty for the scalar rings
    parse_body: Callable[[str], Union[Fraction, dict]]  # the literal after the prefix
    body_text: Callable[[Payload], str]  # inverse of parse_body
    # scalar rings: rational -> payload, ValueError when it is not in the ring
    scalar: Optional[Callable[[Fraction], Payload]] = None
    const: object = None  # term rings: the constant monomial
    mono_text: Optional[Callable[[object], str]] = None  # term rings, for pretty


def _integer(q: Fraction) -> int:
    if q.denominator != 1:
        raise ValueError(f"{q} is not an integer")
    return q.numerator


def _odd_denominator(q: Fraction) -> Fraction:
    if q.denominator % 2 == 0:
        raise ValueError(f"{q} has an even denominator; not an odd-denominator rational")
    return q


_SPECS = {
    RingId.INT: _RingSpec(
        "", lambda t: _parse_fraction(t, _INT_RE, "integer"), _frac_text, scalar=_integer
    ),
    RingId.RAT: _RingSpec("", _parse_fraction, _frac_text, scalar=lambda q: q),
    RingId.ODDRAT: _RingSpec("", _parse_fraction, _frac_text, scalar=_odd_denominator),
    RingId.POLY: _RingSpec(
        "poly:", _parse_poly_body, _poly_body_text,
        const=0,
        mono_text=lambda d: _power("x", d),
    ),
    RingId.SKEW: _RingSpec(
        "skew:", _parse_skew_body, _skew_body_text,
        const=(0, 0),
        mono_text=lambda k: "*".join(filter(None, (_power("y", k[0]), _power("x", k[1])))),
    ),
}

POLY_X = poly([0, 1])
SKEW_X = skew({(0, 1): 1})
SKEW_Y = skew({(1, 0): 1})

_ZEROS = {r: from_int(r, 0) for r in RingId}
_ONES = {r: from_int(r, 1) for r in RingId}

_DESCRIPTORS = {
    RingId.INT: RingDescriptor(RingId.INT, True, False, one(RingId.INT), is_enumerable=True),
    RingId.RAT: RingDescriptor(RingId.RAT, True, True, None, is_enumerable=True),
    RingId.ODDRAT: RingDescriptor(RingId.ODDRAT, True, False, None, is_enumerable=True),
    RingId.POLY: RingDescriptor(RingId.POLY, True, False, None),
    RingId.SKEW: RingDescriptor(RingId.SKEW, False, False, None),
}


def descriptor(ring: RingId) -> RingDescriptor:
    return _DESCRIPTORS[ring]


def all_descriptors() -> tuple[RingDescriptor, ...]:
    return tuple(_DESCRIPTORS[r] for r in RingId)
