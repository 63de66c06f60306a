"""Independent oracles the tests check the library against.

Each oracle deliberately avoids the code path it verifies. The library's
``add``, ``sub`` and ``mul`` are kernel calls on every ring, so no oracle
calls them or ``neg``: products are the payload product on the scalar
rings, a coefficient convolution on POLY and literal word rewriting on
SKEW, and sums and negations are ``Fraction`` arithmetic on the payloads
(one dict entry per monomial on the term rings). ``fold`` sums those
products that way from ``zero(ring)``, each left factor on the left, so it
shares no code with ``sum_of_products``.
Kernel sums and the products a program is made of, ``mat_apply`` (A x),
``covec_apply`` (y A) and ``dot_left`` (u.v), are such folds; ``vec_add``
and ``vec_sub`` work entry by entry. Box optima come from a plain Fraction
scan, box grids as sorted sets of Fractions, their keys and refusals by
appending each lowest-terms pair and checking both limits on every append,
the box walk's key tuples from the whole grid product filtered by each
line's full sum, the two
equation identities by expanding both sides as raw double sums of those
oracles, and feasibility verdicts from the whole slack built by such
element-per-step folds. ``ReferenceSampler``
redraws the seeded element stream from the ``ringlp.sampling`` docstring
alone, with its own generator step and constants.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ringlp import (
    DimensionMismatch,
    FeasibilityVerdict,
    ProgramData,
    RingElement,
    RingId,
    RingMismatch,
    RMatrix,
    RVector,
    ViolationKind,
    from_int,
    from_rational,
    poly,
    sign,
    skew,
    vector,
    zero,
)


def skew_mul_by_rewriting(a: RingElement, b: RingElement) -> RingElement:
    """Multiply skew elements by concatenating letter words and rewriting
    every adjacent "xy" into (1/2)"yx" until the word is y-before-x."""
    assert a.ring is RingId.SKEW and b.ring is RingId.SKEW
    acc: dict[tuple[int, int], Fraction] = {}
    for (n1, m1), c1 in a.payload:
        for (n2, m2), c2 in b.payload:
            word = "y" * n1 + "x" * m1 + "y" * n2 + "x" * m2
            coeff = c1 * c2
            coeff, word = _rewrite(coeff, list(word))
            key = (word.count("y"), word.count("x"))
            acc[key] = acc.get(key, Fraction(0)) + coeff
    return skew({k: v for k, v in acc.items() if v})


def poly_mul_by_convolution(a: RingElement, b: RingElement) -> RingElement:
    """The POLY product as a plain coefficient convolution."""
    assert a.ring is RingId.POLY and b.ring is RingId.POLY
    acc: dict[int, Fraction] = {}
    for da, qa in a.payload:
        for db, qb in b.payload:
            acc[da + db] = acc.get(da + db, Fraction(0)) + qa * qb
    return poly([acc.get(d, 0) for d in range(max(acc, default=-1) + 1)])


def product_by_oracle(a: RingElement, b: RingElement) -> RingElement:
    """``a * b`` without the library's kernel: the payload product on the
    scalar rings, the convolution on POLY and the word rewriting on SKEW."""
    if a.ring is RingId.POLY:
        return poly_mul_by_convolution(a, b)
    if a.ring is RingId.SKEW:
        return skew_mul_by_rewriting(a, b)
    return _from_fraction_payload(a.ring, a.payload * b.payload)


def _from_fraction_payload(ring: RingId, value) -> RingElement:
    """The element of a scalar, or of a {monomial: Fraction} dict, through the
    validating constructors."""
    if type(value) is not dict:
        return from_rational(ring, value)
    if ring is RingId.POLY:
        return poly([value.get(d, 0) for d in range(max(value, default=-1) + 1)])
    return skew({key: q for key, q in value.items() if q})


def termwise_by_fractions(a: RingElement, b: RingElement, subtract: bool) -> RingElement:
    """``a + b``, or ``a - b`` under ``subtract``, in plain ``int`` and
    ``Fraction`` arithmetic: on the payloads of the scalar rings, and one
    dict entry per monomial, folded term by term, on POLY and SKEW."""
    s = -1 if subtract else 1
    if type(a.payload) is not tuple:
        return _from_fraction_payload(a.ring, a.payload + s * b.payload)
    acc: dict = {}
    for key, q in a.payload:
        acc[key] = acc.get(key, Fraction(0)) + q
    for key, q in b.payload:
        acc[key] = acc.get(key, Fraction(0)) + s * q
    return _from_fraction_payload(a.ring, acc)


def negation_by_fractions(a: RingElement) -> RingElement:
    """``-a``, negating the payload, or each coefficient, as a ``Fraction``."""
    if type(a.payload) is not tuple:
        return _from_fraction_payload(a.ring, -a.payload)
    return _from_fraction_payload(a.ring, {key: -q for key, q in a.payload})


def fold(ring: RingId, left, right) -> RingElement:
    """``sum_i left[i] * right[i]``: a :func:`termwise_by_fractions` fold
    from ``zero(ring)`` of :func:`product_by_oracle`, each ``left[i]`` on the
    left."""
    acc = zero(ring)
    for a, b in zip(left, right, strict=True):
        acc = termwise_by_fractions(acc, product_by_oracle(a, b), False)
    return acc


def sum_of_products_by_fold(ring: RingId, left, right, minus=None, negate=False) -> RingElement:
    """``sum_i left[i] * right[i] - minus``, negated when ``negate``: the
    :func:`fold`, then :func:`termwise_by_fractions` and
    :func:`negation_by_fractions`, so it shares no code with the library's
    kernel, which ``add``, ``sub`` and ``mul`` call on every ring."""
    acc = fold(ring, left, right)
    if minus is not None:
        acc = termwise_by_fractions(acc, minus, True)
    return negation_by_fractions(acc) if negate else acc


def _require_alike(ring: RingId, other: RingId, n: int, k: int) -> None:
    if ring is not other:
        raise RingMismatch(f"mixed rings {ring.value} and {other.value}")
    if n != k:
        raise DimensionMismatch(f"lengths differ: {n} vs {k}")


def mat_apply(A: RMatrix, x: RVector) -> RVector:
    """(A x)_j = sum_i A[j,i] * x[i], matrix entry on the left."""
    _require_alike(A.ring, x.ring, A.cols, len(x))
    return vector(A.ring, (fold(A.ring, A.row(j), x) for j in range(A.rows)))


def covec_apply(y: RVector, A: RMatrix) -> RVector:
    """(y A)_i = sum_j y[j] * A[j,i], row-vector entry on the left."""
    _require_alike(y.ring, A.ring, len(y), A.rows)
    columns = ([A.entry(j, i) for j in range(A.rows)] for i in range(A.cols))
    return vector(A.ring, (fold(A.ring, y, column) for column in columns))


def dot_left(u: RVector, v: RVector) -> RingElement:
    """sum_i u[i] * v[i] with u's entry on the left of each product."""
    _require_alike(u.ring, v.ring, len(u), len(v))
    return fold(u.ring, u, v)


def vec_add(u: RVector, v: RVector) -> RVector:
    _require_alike(u.ring, v.ring, len(u), len(v))
    return vector(u.ring, (termwise_by_fractions(a, b, False) for a, b in zip(u, v)))


def vec_sub(u: RVector, v: RVector) -> RVector:
    _require_alike(u.ring, v.ring, len(u), len(v))
    return vector(u.ring, (termwise_by_fractions(a, b, True) for a, b in zip(u, v)))


def _rewrite(coeff: Fraction, letters: list[str]) -> tuple[Fraction, str]:
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == "x" and letters[i + 1] == "y":
                letters[i], letters[i + 1] = "y", "x"
                coeff *= Fraction(1, 2)
                changed = True
                break
    return coeff, "".join(letters)


def _slack_by_folds(P: ProgramData, point, primal: bool) -> list:
    """t = b - A x (primal) or s = y A - c (dual), each entry a raw sum of
    :func:`product_by_oracle` terms, added and subtracted by
    :func:`termwise_by_fractions` and negated by :func:`negation_by_fractions`."""
    m, n = P.rows, P.cols
    slack = []
    if primal:
        for j in range(m):
            t_j = P.b[j]
            for i in range(n):
                t_j = termwise_by_fractions(t_j, product_by_oracle(P.A.entry(j, i), point[i]), True)
            slack.append(t_j)
    else:
        for i in range(n):
            s_i = negation_by_fractions(P.c[i])
            for j in range(m):
                s_i = termwise_by_fractions(s_i, product_by_oracle(point[j], P.A.entry(j, i)), False)
            slack.append(s_i)
    return slack


def _expanded_parts(P: ProgramData, x, y):
    """f(x) = c.x - d, g(y) = y.b - d, s = y A - c and t = b - A x, all by
    the payload oracles."""
    f = termwise_by_fractions(fold(P.ring, P.c, x), P.d, True)
    g = termwise_by_fractions(fold(P.ring, y, P.b), P.d, True)
    return f, g, _slack_by_folds(P, y, False), _slack_by_folds(P, x, True)


def expand_key_equation_sides(P: ProgramData, x, y):
    """Both sides of the key equation as raw double sums:
    left  = sum_i s_i x_i - g(y), right = sum_j y_j (-t_j) - f(x),
    with f, g, s and t themselves expanded inline."""
    f, g, s, t = _expanded_parts(P, x, y)
    minus_t = [negation_by_fractions(t_j) for t_j in t]
    left = termwise_by_fractions(fold(P.ring, s, x), g, True)
    return left, termwise_by_fractions(fold(P.ring, y, minus_t), f, True)


def expand_duality_equation_sides(P: ProgramData, x, y):
    """left = g(y) - f(x), right = s.x + y.t with f, g and the slacks
    expanded inline."""
    f, g, s, t = _expanded_parts(P, x, y)
    right = termwise_by_fractions(fold(P.ring, s, x), fold(P.ring, y, t), False)
    return termwise_by_fractions(g, f, True), right


def feasibility_verdict_by_folds(P: ProgramData, point, primal: bool) -> FeasibilityVerdict:
    """The primal (x) or dual (y) verdict from the whole slack, each entry
    a fold of oracle sums and products: the point's ring and length are
    checked, then the first negative coordinate is reported, else the first
    negative entry of t = b - A x (primal) or s = y A - c (dual)."""
    if point.ring is not P.ring:
        raise RingMismatch(f"mixed rings {P.ring.value} and {point.ring.value}")
    if len(point) != (P.cols if primal else P.rows):
        raise DimensionMismatch(f"point has length {len(point)}")
    for i, e in enumerate(point):
        if sign(e) < 0:
            return FeasibilityVerdict(False, i, ViolationKind.NEGATIVE_VARIABLE)
    for k, e in enumerate(_slack_by_folds(P, point, primal)):
        if sign(e) < 0:
            return FeasibilityVerdict(False, k, ViolationKind.SLACK_NEGATIVE)
    return FeasibilityVerdict(True)


def brute_force_box_optimum(A, b, c, d, values, maximize):
    """Plain-Fraction scan over the grid; returns (best_value, witness) or None.

    A, b, c are lists of Fractions (A row-major nested), values the grid of
    Fraction candidates per variable. Commutative arithmetic only.
    """
    m = len(b)
    n = len(c)
    best = None
    points = itertools.product(values, repeat=n if maximize else m)
    for point in points:
        if maximize:
            ok = all(
                sum(A[j][i] * point[i] for i in range(n)) <= b[j] for j in range(m)
            )
            val = sum(c[i] * point[i] for i in range(n)) - d
        else:
            ok = all(
                sum(point[j] * A[j][i] for j in range(m)) >= c[i] for i in range(n)
            )
            val = sum(point[j] * b[j] for j in range(m)) - d
        if not ok:
            continue
        key = (val, point)
        if best is None:
            best = key
        elif maximize and (val > best[0] or (val == best[0] and point < best[1])):
            best = key
        elif not maximize and (val < best[0] or (val == best[0] and point < best[1])):
            best = key
    return best


def box_grid_by_fractions(ring: RingId, bound: int, den_bound) -> list[Fraction]:
    """The per-variable box grid as ``sorted({Fraction(num, den)})``: 0..N on
    INT; otherwise every numerator 0..N*D over each denominator d <= D that
    is a unit of the ring (every d on RAT, the odd ones on ODDRAT)."""
    if ring is RingId.INT:
        return [Fraction(v) for v in range(bound + 1)]
    d_bound = den_bound or 1
    dens = [d for d in range(1, d_bound + 1) if ring is RingId.RAT or d % 2 == 1]
    return sorted({Fraction(num, den) for den in dens for num in range(bound * d_bound + 1)})


def grid_by_pairs(ring: RingId, bound: int, den_bound, nvars: int, cap: int, budget: int) -> tuple:
    """The box grid's ``(keys, G)`` by a value-by-value loop: every
    lowest-terms pair ``(num, den)`` in a list, denominator by denominator
    (the odd ones on ODDRAT), checking the point cap ``len ** nvars`` and then
    the key-bit budget ``len * bits(G so far)`` as each is appended, after
    denominator 1 alone against the cap. A refusal is the ``ValueError`` of
    the first limit a value crosses; INT is 0..N under the cap alone."""
    too_large = "search box too large for exhaustive scan"
    if ring is RingId.INT:
        if (bound + 1) ** nvars > cap:
            raise ValueError(too_large)
        return tuple(range(bound + 1)), 1
    d_bound = den_bound or 1
    if (bound * d_bound + 1) ** nvars > cap:
        raise ValueError(too_large)
    pairs, G = [], 1
    for den in range(1, d_bound + 1):
        if ring is RingId.ODDRAT and den % 2 == 0:
            continue
        G = G * den // math.gcd(G, den)
        for num in range(bound * d_bound + 1):
            if math.gcd(num, den) == 1:
                pairs.append((num, den))
                if len(pairs) ** nvars > cap:
                    raise ValueError(too_large)
                if len(pairs) * G.bit_length() > budget:
                    raise ValueError(f"{too_large}: keys over {budget} bits per variable")
    return tuple(sorted(num * (G // den) for num, den in pairs)), G


def point_walk(P: ProgramData, primal: bool, grid: tuple, form: tuple):
    """``enumeration._feasible_walk``'s key tuples point by point: every
    tuple of the grid's keys over the whole ``itertools.product``, in
    lexicographic order, whose full sum ``a . point`` meets every line
    ``(a, k)`` of the side's integer form scaled by the grid's G."""
    keys, G, _ = grid
    lines, n = (form[0], P.cols) if primal else (form[1], P.rows)
    for point in itertools.product(keys, repeat=n):
        if all(sum(a_i * k_i for a_i, k_i in zip(a, point, strict=True)) <= k * G for a, k in lines):
            yield point


class ReferenceSampler:
    """The element stream of ``Sampler(seed)`` as the ``ringlp.sampling``
    docstring states it: one generator step per bounded draw, ``Fraction``
    arithmetic and the validating constructors, never ``Sampler`` itself."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def draw(self, lo: int, hi: int) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) % 2**64
        return lo + (self.state >> 32) % (hi - lo + 1)

    def rational(self, odd: bool = False) -> Fraction:
        num, den = self.draw(-1000, 1000), self.draw(1, 50)
        while odd and den % 2 == 0:
            den = self.draw(1, 50)
        return Fraction(num, den)

    def sample(self, ring: RingId) -> RingElement:
        if ring is RingId.INT:
            return from_int(ring, self.draw(-1000, 1000))
        if ring is RingId.POLY:
            degree = self.draw(0, 4)
            return poly([self.rational() for _ in range(degree + 1)])
        if ring is RingId.SKEW:
            acc: dict[tuple[int, int], Fraction] = {}
            for _ in range(self.draw(0, 5)):
                key = (self.draw(0, 3), self.draw(0, 3))
                acc[key] = acc.get(key, 0) + self.rational()
            return skew(acc)
        return from_rational(ring, self.rational(odd=ring is RingId.ODDRAT))

    def sample_nonneg(self, ring: RingId) -> RingElement:
        e = self.sample(ring)
        lead = e.payload  # the scalar, or the leading coefficient
        if type(lead) is tuple:
            lead = lead[0][1] if lead else 0
        return negation_by_fractions(e) if lead < 0 else e

    def sample_central(self, ring: RingId) -> RingElement:
        if ring is RingId.SKEW:
            return from_rational(ring, self.rational())
        return self.sample(ring)
