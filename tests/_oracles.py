"""Independent oracles the tests check the library against.

Each oracle deliberately avoids the code path it verifies: skew products
are recomputed by literal word rewriting, poly products by a coefficient
convolution, term-ring kernel sums by a fold of those products, box
optima by a plain Fraction scan, box grids as sorted sets of Fractions,
the two equation identities by expanding both sides as raw double sums,
and feasibility verdicts from the whole slack built by element-per-step
folds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ringlp import (
    DimensionMismatch,
    FeasibilityVerdict,
    ProgramData,
    RingElement,
    RingId,
    RingMismatch,
    ViolationKind,
    add,
    eval_f,
    eval_g,
    mul,
    neg,
    poly,
    sign,
    skew,
    sub,
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


def sum_of_products_by_fold(ring: RingId, left, right, minus=None, negate=False) -> RingElement:
    """``sum_i left[i] * right[i] - minus`` on POLY or SKEW, negated when
    ``negate``: an ``add`` fold from zero whose products are the
    convolution or the word rewriting above, each ``left[i]`` on the left,
    so it shares no product code with the library's kernel."""
    product = poly_mul_by_convolution if ring is RingId.POLY else skew_mul_by_rewriting
    acc = zero(ring)
    for a, b in zip(left, right, strict=True):
        acc = add(acc, product(a, b))
    if minus is not None:
        acc = sub(acc, minus)
    return neg(acc) if negate else acc


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


def expand_key_equation_sides(P: ProgramData, x, y):
    """Both sides of the key equation as raw double sums:
    left  = sum_i s_i x_i - g(y), right = sum_j y_j (-t_j) - f(x),
    with s and t themselves expanded inline."""
    ring = P.ring
    m, n = P.rows, P.cols
    left = neg(eval_g(P, y))
    for i in range(n):
        s_i = neg(P.c[i])
        for j in range(m):
            s_i = add(s_i, mul(y[j], P.A.entry(j, i)))
        left = add(left, mul(s_i, x[i]))
    right = neg(eval_f(P, x))
    for j in range(m):
        t_j = P.b[j]
        for i in range(n):
            t_j = sub(t_j, mul(P.A.entry(j, i), x[i]))
        right = add(right, mul(y[j], neg(t_j)))
    return left, right


def expand_duality_equation_sides(P: ProgramData, x, y):
    """left = g(y) - f(x), right = s.x + y.t with slacks expanded inline."""
    ring = P.ring
    m, n = P.rows, P.cols
    left = sub(eval_g(P, y), eval_f(P, x))
    right = zero(ring)
    for i in range(n):
        s_i = neg(P.c[i])
        for j in range(m):
            s_i = add(s_i, mul(y[j], P.A.entry(j, i)))
        right = add(right, mul(s_i, x[i]))
    for j in range(m):
        t_j = P.b[j]
        for i in range(n):
            t_j = sub(t_j, mul(P.A.entry(j, i), x[i]))
        right = add(right, mul(y[j], t_j))
    return left, right


def feasibility_verdict_by_folds(P: ProgramData, point, primal: bool) -> FeasibilityVerdict:
    """The primal (x) or dual (y) verdict from the whole slack, each entry
    an ``add``/``mul`` fold: the point's ring and length are checked, then
    the first negative coordinate is reported, else the first negative
    entry of t = b - A x (primal) or s = y A - c (dual)."""
    m, n = P.rows, P.cols
    if point.ring is not P.ring:
        raise RingMismatch(f"mixed rings {P.ring.value} and {point.ring.value}")
    if len(point) != (n if primal else m):
        raise DimensionMismatch(f"point has length {len(point)}")
    for i, e in enumerate(point):
        if sign(e) < 0:
            return FeasibilityVerdict(False, i, ViolationKind.NEGATIVE_VARIABLE)
    slack = []
    if primal:
        for j in range(m):
            t_j = P.b[j]
            for i in range(n):
                t_j = sub(t_j, mul(P.A.entry(j, i), point[i]))
            slack.append(t_j)
    else:
        for i in range(n):
            s_i = neg(P.c[i])
            for j in range(m):
                s_i = add(s_i, mul(point[j], P.A.entry(j, i)))
            slack.append(s_i)
    for k, e in enumerate(slack):
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
