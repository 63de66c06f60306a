import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import ringlp.affine as affine
import ringlp.rings as rings
from ringlp import (
    BoxSpec,
    BundleKind,
    DimensionMismatch,
    PreconditionError,
    ProgramData,
    RingId,
    RingMismatch,
    Scope,
    StatusKind,
    add,
    candidate_values,
    certify_optimal_pair,
    classify_edt,
    enumerate_dual,
    enumerate_primal,
    eval_f,
    feasible_points,
    from_int,
    from_rational,
    infeasible_optimal_program,
    is_primal_feasible,
    matrix,
    neg,
    strong_duality_counterexample,
    sub,
    to_text,
    verify_bundle,
    vector,
)

import ringlp.enumeration as enumeration
from ringlp.enumeration import _grid_values, judge_optimal_pair

from _oracles import (
    box_grid_by_fractions,
    brute_force_box_optimum,
    feasibility_verdict_by_folds,
    grid_by_pairs,
    point_walk,
)
from conftest import counting_constructions, int_matrix, int_vector, make_edt_program, make_gap_program


def _rat_vec(values):
    return vector(RingId.RAT, [from_rational(RingId.RAT, v) for v in values])


def _program(A_rows, b, c, d=0, ring=RingId.INT):
    return ProgramData(
        ring,
        int_matrix(ring, A_rows),
        int_vector(ring, b),
        int_vector(ring, c),
        from_int(ring, d),
    )


# ---------------------------------------------------------------------------
# the shipped counterexample data


def test_gap_program_enumeration(gap_int):
    box = BoxSpec(10)
    primal = enumerate_primal(gap_int, box)
    dual = enumerate_dual(gap_int, box)
    assert primal.kind is StatusKind.OPTIMAL
    assert primal.witness == int_vector(RingId.INT, [0])
    assert primal.value == from_int(RingId.INT, 0)
    assert dual.kind is StatusKind.OPTIMAL
    assert dual.witness == int_vector(RingId.INT, [1])
    assert dual.value == from_int(RingId.INT, 1)
    assert primal.scope is Scope.BOX_LIMITED  # the oracle never argues its box suffices


def test_edt_program_enumeration(edt_int):
    box = BoxSpec(10)
    primal = enumerate_primal(edt_int, box)
    dual = enumerate_dual(edt_int, box)
    assert primal.kind is StatusKind.INFEASIBLE
    assert primal.note == "no feasible point in box"
    assert dual.kind is StatusKind.OPTIMAL
    assert dual.witness == int_vector(RingId.INT, [0, 0])
    assert dual.value == from_int(RingId.INT, 0)


def test_rational_box_recovers_the_half_point():
    P = make_gap_program(RingId.RAT)
    box = BoxSpec(2, 2)
    primal = enumerate_primal(P, box)
    dual = enumerate_dual(P, box)
    half = _rat_vec([Fraction(1, 2)])
    assert primal.kind is StatusKind.OPTIMAL and primal.witness == half
    assert to_text(primal.value) == "1/2"
    assert dual.kind is StatusKind.OPTIMAL and dual.witness == half
    assert to_text(dual.value) == "1/2"


def test_oddrat_candidates_have_odd_denominators():
    values = candidate_values(RingId.ODDRAT, BoxSpec(2, 4))
    assert all(v.payload.denominator % 2 == 1 for v in values)
    # and the even-denominator point 1/2 is genuinely absent
    assert all(v.payload != Fraction(1, 2) for v in values)


def test_candidates_sorted_and_deduplicated():
    values = candidate_values(RingId.RAT, BoxSpec(2, 2))
    raw = [v.payload for v in values]
    assert raw == sorted(set(raw))
    assert raw[0] == 0 and raw[-1] == 4
    # a ring with a smallest positive element ignores the denominator bound
    assert [v.payload for v in candidate_values(RingId.INT, BoxSpec(3, 4))] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# against the plain-Fraction oracle


@pytest.mark.parametrize(
    "A_rows,b,c,d",
    [
        ([[2]], [1], [1], 0),
        ([[2], [-2]], [1, -1], [0], 0),
        ([[1, 2], [2, 1]], [7, 8], [3, 1], 1),
        ([[1, -1]], [2], [1, 1], 0),
        # g is constant, so every feasible y ties; the witness must be (0, 1)
        ([[1], [1]], [0, 0], [1], 0),
    ],
)
def test_enumeration_matches_brute_force(A_rows, b, c, d):
    A_frac = [[Fraction(e) for e in row] for row in A_rows]
    b_frac = [Fraction(v) for v in b]
    c_frac = [Fraction(v) for v in c]
    # each grid also built here, independently, as sorted Fraction(n, den)
    grids = [
        (RingId.INT, BoxSpec(6), [Fraction(v) for v in range(7)]),
        (RingId.RAT, BoxSpec(2, 3), sorted(
            {Fraction(n, den) for den in (1, 2, 3) for n in range(7)}
        )),
        (RingId.ODDRAT, BoxSpec(2, 3), sorted(
            {Fraction(n, den) for den in (1, 3) for n in range(7)}
        )),
    ]
    for ring, box, values in grids:
        P = _program(A_rows, b, c, d, ring)
        for primal_side in (True, False):
            status = (
                enumerate_primal(P, box) if primal_side else enumerate_dual(P, box)
            )
            oracle = brute_force_box_optimum(
                A_frac, b_frac, c_frac, Fraction(d), values, primal_side
            )
            if oracle is None:
                assert status.kind is StatusKind.INFEASIBLE
            else:
                val, wit = oracle
                assert status.value.payload == val
                assert tuple(e.payload for e in status.witness) == wit


_UNIT_DENOMINATORS = {RingId.INT: (1,), RingId.RAT: (1, 2, 3, 4, 6), RingId.ODDRAT: (1, 3, 5)}


@st.composite
def rational_programs(draw):
    """``(ring, A, b, c, d, bound, den)`` as Fractions, with 1-2 rows and
    columns (mostly 2). Each objective row (c, or b) is all zero a quarter
    of the time, so every feasible point ties; otherwise its weights lie
    over distinct denominators of the ring, so their common denominator L
    exceeds 1 on RAT and ODDRAT. Half the programs have entries of either
    sign; the other half are packing programs (A, b, c >= 0), whose optima
    trade one variable against another, so a ranking that drops L picks
    the wrong one."""
    ring = draw(st.sampled_from((RingId.INT, RingId.RAT, RingId.ODDRAT)))
    dens = _UNIT_DENOMINATORS[ring]
    m, n = (draw(st.sampled_from((1, 2, 2))) for _ in range(2))
    nums = st.integers(0 if draw(st.booleans()) else -6, 6)

    def scalar():
        return Fraction(draw(nums), draw(st.sampled_from(dens)))

    def weights(k):
        if draw(st.integers(0, 3)) == 0:
            return [Fraction(0)] * k
        return [Fraction(draw(nums), den) for den in (draw(st.permutations(dens)) * k)[:k]]

    A = [[scalar() for _ in range(n)] for _ in range(m)]
    b, c, d = weights(m), weights(n), scalar()
    den = None if ring is RingId.INT else draw(st.integers(1, 3))
    return ring, A, b, c, d, draw(st.integers(1, 3)), den


def _assert_matches_oracle(status, oracle, face):
    if oracle is None:
        assert status.kind is StatusKind.INFEASIBLE
        assert status.witness is None and status.value is None
        return
    val, wit = oracle
    kind = StatusKind.FEASIBLE_UNBOUNDED_IN_BOX if face in wit else StatusKind.OPTIMAL
    assert status.kind is kind
    assert status.value.payload == val
    assert tuple(e.payload for e in status.witness) == wit


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@settings(max_examples=200)
@given(rational_programs())
# L matters: with the weights' numerators alone every point on x1 + x2 = 2
# (y1 + y2 = 1) would tie, and the first of them is not the optimum
@example((RingId.RAT, [[Fraction(1), Fraction(1)]], [Fraction(2)], [_HALF, _THIRD], Fraction(0), 2, 1))
@example((RingId.RAT, [[Fraction(1)], [Fraction(1)]], [_THIRD, _HALF], [Fraction(1)], Fraction(0), 2, 1))
def test_rational_scans_match_brute_force(drawn):
    """Scans that rank points by integer keys agree with the plain-Fraction
    oracle on programs with fractional, negative and all-zero weights: the
    kind (face included), the value and the lexicographically smallest
    optimal witness, for each side alone and for the pair."""
    ring, A, b, c, d, bound, den = drawn
    P = ProgramData(
        ring,
        matrix(ring, [[from_rational(ring, e) for e in row] for row in A]),
        vector(ring, [from_rational(ring, e) for e in b]),
        vector(ring, [from_rational(ring, e) for e in c]),
        from_rational(ring, d),
    )
    box = BoxSpec(bound, den)
    grid = box_grid_by_fractions(ring, bound, den)
    oracles = [brute_force_box_optimum(A, b, c, d, grid, maximize) for maximize in (True, False)]
    report = classify_edt(P, box)
    for scanned, oracle in zip(
        ((enumerate_primal(P, box), report.primal), (enumerate_dual(P, box), report.dual)), oracles
    ):
        for status in scanned:
            _assert_matches_oracle(status, oracle, grid[-1])
    if report.case == 4:
        assert report.gap_value.payload == oracles[1][0] - oracles[0][0]


@st.composite
def small_programs(draw):
    """``(P, box)``: INT, RAT or ODDRAT, 1-2 rows and columns, every entry of
    A, b, c and d a numerator in -4..4 over a unit denominator of the ring
    up to 3, and a box of N <= 4 and D <= 3 (no D on INT)."""
    ring = draw(st.sampled_from((RingId.INT, RingId.RAT, RingId.ODDRAT)))
    dens = [d for d in _UNIT_DENOMINATORS[ring] if d <= 3]

    def element():
        return from_rational(ring, Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from(dens))))

    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    A = matrix(ring, [[element() for _ in range(n)] for _ in range(m)])
    b, c = (vector(ring, [element() for _ in range(k)]) for k in (m, n))
    P = ProgramData(ring, A, b, c, element())
    den = None if ring is RingId.INT else draw(st.integers(1, 3))
    return P, BoxSpec(draw(st.integers(1, 4)), den)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_the_walk_yields_the_oracle_feasible_grid_points_in_lexicographic_order(drawn):
    """On both sides, ``feasible_points`` is the lexicographic product of the
    ``Fraction`` grid filtered by the fold-built verdict, oracles that share
    no code with the walk's verdict on the integer form."""
    P, box = drawn
    grid = box_grid_by_fractions(P.ring, box.bound, box.denominator_bound)
    for primal in (True, False):
        want = []
        for point in product(grid, repeat=P.cols if primal else P.rows):
            vec = vector(P.ring, [from_rational(P.ring, q) for q in point])
            if feasibility_verdict_by_folds(P, vec, primal).feasible:
                want.append(list(point))
        got = [[e.payload for e in vec] for vec in feasible_points(P, box, primal)]
        assert got == want


def _transposed(P: ProgramData) -> ProgramData:
    """(-A^T, -c, -b, -d): the program whose primal is the dual of P, with
    the objective negated."""
    A, ring = P.A, P.ring
    columns = [[neg(A.entry(j, i)) for j in range(A.rows)] for i in range(A.cols)]
    b, c = (vector(ring, map(neg, v)) for v in (P.c, P.b))
    return ProgramData(ring, matrix(ring, columns), b, c, neg(P.d))


def _moved(status, shift):
    """What ``status`` says once every value goes to ``shift(value)``."""
    value = None if status.value is None else shift(status.value)
    return status.kind, status.scope, status.witness, value


def _said(status):
    return status.kind, status.scope, status.witness, status.value


# the tie case of ROADMAP item 21: the face test misjudges it, but the
# transpose and the shift of d move it like any other program
_TIE = (_program([[2, 1]], [6], [2, 1]), BoxSpec(6))


@settings(max_examples=200, deadline=None)
@given(small_programs())
@example(_TIE)
def test_the_transpose_swaps_the_sides_and_negates_the_values(drawn):
    """Metamorphic relation: the primal of (-A^T, -c, -b, -d) is the dual of
    P with its objective negated, so ``classify_edt`` swaps the two
    statuses, keeping kinds, scopes and witnesses and negating values;
    cases 2 and 3 trade places and the violation and the gap stay."""
    P, box = drawn
    report, swapped = classify_edt(P, box), classify_edt(_transposed(P), box)
    assert _said(swapped.primal) == _moved(report.dual, neg)
    assert _said(swapped.dual) == _moved(report.primal, neg)
    assert swapped.case == {2: 3, 3: 2}.get(report.case, report.case)
    assert (swapped.violation, swapped.gap_value) == (report.violation, report.gap_value)


@settings(max_examples=200, deadline=None)
@given(small_programs(), st.integers(-6, 6), st.integers(0, 4))
@example(_TIE, 5, 0)
def test_lowering_d_raises_every_value_by_the_same_step(drawn, num, pick):
    """Metamorphic relation: f = c.x - d and g = y.b - d, so replacing d by
    d - t adds t to both sides' values and changes no kind, scope,
    witness, case, violation or gap."""
    P, box = drawn
    dens = _UNIT_DENOMINATORS[P.ring]
    t = from_rational(P.ring, Fraction(num, dens[pick % len(dens)]))
    report = classify_edt(P, box)
    shifted = classify_edt(ProgramData(P.ring, P.A, P.b, P.c, sub(P.d, t)), box)
    for before, after in ((report.primal, shifted.primal), (report.dual, shifted.dual)):
        assert _said(after) == _moved(before, lambda value: add(value, t))
    assert (shifted.case, shifted.violation, shifted.gap_value) == (
        report.case,
        report.violation,
        report.gap_value,
    )


def _fraction_program(ring, A_rows, b, c, d=0):
    """The program of Fraction (or int) entries on ``ring``."""
    def vec(values):
        return vector(ring, [from_rational(ring, Fraction(v)) for v in values])

    A = matrix(ring, [[from_rational(ring, Fraction(e)) for e in row] for row in A_rows])
    return ProgramData(ring, A, vec(b), vec(c), from_rational(ring, Fraction(d)))


@st.composite
def walk_programs(draw):
    """``(P, box)``: INT, RAT or ODDRAT, 1-3 rows and columns, so each side
    has 1, 2 or 3 variables (one variable: an empty prefix), entries a
    numerator in -4..4 over a unit denominator of the ring up to 3, and a
    box of N <= 2 and D <= 2. The last column of A, the primal lines' last
    coefficients, and the last row, the dual lines' negated, are each
    zero, of one sign or free; before that, each row of A (or each column)
    is nonnegative, nonpositive or free, so its lines are mostly
    sign-uniform."""
    ring = draw(st.sampled_from((RingId.INT, RingId.RAT, RingId.ODDRAT)))
    dens = [d for d in _UNIT_DENOMINATORS[ring] if d <= 3]
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def scalar(lo=-4, hi=4):
        return Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from(dens)))

    ranges = [draw(st.sampled_from(((-4, 4), (0, 4), (-4, 0)))) for _ in range(max(m, n))]
    by_row = draw(st.booleans())
    A = [[scalar(*ranges[j if by_row else i]) for i in range(n)] for j in range(m)]
    for cells in ([(j, n - 1) for j in range(m)], [(m - 1, i) for i in range(n)]):
        last = draw(st.sampled_from(((-4, 4), (0, 0), (1, 4), (-4, -1))))
        for j, i in cells:
            A[j][i] = scalar(*last)
    b, c = [scalar() for _ in range(m)], [scalar() for _ in range(n)]
    den = None if ring is RingId.INT else draw(st.integers(1, 2))
    return _fraction_program(ring, A, b, c, scalar()), BoxSpec(draw(st.integers(1, 2)), den)


@settings(max_examples=300, deadline=None)
@given(walk_programs())
# a zero last coefficient: x1 <= 1 keeps every x2 while its residual is
# >= 0 (x1 = 0, 1) and empties the prefix x1 = 2, where it is < 0
@example((_fraction_program(RingId.INT, [[1, 0]], [1], [1, 1]), BoxSpec(2)))
@example((_fraction_program(RingId.RAT, [[1, 0, 0], [0, -1, 0]], [Fraction(1, 2), -1], [0, 0, 0]), BoxSpec(2, 2)))
# the constant-dual program: y1 + y2 >= 1 with g = 0, last coefficient -1
@example((_fraction_program(RingId.INT, [[1], [1]], [0, 0], [1]), BoxSpec(2)))
@example((_fraction_program(RingId.ODDRAT, [[1], [1]], [0, 0], [1]), BoxSpec(2, 2)))
def test_the_walk_yields_the_point_walk_key_tuples_in_order(drawn):
    """On both sides the residual walk yields exactly the key tuples, order
    included, of the point walk: the whole grid product filtered by each
    line's full sum, scaled by G."""
    P, box = drawn
    form = enumeration.integer_form(P)
    for primal, n in ((True, P.cols), (False, P.rows)):
        grid = _grid_values(P.ring, box, n)
        walked = list(enumeration._feasible_walk(P, primal, grid, form))
        assert walked == list(point_walk(P, primal, grid, form))


@st.composite
def certify_calls(draw):
    """``(P, box, x_star, y_star)``: a ``small_programs`` pair and a candidate
    on one side or both, each any grid point (mostly infeasible) or a
    feasible one when the side has any."""
    P, box = draw(small_programs())
    grid = candidate_values(P.ring, box)
    given = draw(st.sampled_from(((True, True), (True, False), (False, True))))
    candidates = []
    for primal, n, present in ((True, P.cols, given[0]), (False, P.rows, given[1])):
        feasible = feasible_points(P, box, primal) if present and draw(st.booleans()) else []
        if not present:
            candidates.append(None)
        elif feasible:
            candidates.append(draw(st.sampled_from(feasible)))
        else:
            candidates.append(vector(P.ring, [draw(st.sampled_from(grid)) for _ in range(n)]))
    return P, box, *candidates


@settings(max_examples=200, deadline=None)
@given(certify_calls())
def test_certify_matches_the_judgement_of_both_walked_sides(drawn):
    """Walking only the sides the verdict reads changes no report: it equals
    the judgement of the same candidates over both sides' statuses, each
    scanned on its own before judging."""
    P, box, x_star, y_star = drawn
    statuses = (enumerate_primal(P, box), enumerate_dual(P, box))
    eager = judge_optimal_pair(P, lambda primal: statuses[0 if primal else 1], x_star, y_star)
    assert certify_optimal_pair(P, box, x_star, y_star).as_dict() == eager.as_dict()


class WatchedCoefficient(int):
    """One coefficient of an integer-form line; a product with it logs the
    line and the coefficient's place in it."""

    def __new__(cls, value, place, log):
        self = super().__new__(cls, value)
        self.place, self.log = place, log
        return self

    def __mul__(self, other):
        self.log.append(self.place)
        return int(self) * other

    __rmul__ = __mul__


def test_a_violated_first_row_is_the_only_row_tried(monkeypatch):
    """The walk takes each line's residual over a prefix once, and a point's
    test ends at its first broken line: every row breaks at every primal
    grid point, so per prefix each row's first coefficient is read once and
    each of the two last keys reads row 0's last coefficient alone. On the
    dual side column 0, broken at y = 0, is the only column y = (0, 0, 0)
    reads; the next point, (0, 0, 1), meets column 0 and reads column 1."""
    P = _program([[1, 2], [3, 4], [5, 6]], [-1, -2, -3], [1, -1], ring=RingId.RAT)
    read: list = []
    form = enumeration.integer_form

    def watched(program):
        return tuple(
            tuple(
                (tuple(WatchedCoefficient(a, (side, k, i), read) for i, a in enumerate(coeffs)), const)
                for k, (coeffs, const) in enumerate(lines)
            )
            for side, lines in zip(("row", "column"), form(program))
        )

    monkeypatch.setattr(enumeration, "integer_form", watched)
    assert feasible_points(P, BoxSpec(1, 1), primal=True) == []
    per_prefix = [("row", 0, 0), ("row", 1, 0), ("row", 2, 0)] + [("row", 0, 1)] * 2
    assert read == per_prefix * 2
    read.clear()
    grid = _grid_values(P.ring, BoxSpec(1, 1), P.rows)
    assert next(enumeration._feasible_walk(P, False, grid, watched(P))) == (0, 0, 1)
    residuals = [("column", k, i) for k in range(2) for i in range(2)]
    assert read == residuals + [("column", 0, 2)] * 2 + [("column", 1, 2)]


@pytest.mark.parametrize("ring", [RingId.INT, RingId.RAT, RingId.ODDRAT])
def test_scalar_ring_scans_build_no_slack(monkeypatch, ring):
    """A scan judges its grid points on the integer form, so it builds no
    slack and makes no kernel sum per point: ``feasible_points`` makes none
    at all, and a side scan one, the objective of its best point."""
    P = _program([[1, 2], [3, 4]], [3, 7], [1, 1], ring=ring)
    box = BoxSpec(3, None if ring is RingId.INT else 3)
    calls: dict = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("primal_slack", "dual_slack", "sum_of_products"):
        counting(affine, name)
    counting(rings, "sum_of_products")
    points = [feasible_points(P, box, primal) for primal in (True, False)]
    assert all(points) and calls == {}
    statuses = (enumerate_primal(P, box), enumerate_dual(P, box))
    assert all(status.witness is not None for status in statuses)
    assert calls == {"sum_of_products": 2}


def test_a_rat_walk_builds_no_fraction_and_no_element(monkeypatch):
    """Given its grid and the integer form, a RAT walk builds no ``Fraction``
    and no element, for the points it rejects and those it yields alike."""
    ring, half, third = RingId.RAT, Fraction(1, 2), Fraction(1, 3)
    P = ProgramData(
        ring,
        matrix(ring, [[from_rational(ring, q) for q in row] for row in [[half, -third], [2, third], [-1, 5]]]),
        _rat_vec([1, 3, Fraction(5, 2)]),
        _rat_vec([1, -1]),
        from_int(ring, 0),
    )
    grid = _grid_values(ring, BoxSpec(3, 3), P.cols)
    form = enumeration.integer_form(P)
    built = {"Fraction": 0, "RingElement": 0}
    counting_constructions(monkeypatch, built)
    vectors = counting_vectors(monkeypatch)
    found = list(enumeration._feasible_walk(P, True, grid, form))
    monkeypatch.undo()
    keys, G, _ = grid
    assert 0 < len(found) < len(keys) ** 2 and G == 6
    assert built == {"Fraction": 0, "RingElement": 0} and vectors == []
    assert all(type(point) is tuple and len(point) == P.cols for point in found)
    assert {type(k) for point in found for k in point} == {int}
    assert set(found) <= set(product(keys, repeat=P.cols))


def counting_vectors(monkeypatch) -> list:
    """A list that gets one entry per ``RVector`` built until the patch is undone."""
    built: list = []
    init = enumeration.RVector.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(enumeration.RVector, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "P, box",
    [
        (make_edt_program(), BoxSpec(10)),
        (make_gap_program(), BoxSpec(10)),
        (make_edt_program(RingId.RAT), BoxSpec(4, 3)),
        (make_gap_program(RingId.ODDRAT), BoxSpec(3, 3)),
        (_program([[1, 2], [3, 4]], [3, 7], [1, 1], ring=RingId.RAT), BoxSpec(3, 3)),
    ],
)
def test_a_side_scan_builds_one_vector_for_its_witness_and_none_when_infeasible(monkeypatch, P, box):
    """A side scan ranks key tuples and builds one ``RVector``, its witness,
    only when a feasible point exists; a scan pair builds at most two, and
    ``feasible_points`` one per point it returns, whose entries share one
    element per distinct value."""
    for primal, scan in ((True, enumerate_primal), (False, enumerate_dual)):
        vectors = counting_vectors(monkeypatch)
        status = scan(P, box)
        monkeypatch.undo()
        assert len(vectors) == (status.kind is not StatusKind.INFEASIBLE)
        vectors = counting_vectors(monkeypatch)
        points = feasible_points(P, box, primal)
        monkeypatch.undo()
        assert len(vectors) == len(points) and bool(points) == (status.witness is not None)
        entries = [entry for point in points for entry in point.entries]
        assert len({id(entry) for entry in entries}) == len(set(entries))
    vectors = counting_vectors(monkeypatch)
    report = classify_edt(P, box)
    monkeypatch.undo()
    witnesses = [s.witness for s in (report.primal, report.dual) if s.witness is not None]
    assert len(vectors) == len(witnesses) <= 2


@pytest.mark.parametrize("primal", ["no", None, 0, 1])
def test_feasible_points_refuses_a_side_that_is_not_a_bool(edt_int, primal):
    with pytest.raises(TypeError, match=f"^primal must be a bool, got {primal!r}$"):
        feasible_points(edt_int, BoxSpec(3), primal)


def test_feasible_points_refuses_a_side_grid_above_the_listing_cap_before_it_walks(monkeypatch):
    """An all-feasible 2-variable box of 2236 ** 2 points passes the scan
    cap, but listing it would keep about 5,000,000 vectors: it is refused
    before the walk starts. A grid exactly at the cap still lists."""
    P = _program([[0, 0]], [0], [0, 0])

    def no_walk(*args):
        raise AssertionError("a refused grid was walked")

    monkeypatch.setattr(enumeration, "_feasible_walk", no_walk)
    with pytest.raises(ValueError, match="too large"):
        feasible_points(P, BoxSpec(2235), primal=True)
    monkeypatch.undo()
    monkeypatch.setattr(enumeration, "_MAX_LISTED", 9)
    assert feasible_points(P, BoxSpec(2), primal=True) == [
        int_vector(RingId.INT, point) for point in product(range(3), repeat=2)
    ]
    with pytest.raises(ValueError, match="too large"):
        feasible_points(P, BoxSpec(3), primal=True)


# ---------------------------------------------------------------------------
# certification


def test_certify_the_gap_optima(gap_int):
    report = certify_optimal_pair(
        gap_int,
        BoxSpec(10),
        x_star=int_vector(RingId.INT, [0]),
        y_star=int_vector(RingId.INT, [1]),
    )
    assert report.passed
    assert any("gap = 1" in d for d in report.details)


def test_certify_one_sided_with_infeasible_primal(edt_int):
    report = certify_optimal_pair(
        edt_int, BoxSpec(10), y_star=int_vector(RingId.INT, [0, 0])
    )
    assert report.passed
    assert any("primal side: INFEASIBLE" in d for d in report.details)


def test_certify_rejects_a_beaten_candidate(gap_int):
    """Each side's beaten candidate is named with its side's direction: the
    dual's best is smaller, and the primal's (A = [1], x <= 1) larger."""
    report = certify_optimal_pair(
        gap_int, BoxSpec(10), y_star=int_vector(RingId.INT, [2])
    )
    assert not report.passed
    assert report.details == (
        "primal side: OPTIMAL",
        "in-box point ['1'] beats the dual candidate: g = 1 < 2",
    )
    report = certify_optimal_pair(
        make_gap_program(a=1), BoxSpec(10), x_star=int_vector(RingId.INT, [0])
    )
    assert not report.passed
    assert report.details == (
        "in-box point ['1'] beats the primal candidate: f = 1 > 0",
        "dual side: OPTIMAL",
    )


def test_an_infeasible_candidate_fails_the_judgement_with_its_first_violation(gap_int):
    """A = [2], b = [1], c = [1]: x = 1 breaks the row and y = 0 the column
    (the dual's negated line), so each candidate is named with its verdict,
    and neither side's status is read."""

    def unread(primal):
        raise AssertionError("the status of a side with an infeasible candidate was read")

    report = judge_optimal_pair(gap_int, unread, int_vector(RingId.INT, [1]), int_vector(RingId.INT, [0]))
    assert not report.passed
    assert report.details == (
        "primal candidate infeasible (SLACK_NEGATIVE at index 0)",
        "dual candidate infeasible (SLACK_NEGATIVE at index 0)",
        "gap = -1",
    )


def test_certify_requires_at_least_one_side(gap_int):
    with pytest.raises(ValueError):
        certify_optimal_pair(gap_int, BoxSpec(10))
    with pytest.raises(ValueError):
        judge_optimal_pair(gap_int, lambda primal: pytest.fail("a status was read"))


@pytest.mark.parametrize(
    "x_star, error",
    [
        (int_vector(RingId.INT, [0] * 5), "point has length 5, expected 1"),
        (_rat_vec([0]), "mixed rings int and rat"),
    ],
)
def test_certify_refuses_a_bad_candidate_before_it_scans(monkeypatch, gap_int, x_star, error):
    def no_grid(*args):
        raise AssertionError("a grid was built for a refused candidate")

    monkeypatch.setattr(enumeration, "_grid_values", no_grid)
    with pytest.raises((DimensionMismatch, RingMismatch), match=error):
        certify_optimal_pair(gap_int, BoxSpec(200), x_star=x_star)
    with pytest.raises((DimensionMismatch, RingMismatch), match=error):
        certify_optimal_pair(gap_int, BoxSpec(200), int_vector(RingId.INT, [0]), x_star)


@pytest.mark.parametrize(
    "scan",
    [
        lambda P, box: candidate_values(P.ring, box),
        enumerate_primal,
        enumerate_dual,
        lambda P, box: feasible_points(P, box, primal=True),
        classify_edt,
        lambda P, box: certify_optimal_pair(P, box, int_vector(RingId.INT, [0])),
    ],
)
def test_every_scan_refuses_a_box_that_is_not_a_box_spec(gap_int, scan):
    with pytest.raises(TypeError, match="^box must be a BoxSpec, got 3$"):
        scan(gap_int, 3)


def test_scans_and_certificates_read_the_side_functions_from_affine(monkeypatch):
    """Every layer above ``affine`` reaches the feasibility tests and
    objectives through ``affine``'s module globals, so a function patched
    onto ``affine`` is the one each scan and certificate calls. A side scan
    walks its grid once through ``enumeration._feasible_walk`` and
    calls no feasibility test, while a certificate calls one per candidate
    and walks only the sides its verdict reads, each at most once.
    It ranks its points by integer keys, so it calls its objective once, for
    the best point, and not at all when it finds none."""
    names = ("is_primal_feasible", "is_dual_feasible", "eval_f", "eval_g", "_feasible_walk")
    counts = dict.fromkeys(names, 0)

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        module = enumeration if name == "_feasible_walk" else affine
        monkeypatch.setattr(module, name, counting(module, name))

    def calls_made(action):
        before = dict(counts)
        action()
        return {name: counts[name] - before[name] for name in counts}

    gap_int, box = make_gap_program(), BoxSpec(3)
    assert calls_made(lambda: enumerate_primal(gap_int, box)) == {
        "is_primal_feasible": 0, "is_dual_feasible": 0, "eval_f": 1, "eval_g": 0, "_feasible_walk": 1
    }
    assert calls_made(lambda: feasible_points(gap_int, box, primal=False)) == {
        "is_primal_feasible": 0, "is_dual_feasible": 0, "eval_f": 0, "eval_g": 0, "_feasible_walk": 1
    }
    assert calls_made(lambda: enumerate_dual(gap_int, box))["eval_g"] == 1
    edt_int = make_edt_program()
    assert calls_made(lambda: enumerate_primal(edt_int, box))["eval_f"] == 0
    assert calls_made(lambda: classify_edt(edt_int, box)) == {
        "is_primal_feasible": 0, "is_dual_feasible": 0, "eval_f": 0, "eval_g": 1, "_feasible_walk": 2
    }
    certify = calls_made(
        lambda: certify_optimal_pair(gap_int, box, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [1]))
    )
    # per side: one walk and one candidate verdict, and one objective
    # for the scan and one for the candidate; the gap is two kernel calls,
    # not the two objectives
    assert certify == {
        "is_primal_feasible": 1, "is_dual_feasible": 1, "eval_f": 2, "eval_g": 2, "_feasible_walk": 2
    }
    # x = 1 breaks 2 x <= 1 and y = 0 breaks 2 y >= 1: an infeasible
    # candidate's side is judged by its verdict alone, with no walk and no
    # objective
    certify = calls_made(
        lambda: certify_optimal_pair(gap_int, box, int_vector(RingId.INT, [1]), int_vector(RingId.INT, [1]))
    )
    assert certify == {
        "is_primal_feasible": 1, "is_dual_feasible": 1, "eval_f": 0, "eval_g": 2, "_feasible_walk": 1
    }
    certify = calls_made(
        lambda: certify_optimal_pair(gap_int, box, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [0]))
    )
    assert certify == {
        "is_primal_feasible": 1, "is_dual_feasible": 1, "eval_f": 2, "eval_g": 0, "_feasible_walk": 1
    }
    certify = calls_made(
        lambda: certify_optimal_pair(gap_int, box, int_vector(RingId.INT, [1]), int_vector(RingId.INT, [0]))
    )
    assert certify == {
        "is_primal_feasible": 1, "is_dual_feasible": 1, "eval_f": 0, "eval_g": 0, "_feasible_walk": 0
    }
    # a side with no candidate is walked, since the report names its kind
    certify = calls_made(lambda: certify_optimal_pair(gap_int, box, x_star=int_vector(RingId.INT, [1])))
    assert certify == {
        "is_primal_feasible": 1, "is_dual_feasible": 0, "eval_f": 0, "eval_g": 1, "_feasible_walk": 1
    }
    bundle = strong_duality_counterexample(from_int(RingId.INT, 2))
    verify = calls_made(lambda: verify_bundle(bundle))
    assert min(verify.values()) > 0, verify


def _dual_scan_programs():
    rat = RingId.RAT
    yield ProgramData(
        rat,
        matrix(rat, [[from_rational(rat, Fraction(1, 2))], [from_rational(rat, Fraction(-2, 3))]]),
        _rat_vec([Fraction(3, 4), Fraction(-1, 5)]),
        _rat_vec([Fraction(1, 6)]),
        from_rational(rat, Fraction(1, 7)),
    )
    yield _program([[1], [1]], [2, 3], [3], d=1)  # min 2 y1 + 3 y2 - 1 over y1 + y2 >= 3


@pytest.mark.parametrize("P", list(_dual_scan_programs()), ids=["rat", "int"])
@pytest.mark.parametrize("bound", [4, 8])
def test_a_side_scan_builds_only_its_witness_and_value_and_compares_no_elements(monkeypatch, P, bound):
    """Points are ranked by integer keys and only what leaves the scan is
    built: past the unit tests of a rational grid's denominators, a side
    scan builds one element per witness coordinate and one for the value,
    however many points it walks, each with one ``Fraction`` on RAT and none
    on INT, and makes no ``rings.compare`` call. A grid of integers tests
    no denominator."""
    ring = P.ring
    box = BoxSpec(bound, 3) if ring is RingId.RAT else BoxSpec(10 * bound)
    feasible = len(feasible_points(P, box, primal=False))
    compared = []
    compare = rings.compare

    def counting_compare(*args):
        compared.append(args)
        return compare(*args)

    monkeypatch.setattr(rings, "compare", counting_compare)
    monkeypatch.setattr(enumeration, "compare", counting_compare)
    built = {"Fraction": 0, "RingElement": 0}
    counting_constructions(monkeypatch, built)
    if ring is RingId.RAT:
        for den in range(1, box.denominator_bound + 1):
            rings.try_invert(from_int(ring, den))
    units = dict(built)
    built.update(Fraction=0, RingElement=0)
    status = enumerate_dual(P, box)
    monkeypatch.undo()
    assert status.kind is StatusKind.OPTIMAL and feasible > 100
    assert len(set(status.witness.entries)) == P.rows  # distinct, so none is shared
    fractions = P.rows + 1 if ring is RingId.RAT else 0  # an INT payload is an int
    assert built == {"Fraction": units["Fraction"] + fractions, "RingElement": units["RingElement"] + P.rows + 1}
    assert compared == []


# ---------------------------------------------------------------------------
# joint classification


def test_classify_edt_violation(edt_int):
    report = classify_edt(edt_int, BoxSpec(10))
    assert report.violation
    assert report.case is None
    assert report.primal.kind is StatusKind.INFEASIBLE
    assert report.dual.kind is StatusKind.OPTIMAL
    assert report.details == (
        "VIOLATION: primal INFEASIBLE with dual OPTIMAL matches none of the four classical cases"
    )


def test_classify_edt_case4_with_nonzero_gap(gap_int):
    report = classify_edt(gap_int, BoxSpec(10))
    assert not report.violation
    assert report.case == 4
    assert report.gap_value == from_int(RingId.INT, 1)


def test_classify_edt_case4_gap_closes_over_rationals():
    for prog in (make_gap_program(RingId.RAT), make_edt_program(RingId.RAT)):
        report = classify_edt(prog, BoxSpec(2, 2))
        assert not report.violation
        assert report.case == 4
        assert to_text(report.gap_value) == "0"


def test_classify_edt_classical_cases():
    # both infeasible
    case1 = _program([[0]], [-1], [1])
    report = classify_edt(case1, BoxSpec(10))
    assert report.case == 1
    # primal infeasible, dual improving toward the box face
    case2 = _program([[0]], [-1], [0])
    report = classify_edt(case2, BoxSpec(10))
    assert report.case == 2
    assert report.dual.kind is StatusKind.FEASIBLE_UNBOUNDED_IN_BOX
    # dual infeasible, primal improving toward the box face
    case3 = _program([[0]], [1], [1])
    report = classify_edt(case3, BoxSpec(10))
    assert report.case == 3
    assert report.primal.kind is StatusKind.FEASIBLE_UNBOUNDED_IN_BOX


# ---------------------------------------------------------------------------
# oracle hygiene


def test_unsupported_rings_raise():
    from conftest import make_gap_program as mk

    with pytest.raises(PreconditionError, match="^poly is not exhaustively enumerable"):
        enumerate_primal(mk(RingId.POLY), BoxSpec(5))
    with pytest.raises(PreconditionError, match="^skew is not exhaustively enumerable"):
        enumerate_dual(mk(RingId.SKEW), BoxSpec(5))


def test_face_detection_marks_unbounded_in_box():
    P = _program([[1]], [100], [1])
    status = enumerate_primal(P, BoxSpec(10))
    assert status.kind is StatusKind.FEASIBLE_UNBOUNDED_IN_BOX
    assert status.witness == int_vector(RingId.INT, [10])
    assert status.scope is Scope.BOX_LIMITED


def test_interior_optimum_is_reported_optimal():
    P = _program([[1]], [5], [1])
    status = enumerate_primal(P, BoxSpec(10))
    assert status.kind is StatusKind.OPTIMAL
    assert status.witness == int_vector(RingId.INT, [5])


def test_lexicographic_tie_break():
    # f is constant, so every feasible point ties; the witness must be (0, 0)
    P = _program([[1, 1]], [4], [0, 0])
    status = enumerate_primal(P, BoxSpec(3))
    assert status.kind is StatusKind.OPTIMAL
    assert status.witness == int_vector(RingId.INT, [0, 0])


def recording_grid_fractions(monkeypatch) -> list:
    """The list of every ``Fraction`` that ``enumeration`` builds from here
    on, through ``rings.reduced``."""
    built = []
    reduced = rings.reduced

    def recording_reduced(*args):
        built.append(reduced(*args))
        return built[-1]

    monkeypatch.setattr(enumeration, "reduced", recording_reduced)
    return built


def test_grid_stops_growing_once_the_scan_would_exceed_the_cap(monkeypatch):
    """The cap is checked on each denominator's count, before any value is
    found. Denominator 1 gives the N*D + 1 values 0..N*D, whose square stays
    within the cap on two variables; the count is refused at denominator 2,
    whose values push the square past it: 5,000,000 points for a scan
    (2236 ** 2 within it) and 1,000,000 for a listing (1000 ** 2). No pair
    is tested for lowest terms before the refusal."""
    examined, dens = [], []
    monkeypatch.setattr(enumeration, "gcd", lambda *args: examined.append(args) or gcd(*args))
    monkeypatch.setattr(enumeration, "lcm", lambda G, den: dens.append(den) or lcm(G, den))
    P = _program([[1, 1]], [4], [0, 0], ring=RingId.RAT)  # two primal variables
    for scan, d_bound in ((enumerate_primal, 2235), (lambda P, box: feasible_points(P, box, True), 999)):
        dens.clear()
        with pytest.raises(ValueError, match="too large"):
            scan(P, BoxSpec(1, d_bound))
        assert examined == [] and dens == [1, 2]


def test_a_rational_grid_takes_the_lcm_only_of_the_denominators_it_walks(monkeypatch):
    """One variable on denominators up to 10^6 passes the up-front check;
    the grid stops at the cap a few denominators in, so its G, the lcm of
    those, stays small instead of the lcm of 1..10^6."""
    taken = []
    monkeypatch.setattr(enumeration, "lcm", lambda *args: taken.extend(args) or lcm(*args))
    with pytest.raises(ValueError, match="too large"):
        candidate_values(RingId.RAT, BoxSpec(1, 10**6))
    assert 0 < max(taken) < 1000


def test_a_scan_pair_builds_one_grid_and_each_program_one_form(monkeypatch):
    """``classify_edt`` and ``certify_optimal_pair`` build the per-variable
    grid once for both sides, capped for the side with more variables, and
    the program's integer form once for both walks; so do the constructions
    that scan, on their default box."""
    grids, forms = [], []
    grid_values, integer_form = enumeration._grid_values, enumeration.integer_form
    monkeypatch.setattr(enumeration, "_grid_values", lambda *args: grids.append(args) or grid_values(*args))
    monkeypatch.setattr(enumeration, "integer_form", lambda P: forms.append(P) or integer_form(P))
    edt_rat, gap_int = make_edt_program(RingId.RAT), make_gap_program()
    rat_box, int_box = BoxSpec(4, 2), BoxSpec(3)
    assert classify_edt(edt_rat, rat_box).case == 4
    one, zero = int_vector(RingId.INT, [1]), int_vector(RingId.INT, [0])
    assert certify_optimal_pair(gap_int, int_box, zero, one).passed
    assert grids == [(RingId.RAT, rat_box, 2), (RingId.INT, int_box, 1)]
    assert len(forms) == 2 and forms[0] is edt_rat and forms[1] is gap_int
    two = from_int(RingId.INT, 2)
    for build, nvars in (
        (lambda: strong_duality_counterexample(two), 1),
        (lambda: infeasible_optimal_program(two, BundleKind.INFEASIBLE_OPTIMAL_PRIMAL), 2),
        (lambda: infeasible_optimal_program(two, BundleKind.INFEASIBLE_OPTIMAL_DUAL), 2),
    ):
        grids.clear()
        forms.clear()
        bundle = build()
        assert all(check.passed for check in bundle.checks)
        assert grids == [(RingId.INT, BoxSpec(10), nvars)]
        assert len(forms) == 1 and forms[0] is bundle.program


def test_a_scan_pair_checks_the_cap_of_both_sides_before_either_walk(monkeypatch):
    P = _program([[1], [1], [1]], [1, 1, 1], [1])  # 1 primal and 3 dual variables
    box = BoxSpec(200)  # 201 primal points, 201 ** 3 dual points: above the cap
    assert enumerate_primal(P, box).kind is StatusKind.OPTIMAL  # x = 1
    with pytest.raises(ValueError, match="too large"):
        enumerate_dual(P, box)
    checks = []
    monkeypatch.setattr(enumeration, "_feasible_walk", lambda *args: checks.append(args))
    for name in ("is_primal_feasible", "is_dual_feasible"):
        monkeypatch.setattr(affine, name, lambda *args: checks.append(args))
    with pytest.raises(ValueError, match="too large"):
        classify_edt(P, box)
    with pytest.raises(ValueError, match="too large"):
        certify_optimal_pair(P, box, int_vector(RingId.INT, [0]))
    # x = 2 breaks x <= 1 and y = 0 breaks y1 + y2 + y3 >= 1: neither side
    # would be walked, yet the grid is still refused before either verdict
    with pytest.raises(ValueError, match="too large"):
        certify_optimal_pair(P, box, int_vector(RingId.INT, [2]), int_vector(RingId.INT, [0, 0, 0]))
    assert checks == []


def test_a_scan_during_a_scan_pair_on_the_same_box_keeps_its_own_cap(monkeypatch):
    """A scan that starts while a scan pair walks the same ``BoxSpec``
    object builds and caps its own grid: 11 ** 8 points raise at once."""
    box = BoxSpec(10)
    small = _program([[1]], [1], [1])
    big = _program([[1] * 8], [1], [1] * 8)
    walk = enumeration._feasible_walk
    inner = []

    def refuse_the_walk(*args):
        raise AssertionError("walk started past the cap")

    def scan_big_once(*args):
        if not inner:
            inner.append(big)
            monkeypatch.setattr(enumeration, "_feasible_walk", refuse_the_walk)
            with pytest.raises(ValueError, match="too large"):
                enumerate_primal(big, box)
            monkeypatch.setattr(enumeration, "_feasible_walk", walk)
        return walk(*args)

    monkeypatch.setattr(enumeration, "_feasible_walk", scan_big_once)
    classify_edt(small, box)
    assert inner == [big]


def test_threads_that_share_programs_and_boxes_get_their_own_results():
    """Threads that keep switching between shared programs and boxes, with a
    short switch interval, get each program's own verdicts and each scan
    pair its own report: each scan builds its own integer form from its
    program and keeps nothing on it. A scan of a program over the cap, on a
    box object the scan pairs are walking, still raises."""
    rat = RingId.RAT

    def three_programs():
        return [make_edt_program(rat), make_gap_program(rat), make_edt_program(rat, 3)]

    # the threads share programs, and the expected results come from equal
    # but distinct programs
    programs = three_programs()
    boxes = [BoxSpec(3, 2), BoxSpec(2, 3), BoxSpec(4, 1)]
    points = [_rat_vec([Fraction(k, 6)]) for k in range(-1, 14)]
    want = [[is_primal_feasible(P, x) for x in points] for P in three_programs()]
    reports = [classify_edt(P, box) for P, box in zip(three_programs(), boxes)]
    # 10 grid values on boxes[0], and 10 ** 7 points is above the cap
    over_cap = _program([[1] * 7], [1], [1] * 7, ring=rat)
    workers_done = threading.Event()
    wrong: list = []

    def work(k):
        for step in range(30):
            i = (k + step) % 3
            if [is_primal_feasible(programs[i], x) for x in points] != want[i]:
                wrong.append(("verdicts", i))
            if classify_edt(programs[i], boxes[i]) != reports[i]:
                wrong.append(("report", i))

    def scan_over_cap():
        while not workers_done.is_set():
            try:
                enumerate_primal(over_cap, boxes[0])
                wrong.append(("cap", "scanned"))
            except ValueError as error:
                if "too large" not in str(error):
                    wrong.append(("cap", error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        scanner = threading.Thread(target=scan_over_cap)
        threads = [*workers, scanner]
        for thread in threads:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        workers_done.set()
        scanner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_grid_builds_one_fraction_per_value(monkeypatch):
    built = recording_grid_fractions(monkeypatch)
    values = [v.payload for v in candidate_values(RingId.RAT, BoxSpec(6, 4))]
    assert built == values == box_grid_by_fractions(RingId.RAT, 6, 4)


@given(
    ring=st.sampled_from((RingId.INT, RingId.RAT, RingId.ODDRAT)),
    bound=st.integers(1, 8),
    den=st.integers(1, 12),
    nvars=st.integers(1, 3),
)
def test_grid_equals_the_fraction_oracle(ring, bound, den, nvars):
    want = box_grid_by_fractions(ring, bound, den)
    box = BoxSpec(bound, den)
    values = candidate_values(ring, box)
    assert [v.payload for v in values] == want
    # the kernel and the tables branch on the payload's type, which == misses
    payload_type = int if ring is RingId.INT else Fraction
    assert all(type(v.payload) is payload_type for v in values)
    assert list(values) == [from_rational(ring, q) for q in want]
    if len(want) ** nvars > 5_000_000:
        with pytest.raises(ValueError, match="too large"):
            _grid_values(ring, box, nvars)
    else:
        keys, G, value = _grid_values(ring, box, nvars)
        elements = [value(k) for k in keys]
        assert [v.payload for v in elements] == want
        assert all(type(v.payload) is payload_type for v in elements)
        # the keys the walk judges and ranks strictly increase, each k/G its value
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [Fraction(k, G) for k in keys] == want


@pytest.mark.parametrize(
    "args", [(2.5,), (3, 2.5), (True,), (3, True), ("3",), (Fraction(3),)]
)
def test_box_spec_rejects_non_integer_bounds(args):
    with pytest.raises(TypeError, match="bound must be an int, got"):
        BoxSpec(*args)


@pytest.mark.parametrize("args", [(0,), (-1,), (3, 0)])
def test_box_spec_rejects_bounds_below_one(args):
    with pytest.raises(ValueError, match="bound must be positive"):
        BoxSpec(*args)


def test_candidate_values_refuses_more_values_than_the_cap():
    with pytest.raises(ValueError, match="too large"):
        candidate_values(RingId.INT, BoxSpec(5_000_000))


@pytest.mark.parametrize("ring", [RingId.RAT, RingId.ODDRAT])
def test_a_rational_grid_over_the_cap_is_refused_before_any_value_is_built(ring):
    # denominator 1 alone gives 10**8 + 1 values: the cap is checked before
    # the loop that would build them; a thousand denominators pass the cap
    # on one variable and are refused by the key-bit budget as they are
    # counted, with no key built
    P = _program([[1]], [1], [1], ring=ring)
    for box, refusal in ((BoxSpec(10**8), "too large for exhaustive scan$"), (BoxSpec(1, 1000), "bits per variable$")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=refusal):
                enumerate_primal(P, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (box, peak)


def _grid_or_refusal(build) -> object:
    """``(keys, G)`` of a built grid, or the text of its refusal."""
    try:
        return tuple(build()[:2])
    except ValueError as error:
        return str(error)


@given(
    ring=st.sampled_from((RingId.INT, RingId.RAT, RingId.ODDRAT)),
    bound=st.integers(1, 6),
    den=st.one_of(st.none(), st.integers(1, 12)),
    nvars=st.integers(1, 3),
    cap=st.integers(1, 3000),
    budget=st.integers(1, 600),
)
# RAT BoxSpec(2, 3) on one variable: denominators 1 and 2 give 10 values
# within both limits, and denominator 3 adds values 11 to 14 over G = 6, a
# 3-bit G, so it can cross both limits, at values that differ
@example(ring=RingId.RAT, bound=2, den=3, nvars=1, cap=11, budget=38)  # the cap breaks at value 12, the budget at 13
@example(ring=RingId.RAT, bound=2, den=3, nvars=1, cap=12, budget=35)  # the budget breaks at value 12, the cap at 13
@example(ring=RingId.RAT, bound=2, den=3, nvars=1, cap=11, budget=33)  # both at value 12: the cap is checked first
@example(ring=RingId.RAT, bound=2, den=3, nvars=1, cap=11, budget=25)  # the wider G breaks the budget at value 11
@example(ring=RingId.RAT, bound=2, den=3, nvars=1, cap=10, budget=25)  # ... and the cap breaks there too
# denominator 1 alone: its 11 values break the cap before the count, so the
# cap is named although the budget would break at value 6
@example(ring=RingId.RAT, bound=10, den=None, nvars=1, cap=10, budget=5)
def test_the_counted_grid_equals_the_value_by_value_loop(ring, bound, den, nvars, cap, budget):
    """Counting each denominator's values before building any key gives the
    keys and G, or the refusal text, that checking both limits on every
    value gives, under a small cap and key-bit budget; where one
    denominator crosses both, the text names the limit a value crosses
    first."""
    with mock.patch.object(enumeration, "_MAX_GRID_BITS", budget):
        got = _grid_or_refusal(lambda: _grid_values(ring, BoxSpec(bound, den), nvars, cap))
    assert got == _grid_or_refusal(lambda: grid_by_pairs(ring, bound, den, nvars, cap, budget))


@pytest.mark.parametrize(
    "den, top", [(1, 0), (1, 7), (2, 7), (12, 12), (30, 100), (2 * 3 * 5 * 7 * 11 * 13, 10**5), (97, 96), (49, 1000)]
)
def test_the_coprime_count_equals_a_gcd_count(den, top):
    assert enumeration._coprime_count(den, top) == sum(gcd(num, den) == 1 for num in range(top + 1))


@pytest.mark.parametrize("budget, builds", [(42, True), (41, False)])
def test_a_grid_at_the_key_bit_budget_builds_and_one_past_it_is_refused(monkeypatch, budget, builds):
    """The budget bounds a variable's values times the bit length of G, as
    each value is found: RAT ``BoxSpec(2, 3)`` has 14 values over G = 6, a
    3-bit G, so 42 bits. At a budget of 42 it builds; at 41 its last value
    is refused, with the budget in the text."""
    monkeypatch.setattr(enumeration, "_MAX_GRID_BITS", budget)
    if builds:
        keys, G, _ = _grid_values(RingId.RAT, BoxSpec(2, 3), 1)
        assert len(keys) * G.bit_length() == 42
        return
    with pytest.raises(ValueError, match="^search box too large for exhaustive scan: keys over 41 bits per variable$"):
        _grid_values(RingId.RAT, BoxSpec(2, 3), 1)


def test_the_key_bit_budget_refuses_a_thousand_denominators():
    """At 2 ** 27 bits (16 MiB of keys) the budget passes every shipped and
    benchmark box with room to spare (the largest benchmark grid is 12,536
    bits), and refuses RAT ``BoxSpec(1, 1000)``, whose keys would take about
    874 million bits, well before its last denominator."""
    assert enumeration._MAX_GRID_BITS == 1 << 27
    with pytest.raises(ValueError, match="keys over 134217728 bits per variable$"):
        candidate_values(RingId.RAT, BoxSpec(1, 1000))
    keys, G, _ = _grid_values(RingId.ODDRAT, BoxSpec(254, 5), 1)
    assert len(keys) * G.bit_length() == 12_536


def test_box_growth_monotonicity(gap_int):
    small = enumerate_primal(gap_int, BoxSpec(5))
    large = enumerate_primal(gap_int, BoxSpec(10))
    assert small.kind is StatusKind.OPTIMAL and large.kind is StatusKind.OPTIMAL
    assert not (large.value < small.value)
    d_small = enumerate_dual(gap_int, BoxSpec(5))
    d_large = enumerate_dual(gap_int, BoxSpec(10))
    assert not (d_large.value > d_small.value)


def test_optimal_witness_re_verifies(gap_int):
    box = BoxSpec(10)
    status = enumerate_primal(gap_int, box)
    assert is_primal_feasible(gap_int, status.witness).feasible
    better = [
        p
        for p in feasible_points(gap_int, box, primal=True)
        if eval_f(gap_int, p) > status.value
    ]
    assert better == []
