import sys
import threading
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import ringlp.affine as affine
import ringlp.rings as rings
from ringlp import (
    BoxSpec,
    ProgramData,
    RingId,
    Scope,
    StatusKind,
    UnsupportedRing,
    candidate_values,
    certify_optimal_pair,
    classify_edt,
    enumerate_dual,
    enumerate_primal,
    eval_f,
    feasible_points,
    from_int,
    from_rational,
    int_matrix,
    int_vector,
    is_primal_feasible,
    matrix,
    strong_duality_counterexample,
    to_text,
    verify_bundle,
    vector,
)

import ringlp.enumeration as enumeration
from ringlp.enumeration import _grid_values, judge_optimal_pair

from _oracles import box_grid_by_fractions, brute_force_box_optimum
from conftest import counting_constructions, make_edt_program, make_gap_program


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
    assert primal.scope is Scope.BOX_LIMITED  # no analytic note supplied


def test_edt_program_enumeration(edt_int):
    box = BoxSpec(10)
    primal = enumerate_primal(edt_int, box)
    dual = enumerate_dual(edt_int, box)
    assert primal.kind is StatusKind.INFEASIBLE
    assert primal.note == "no feasible point in box"
    assert dual.kind is StatusKind.OPTIMAL
    assert dual.witness == int_vector(RingId.INT, [0, 0])
    assert dual.value == from_int(RingId.INT, 0)


def test_analytic_note_upgrades_scope(edt_int):
    note = "the two rows force 2x = 1, unsatisfiable in this ring"
    primal = enumerate_primal(edt_int, BoxSpec(10), analytic_note=note)
    assert primal.kind is StatusKind.INFEASIBLE
    assert primal.scope is Scope.EXHAUSTIVE
    assert primal.note == note


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
    report = certify_optimal_pair(
        gap_int, BoxSpec(10), y_star=int_vector(RingId.INT, [2])
    )
    assert not report.passed
    assert any("beats the dual candidate" in d for d in report.details)


def test_certify_requires_at_least_one_side(gap_int):
    with pytest.raises(ValueError):
        certify_optimal_pair(gap_int, BoxSpec(10))
    statuses = (enumerate_primal(gap_int, BoxSpec(3)), enumerate_dual(gap_int, BoxSpec(3)))
    with pytest.raises(ValueError):
        judge_optimal_pair(gap_int, statuses)


def test_scans_and_certificates_read_the_side_functions_from_affine(monkeypatch):
    """Every layer above ``affine`` reaches the feasibility tests and
    objectives through ``affine``'s module globals, so a function patched
    onto ``affine`` is the one each scan and certificate calls. A side scan
    ranks its points by integer keys, so it calls its objective once, for
    the best point, and not at all when it finds none."""
    counts = dict.fromkeys(("is_primal_feasible", "is_dual_feasible", "eval_f", "eval_g"), 0)

    def counting(name):
        original = getattr(affine, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(affine, name, counting(name))

    def calls_made(action):
        before = dict(counts)
        action()
        return {name: counts[name] - before[name] for name in counts}

    gap_int, box = make_gap_program(), BoxSpec(3)
    assert calls_made(lambda: enumerate_primal(gap_int, box))["is_primal_feasible"] == 4
    assert calls_made(lambda: feasible_points(gap_int, box, primal=False))["is_dual_feasible"] == 4
    assert calls_made(lambda: enumerate_primal(gap_int, box))["eval_f"] == 1
    assert calls_made(lambda: enumerate_dual(gap_int, box))["eval_g"] == 1
    edt_int = make_edt_program()
    assert calls_made(lambda: enumerate_primal(edt_int, box))["eval_f"] == 0
    assert calls_made(lambda: classify_edt(edt_int, box)) == {
        "is_primal_feasible": 4, "is_dual_feasible": 16, "eval_f": 0, "eval_g": 1
    }
    certify = calls_made(
        lambda: certify_optimal_pair(gap_int, box, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [1]))
    )
    # per side: one objective for the scan and one for the candidate; the
    # gap is two kernel calls, not the two objectives
    assert certify == {"is_primal_feasible": 5, "is_dual_feasible": 5, "eval_f": 2, "eval_g": 2}
    bundle = strong_duality_counterexample(RingId.INT, from_int(RingId.INT, 2), box)
    verify = calls_made(lambda: verify_bundle(bundle, box))
    assert min(verify.values()) > 0, verify


@pytest.mark.parametrize("bound", [4, 8])
def test_a_side_scan_builds_one_fraction_past_its_grid_and_compares_no_elements(monkeypatch, bound):
    """Points are ranked by integer keys, so a RAT side scan builds one
    ``Fraction`` past those of its grid, the reported value, however many
    points it walks, and makes no ``rings.compare`` call."""
    ring, box = RingId.RAT, BoxSpec(bound, 3)
    P = ProgramData(
        ring,
        matrix(ring, [[from_rational(ring, Fraction(1, 2))], [from_rational(ring, Fraction(-2, 3))]]),
        _rat_vec([Fraction(3, 4), Fraction(-1, 5)]),
        _rat_vec([Fraction(1, 6)]),
        from_rational(ring, Fraction(1, 7)),
    )
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
    grid = _grid_values(ring, box, P.rows)
    grid_fractions, built["Fraction"] = built["Fraction"], 0
    status = enumerate_dual(P, box)
    monkeypatch.undo()
    assert status.kind is StatusKind.OPTIMAL and feasible > 100
    assert grid_fractions >= len(grid)  # one per value, and the unit tests of the denominators
    assert built["Fraction"] == grid_fractions + 1
    assert compared == []


# ---------------------------------------------------------------------------
# joint classification


def test_classify_edt_violation(edt_int):
    report = classify_edt(edt_int, BoxSpec(10))
    assert report.violation
    assert report.case is None
    assert report.primal.kind is StatusKind.INFEASIBLE
    assert report.dual.kind is StatusKind.OPTIMAL
    assert "VIOLATION" in report.details


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

    with pytest.raises(UnsupportedRing):
        enumerate_primal(mk(RingId.POLY), BoxSpec(5))
    with pytest.raises(UnsupportedRing):
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


def test_grid_stops_growing_once_the_scan_would_exceed_the_cap(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(enumeration, "Fraction", CountingFraction)
    P = _program([[1, 1]], [4], [0, 0], ring=RingId.RAT)  # two primal variables
    with pytest.raises(ValueError, match="too large"):
        enumerate_primal(P, BoxSpec(1, 10**6))
    # 2237 ** 2 is the first square above the 5,000,000-point cap
    assert len(built) <= 2237
    built.clear()
    with pytest.raises(ValueError, match="too large"):
        feasible_points(P, BoxSpec(1, 10**6), primal=True)
    assert len(built) <= 2237


def test_a_scan_pair_builds_one_grid_and_each_program_one_table(monkeypatch):
    """``classify_edt`` and ``certify_optimal_pair`` build the per-variable
    grid once for both sides, capped for the side with more variables, and
    the integer tables of each program once."""
    grids, tables = [], []
    grid_values, build_tables = enumeration._grid_values, affine._build_tables
    monkeypatch.setattr(enumeration, "_grid_values", lambda *args: grids.append(args) or grid_values(*args))
    monkeypatch.setattr(affine, "_build_tables", lambda P: tables.append(P) or build_tables(P))
    edt_rat, gap_int = make_edt_program(RingId.RAT), make_gap_program()
    rat_box, int_box = BoxSpec(4, 2), BoxSpec(3)
    assert classify_edt(edt_rat, rat_box).case == 4
    one, zero = int_vector(RingId.INT, [1]), int_vector(RingId.INT, [0])
    assert certify_optimal_pair(gap_int, int_box, zero, one).passed
    assert grids == [(RingId.RAT, rat_box, 2), (RingId.INT, int_box, 1)]
    assert len(tables) == 2 and tables[0] is edt_rat and tables[1] is gap_int


def test_a_scan_pair_checks_the_cap_of_both_sides_before_either_walk(monkeypatch):
    P = _program([[1], [1], [1]], [1, 1, 1], [1])  # 1 primal and 3 dual variables
    box = BoxSpec(200)  # 201 primal points, 201 ** 3 dual points: above the cap
    assert enumerate_primal(P, box).kind is StatusKind.OPTIMAL  # x = 1
    with pytest.raises(ValueError, match="too large"):
        enumerate_dual(P, box)
    checks = []
    monkeypatch.setattr(affine, "is_primal_feasible", lambda *args: checks.append(args))
    with pytest.raises(ValueError, match="too large"):
        classify_edt(P, box)
    with pytest.raises(ValueError, match="too large"):
        certify_optimal_pair(P, box, int_vector(RingId.INT, [0]))
    assert checks == []


def test_a_scan_during_a_scan_pair_on_the_same_box_keeps_its_own_cap(monkeypatch):
    """A scan that starts while a scan pair walks the same ``BoxSpec``
    object builds and caps its own grid: 11 ** 8 points raise at once."""
    box = BoxSpec(10)
    small = _program([[1]], [1], [1])
    big = _program([[1] * 8], [1], [1] * 8)
    feasible = affine.is_primal_feasible
    inner = []

    def refuse_the_walk(*args):
        raise AssertionError("walk started past the cap")

    def scan_big_once(*args):
        if not inner:
            inner.append(big)
            monkeypatch.setattr(affine, "is_primal_feasible", refuse_the_walk)
            with pytest.raises(ValueError, match="too large"):
                enumerate_primal(big, box)
            monkeypatch.setattr(affine, "is_primal_feasible", feasible)
        return feasible(*args)

    monkeypatch.setattr(affine, "is_primal_feasible", scan_big_once)
    classify_edt(small, box)
    assert inner == [big]


def test_threads_that_share_the_table_slot_and_boxes_get_their_own_results():
    """The table slot is found by identity and swapped as one tuple, so
    threads that keep switching programs and boxes, with a short switch
    interval, still get each program's own verdicts and each scan pair its
    own report; a lost update only makes a rebuild. A scan of a program
    over the cap, on a box object the scan pairs are walking, still raises."""
    rat = RingId.RAT
    programs = [make_edt_program(rat), make_gap_program(rat), make_edt_program(rat, 3)]
    boxes = [BoxSpec(3, 2), BoxSpec(2, 3), BoxSpec(4, 1)]
    points = [_rat_vec([Fraction(k, 6)]) for k in range(-1, 14)]
    want = [[is_primal_feasible(P, x) for x in points] for P in programs]
    reports = [classify_edt(P, box) for P, box in zip(programs, boxes)]
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
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(Fraction(*args))
            return super().__new__(cls, *args)

    monkeypatch.setattr(enumeration, "Fraction", CountingFraction)
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
        assert [v.payload for v in _grid_values(ring, box, nvars)] == want
    # the grid's integer key floor(q * D^2) strictly increases along the grid
    keys = [q.numerator * den * den // q.denominator for q in want]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "args", [(2.5,), (3, 2.5), (True,), (3, True), ("3",), (Fraction(3),)]
)
def test_box_spec_rejects_non_integer_bounds(args):
    with pytest.raises(TypeError, match="box bounds must be int"):
        BoxSpec(*args)


@pytest.mark.parametrize("args", [(0,), (-1,), (3, 0)])
def test_box_spec_rejects_bounds_below_one(args):
    with pytest.raises(ValueError, match="must be a positive integer"):
        BoxSpec(*args)


def test_candidate_values_refuses_more_values_than_the_cap():
    with pytest.raises(ValueError, match="too large"):
        candidate_values(RingId.INT, BoxSpec(5_000_000))


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
