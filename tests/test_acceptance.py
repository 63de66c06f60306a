"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ringlp import (
    BoxSpec,
    POLY_X,
    RingId,
    SKEW_X,
    SKEW_Y,
    Sampler,
    StatusKind,
    classify_edt,
    dual_decreasing_sequence,
    enumerate_dual,
    enumerate_primal,
    from_int,
    from_rational,
    identity_program_trials,
    is_dual_feasible,
    is_primal_feasible,
    is_zero,
    load_program,
    magnitude_gap_check,
    mul,
    primal_improving_sequence,
    sub,
    to_text,
    vector,
    verify_order_axioms,
    weak_duality_trials,
)
from ringlp.cli import main
from ringlp.constructions import no_central_between_check

from _oracles import brute_force_box_optimum
from conftest import FIXTURES, int_vector, make_edt_program, make_gap_program

ALL_RINGS = tuple(RingId)
COMMUTATIVE_RINGS = (RingId.INT, RingId.RAT, RingId.ODDRAT, RingId.POLY)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_strong_duality_gap_over_the_integers():
    with criterion(1, "integer gap program: optima (0, 0) and (1, 1), gap exactly 1"):
        P = make_gap_program()
        start = time.perf_counter()
        primal = enumerate_primal(P, BoxSpec(10))
        dual = enumerate_dual(P, BoxSpec(10))
        elapsed = time.perf_counter() - start
        assert primal.kind is StatusKind.OPTIMAL
        assert primal.witness == int_vector(RingId.INT, [0])
        assert primal.value == from_int(RingId.INT, 0)
        assert dual.kind is StatusKind.OPTIMAL
        assert dual.witness == int_vector(RingId.INT, [1])
        assert dual.value == from_int(RingId.INT, 1)
        assert sub(dual.value, primal.value) == from_int(RingId.INT, 1)  # exact
        assert elapsed < 1.0


def test_criterion_02_edt_failure_over_the_integers():
    with criterion(2, "integer 2x1 program: primal INFEASIBLE, dual OPTIMAL at (0,0)"):
        P = make_edt_program()
        start = time.perf_counter()
        report = classify_edt(P, BoxSpec(10))
        elapsed = time.perf_counter() - start
        assert report.violation
        assert report.primal.kind is StatusKind.INFEASIBLE
        assert report.dual.kind is StatusKind.OPTIMAL
        assert report.dual.witness == int_vector(RingId.INT, [0, 0])
        assert report.dual.value == from_int(RingId.INT, 0)
        assert elapsed < 1.0


def test_criterion_03_division_ring_control():
    with criterion(3, "rational control: gap 0 at x = y = 1/2, no EDT violation"):
        start = time.perf_counter()
        gap_rat = make_gap_program(RingId.RAT)
        box = BoxSpec(2, 2)
        primal = enumerate_primal(gap_rat, box)
        dual = enumerate_dual(gap_rat, box)
        half = vector(RingId.RAT, [from_rational(RingId.RAT, 1, 2)])
        assert primal.kind is StatusKind.OPTIMAL and primal.witness == half
        assert dual.kind is StatusKind.OPTIMAL and dual.witness == half
        assert sub(dual.value, primal.value) == from_int(RingId.RAT, 0)  # exact
        edt_rat = classify_edt(make_edt_program(RingId.RAT), box)
        assert not edt_rat.violation
        assert edt_rat.case == 4
        assert to_text(edt_rat.gap_value) == "0"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_criterion_04_identity_suite(ring):
    with criterion(4, f"500 random (program, x, y) triples over {ring.value}: residuals 0"):
        summary = identity_program_trials(ring, 500, seed=8128)
        assert summary.trials == 500
        assert summary.failures == 0, summary.first_failure


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_criterion_05_weak_duality(ring):
    with criterion(5, f"1000 constructed feasible pairs over {ring.value}: gap >= 0"):
        summary = weak_duality_trials(ring, 1000, seed=6174)
        assert summary.trials == 1000
        assert summary.failures == 0, summary.first_failure


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_criterion_06_order_axioms(ring):
    with criterion(6, f"axiom suite over {ring.value}: 1000 pairs, zero violations"):
        report = verify_order_axioms(ring, 1000, seed=42)
        assert report.violations == ()


def test_criterion_06_skew_relation_exact():
    with criterion(6, "skew relation y*x - 2*x*y = 0 holds exactly"):
        two = from_int(RingId.SKEW, 2)
        assert is_zero(sub(mul(SKEW_Y, SKEW_X), mul(two, mul(SKEW_X, SKEW_Y))))


def test_criterion_07_non_achieving_primal():
    with criterion(7, "oddrat improving sequence: x_k = (3^k - 1)/(2*3^k), 21 steps"):
        bundle = primal_improving_sequence(
            from_rational(RingId.ODDRAT, 2),
            from_rational(RingId.ODDRAT, 1, 3),
        )
        values = bundle.objective_values
        assert len(values) == 22
        for k, value in enumerate(values):
            assert value.payload == Fraction(3**k - 1, 2 * 3**k)  # exact
            assert value.payload.denominator % 2 == 1  # lives in the ring
        for k, point in enumerate(bundle.primal_witnesses):
            assert is_primal_feasible(bundle.program, point).feasible
            if k:
                assert values[k] > values[k - 1]


@pytest.mark.parametrize(
    "ring,a", [(RingId.POLY, POLY_X), (RingId.SKEW, SKEW_X)], ids=["poly", "skew"]
)
def test_criterion_08_non_achieving_dual(ring, a):
    with criterion(8, f"{ring.value} decreasing dual sequence: values 2^(-k), 21 steps"):
        bundle = dual_decreasing_sequence(a, from_rational(ring, 1, 2))
        values = bundle.objective_values
        assert len(values) == 22
        for k, value in enumerate(values):
            assert value == from_rational(ring, 1, 2**k)  # exact
            assert is_dual_feasible(bundle.program, bundle.dual_witnesses[k]).feasible
            if k:
                assert values[k] < values[k - 1]


def test_criterion_09_center_and_magnitude():
    with criterion(9, "500 central samples never fall between x*y and y*x; magnitude gap ZERO"):
        sampler = Sampler(7)
        for _ in range(500):
            z = sampler.sample_central(RingId.SKEW)
            assert no_central_between_check(SKEW_X, SKEW_Y, z).passed
        for ring in COMMUTATIVE_RINGS:
            pair_sampler = Sampler(11)
            applicable = 0
            for _ in range(500):
                a = pair_sampler.sample_positive(ring)
                b = pair_sampler.sample_positive(ring)
                report = magnitude_gap_check(a, b)
                assert report.passed
                if report.applicable:  # finite product: the difference must be ZERO
                    applicable += 1
                    assert "ZERO" in report.details[0]
            assert applicable > 0
        vacuous = magnitude_gap_check(SKEW_X, SKEW_Y)
        assert not vacuous.applicable


def test_criterion_10_determinism(capsys):
    with criterion(10, "byte-identical JSON reports; box scans match a plain-Fraction oracle"):
        commands = [
            ["rings", "--json"],
            ["axioms", "--ring", "skew", "--samples", "200", "--seed", "5", "--json"],
            ["identities", str(FIXTURES / "gap_skew.prog"), "--trials", "100", "--seed", "2", "--json"],
            ["enumerate", str(FIXTURES / "ce_sd.prog"), "--box", "10", "--json"],
            ["edt", str(FIXTURES / "edt_fail.prog"), "--box", "10", "--json"],
            ["check", str(FIXTURES / "ce_sd.prog"), "--x", "0", "--y", "1", "--json"],
            ["demo", "strong-duality-gap", "--json"],
            ["demo", "center-betweenness", "--json"],
        ]
        for argv in commands:
            assert main(list(argv)) in (0,)
            first = capsys.readouterr().out
            assert main(list(argv)) in (0,)
            second = capsys.readouterr().out
            assert first == second and first  # byte-identical
            json.loads(first)  # and well-formed
        for name in ("ce_sd.prog", "ce_sd_rat.prog", "edt_fail.prog",
                     "edt_fail_rat.prog", "edt_fail_transposed.prog",
                     "gap_oddrat.prog"):
            P = load_program(FIXTURES / name)
            den = None if P.ring is RingId.INT else 2
            box = BoxSpec(6, den)
            dens = [q for q in range(1, (den or 1) + 1)
                    if P.ring is not RingId.ODDRAT or q % 2]
            values = sorted({Fraction(n, q) for q in dens for n in range(6 * (den or 1) + 1)})
            A = [[Fraction(P.A.entry(j, i).payload) for i in range(P.cols)]
                 for j in range(P.rows)]
            b = [Fraction(e.payload) for e in P.b]
            c = [Fraction(e.payload) for e in P.c]
            d = Fraction(P.d.payload)
            for primal_side, scan in ((True, enumerate_primal), (False, enumerate_dual)):
                status = scan(P, box)
                oracle = brute_force_box_optimum(A, b, c, d, values, primal_side)
                if oracle is None:
                    assert status.kind is StatusKind.INFEASIBLE
                else:
                    assert status.value.payload == oracle[0]
                    assert tuple(e.payload for e in status.witness) == oracle[1]
