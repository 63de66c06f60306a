import hashlib
import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import ringlp.affine as affine
import ringlp.constructions as constructions
import ringlp.enumeration as enumeration
from ringlp import (
    BoxSpec,
    BundleKind,
    CheckReport,
    CounterexampleBundle,
    Magnitude,
    POLY_X,
    PreconditionError,
    ProgramData,
    RingId,
    SKEW_X,
    SKEW_Y,
    Sampler,
    Scope,
    StatusKind,
    add,
    certificate_dict,
    classify_magnitude,
    dual_decreasing_sequence,
    dual_decreasing_step,
    eval_g,
    from_int,
    from_rational,
    gap,
    gap_program,
    infeasible_optimal_program,
    is_dual_feasible,
    is_primal_feasible,
    is_zero,
    magnitude_gap_check,
    mul,
    no_central_between_check,
    no_central_between_trials,
    one,
    poly,
    primal_improving_sequence,
    primal_improving_step,
    sign,
    strong_duality_counterexample,
    sub,
    to_text,
    vec_text,
    vector,
    verify_bundle,
    zero_vector,
)

from conftest import int_matrix, int_vector, make_gap_program

# sha256 of the certificates and re-verification reports of ``_digest_grid``
PINNED_DIGEST = "b4872e8409f6e3f28ccc8e7f99e95739f058608ec076410b75f40ac5e9ba9b15"

# the kinds ``infeasible_optimal_program`` builds
EDT_KINDS = (BundleKind.INFEASIBLE_OPTIMAL_PRIMAL, BundleKind.INFEASIBLE_OPTIMAL_DUAL)


# ---------------------------------------------------------------------------
# gap_program


def test_gap_program_int_matches_the_shipped_fixture(gap_int):
    bundle = gap_program(from_int(RingId.INT, 2))
    assert bundle.kind is BundleKind.GAP
    assert bundle.program == gap_int
    assert all(c.passed for c in bundle.checks)


def test_gap_program_rejects_units_and_negatives():
    for a, message in (
        (from_rational(RingId.RAT, 2), "2 is invertible in rat; a non-unit is required"),
        (from_int(RingId.INT, -2), "-2 is not positive"),
        (from_int(RingId.INT, 1), "1 is invertible in int; a non-unit is required"),
    ):
        with pytest.raises(PreconditionError) as excinfo:
            gap_program(a)
        assert str(excinfo.value) == message


def test_each_builder_reads_its_ring_from_a():
    """``a`` names the ring, so an ``a`` that is no ring element is a
    ``TypeError``, and a witness outside ``a``'s ring is refused."""
    third = from_rational(RingId.RAT, 1, 3)
    for build in (
        gap_program,
        strong_duality_counterexample,
        lambda a: infeasible_optimal_program(a, BundleKind.INFEASIBLE_OPTIMAL_DUAL),
        lambda a: primal_improving_sequence(a, third),
        lambda a: dual_decreasing_sequence(a, third),
    ):
        with pytest.raises(TypeError, match="^a must be a RingElement, got 2$"):
            build(2)
    two = from_rational(RingId.ODDRAT, 2)
    for build in (primal_improving_sequence, dual_decreasing_sequence):
        with pytest.raises(PreconditionError) as excinfo:
            build(two, third)
        assert str(excinfo.value) == "element 1/3 is not in ring oddrat"


def test_gap_program_poly_feasible_primal_points_are_exactly_zero():
    bundle = gap_program(POLY_X)
    P = bundle.program
    assert is_primal_feasible(P, zero_vector(RingId.POLY, 1)).feasible
    sampler = Sampler(42)
    for _ in range(100):
        v = vector(RingId.POLY, [sampler.sample_positive(RingId.POLY)])
        # any positive v drives x*v above 1 by degree, breaking A x <= b
        assert not is_primal_feasible(P, v).feasible
    assert all(c.passed for c in bundle.checks)


def test_gap_program_skew_claim_on_sampled_pairs():
    bundle = gap_program(SKEW_X)
    P = bundle.program
    assert is_dual_feasible(P, vector(RingId.SKEW, [one(RingId.SKEW)])).feasible
    for x in bundle.primal_witnesses:
        assert is_zero(sub(gap(P, x, bundle.dual_witnesses[0]), one(RingId.SKEW)))
        for y in bundle.dual_witnesses:
            assert sign(gap(P, x, y)) == 1
    assert all(c.passed for c in bundle.checks)


def test_gap_program_dual_family_starts_at_the_least_covering_integer():
    # 2/7 .. 2/17 put k at a power of two and just past one, where an
    # off-by-one in the search for the least covering k would show
    cases = [(Fraction(2, 3), 2), (Fraction(2, 5), 3), (Fraction(2, 1), 1)]
    cases += [(Fraction(2, q), k) for q, k in ((7, 4), (9, 5), (15, 8), (17, 9))]
    for a, k in cases:
        bundle = gap_program(from_rational(RingId.ODDRAT, a))
        assert bundle.dual_witnesses[0] == int_vector(RingId.ODDRAT, [k])
        assert all(c.passed for c in bundle.checks)


@given(m=st.integers(1, 40), half_q=st.integers(0, 400))
def test_first_dual_witness_is_the_ceiling_of_q_over_2m(m, half_q):
    """For ODDRAT a = 2m/q, q odd, the least k with k*a >= 1 is ceil(q/2m)."""
    q = 2 * half_q + 1
    bundle = gap_program(from_rational(RingId.ODDRAT, 2 * m, q))
    assert bundle.dual_witnesses[0] == int_vector(RingId.ODDRAT, [-(-q // (2 * m))])


@pytest.mark.parametrize(
    "a",
    [
        POLY_X,
        poly([0, 2]),
        poly([1, 1]),
        SKEW_X,
        SKEW_Y,
        from_rational(RingId.ODDRAT, 2),
        from_rational(RingId.ODDRAT, 2, 3),
        from_rational(RingId.ODDRAT, 6, 5),
    ],
    ids=str,
)
def test_gap_program_samples_ten_dual_witnesses_from_seed_seven(a):
    """Where no box checks the claim, the witness family is y = [k] and ten
    k + (nonnegative sample) draws of ``Sampler(7)``, in draw order."""
    bundle = gap_program(a)
    k = bundle.dual_witnesses[0][0]
    twin = Sampler(7)
    assert bundle.dual_witnesses[1:] == tuple(
        vector(a.ring, [add(k, twin.sample_nonneg(a.ring))]) for _ in range(10)
    )
    assert all(c.passed for c in bundle.checks)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_gap_program_on_int_checks_by_box_and_samples_no_witness(n):
    bundle = gap_program(from_int(RingId.INT, n))
    assert bundle.dual_witnesses == (int_vector(RingId.INT, [1]),)
    assert bundle.checks[0].details == ("box enumeration on [0,10]: 10 pairs checked",)
    assert all(c.passed for c in bundle.checks)


def test_pair_gap_check_reports_infeasible_points_instead_of_counting_them():
    real = gap_program(from_rational(RingId.ODDRAT, 2, 3))
    forged = CounterexampleBundle(
        real.kind,
        real.program,
        real.claim,
        primal_witnesses=real.primal_witnesses,
        dual_witnesses=(int_vector(RingId.ODDRAT, [1]), real.dual_witnesses[0]),
    )
    reports = {r.name: r for r in verify_bundle(forged)}
    check = reports["gap_sign_positive"]
    assert not check.passed
    assert check.details == (
        "recorded witnesses: 1 pairs checked",
        "dual point ['1']: SLACK_NEGATIVE",
    )


def test_pair_gap_check_names_a_feasible_pair_with_no_gap():
    # a = 1 is a unit: x = [1] and y = [1] are feasible and close the gap
    forged = CounterexampleBundle(
        BundleKind.GAP,
        make_gap_program(RingId.INT, a=1),
        "every feasible pair (x, y) has sign(g(y) - f(x)) = +1",
        primal_witnesses=(int_vector(RingId.INT, [1]),),
        dual_witnesses=(int_vector(RingId.INT, [1]),),
    )
    reports = {r.name: r for r in verify_bundle(forged)}
    check = reports["gap_sign_positive"]
    assert not check.passed
    assert check.details == ("recorded witnesses: 1 pairs checked", "x=['1'] y=['1'] gap=0")


def test_division_ring_control_closes_the_gap():
    # the same data over the rationals stops being a counterexample
    P = make_gap_program(RingId.RAT)
    half = vector(RingId.RAT, [from_rational(RingId.RAT, 1, 2)])
    assert is_primal_feasible(P, half).feasible
    assert is_dual_feasible(P, half).feasible
    assert is_zero(gap(P, half, half))


# ---------------------------------------------------------------------------
# strong duality counterexample


def test_strong_duality_counterexample_int_two(gap_int):
    bundle = strong_duality_counterexample(from_int(RingId.INT, 2))
    assert bundle.kind is BundleKind.STRONG_DUALITY_GAP
    assert bundle.program == gap_int
    assert bundle.primal_optimum == int_vector(RingId.INT, [0])
    assert bundle.dual_optimum == int_vector(RingId.INT, [1])
    assert bundle.gap_value == from_int(RingId.INT, 1)
    assert all(c.passed for c in bundle.checks)


def test_strong_duality_counterexample_int_three():
    bundle = strong_duality_counterexample(from_int(RingId.INT, 3))
    assert bundle.primal_optimum == int_vector(RingId.INT, [0])
    assert bundle.dual_optimum == int_vector(RingId.INT, [1])
    assert bundle.gap_value == from_int(RingId.INT, 1)
    assert all(c.passed for c in bundle.checks)


def test_strong_duality_counterexample_rejects_units():
    with pytest.raises(PreconditionError, match="^2 is invertible in rat; a non-unit is required$"):
        strong_duality_counterexample(from_rational(RingId.RAT, 2))


def test_strong_duality_counterexample_needs_smallest_positive():
    with pytest.raises(PreconditionError, match="^oddrat has no smallest positive element$"):
        strong_duality_counterexample(from_rational(RingId.ODDRAT, 2))


# ---------------------------------------------------------------------------
# infeasible/optimal programs


def test_infeasible_optimal_primal_side(edt_int):
    bundle = infeasible_optimal_program(
        from_int(RingId.INT, 2), BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
    )
    assert bundle.kind is BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
    assert bundle.program == edt_int
    assert bundle.dual_optimum == int_vector(RingId.INT, [0, 0])
    assert is_zero(eval_g(bundle.program, bundle.dual_optimum))
    assert all(c.passed for c in bundle.checks)


def test_infeasible_optimal_poly_variant():
    bundle = infeasible_optimal_program(
        POLY_X, BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
    )
    P = bundle.program
    assert bundle.dual_optimum == zero_vector(RingId.POLY, 2)
    assert is_dual_feasible(P, bundle.dual_optimum).feasible
    # x*v = 1 is impossible by degree, so no sampled point is primal-feasible
    sampler = Sampler(17)
    for _ in range(100):
        v = vector(RingId.POLY, [sampler.sample_nonneg(RingId.POLY)])
        assert not is_primal_feasible(P, v).feasible
    assert any("claimed (not machine-certified)" in n for n in bundle.notes)


def test_infeasible_optimal_transposed(edt_int):
    bundle = infeasible_optimal_program(
        from_int(RingId.INT, 2), BundleKind.INFEASIBLE_OPTIMAL_DUAL
    )
    assert bundle.kind is BundleKind.INFEASIBLE_OPTIMAL_DUAL
    P = bundle.program
    # transpose of A with b and c swapped
    assert P.rows == 1 and P.cols == 2
    assert P.b == int_vector(RingId.INT, [0])
    assert P.c == int_vector(RingId.INT, [1, -1])
    assert bundle.primal_optimum == int_vector(RingId.INT, [0, 0])
    assert all(c.passed for c in bundle.checks)


@pytest.mark.parametrize(
    "kind", ["DUAL_INFEASIBLE", None, BundleKind.GAP, BundleKind.NON_ACHIEVING], ids=repr
)
def test_infeasible_optimal_program_refuses_any_other_kind(kind):
    """``kind`` is tested once, before ``a`` is read: any value but the two
    kinds the construction builds is a ``ValueError`` that names both."""
    for a in (from_int(RingId.INT, 2), "not an element"):
        with pytest.raises(ValueError) as excinfo:
            infeasible_optimal_program(a, kind)
        assert str(excinfo.value) == (
            "kind must be INFEASIBLE_OPTIMAL_PRIMAL or INFEASIBLE_OPTIMAL_DUAL, "
            f"got {kind!r}"
        )


def test_infeasible_optimal_oddrat():
    bundle = infeasible_optimal_program(
        from_rational(RingId.ODDRAT, 2), BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
    )
    # 2x = 1 needs 1/2, which has an even denominator
    assert not is_primal_feasible(
        bundle.program, vector(RingId.ODDRAT, [from_rational(RingId.ODDRAT, 1, 3)])
    ).feasible
    assert all(c.passed for c in bundle.checks)


@pytest.mark.parametrize("kind", EDT_KINDS)
@pytest.mark.parametrize("a", [POLY_X, SKEW_X], ids=["poly", "skew"])
def test_verify_bundle_says_it_did_not_recheck_an_optimum_it_cannot_scan(a, kind):
    """On a ring the box oracle cannot walk, the recorded optimum gets a
    not-applicable ``certify_optimal_pair`` report that names the ring,
    so a caller's ``all(check.passed ...)`` is not silently vacuous."""
    reports = verify_bundle(infeasible_optimal_program(a, kind))
    assert len(reports) == 2 and reports[0].name.endswith("_witnesses_feasible")
    assert reports[1] == CheckReport(
        "certify_optimal_pair",
        True,
        False,
        (f"the box oracle cannot walk {a.ring.value}; the optimum was not re-checked",),
    )


@pytest.mark.parametrize("kind", EDT_KINDS)
@pytest.mark.parametrize("a", [from_int(RingId.INT, 2), from_rational(RingId.ODDRAT, 2)])
def test_verify_bundle_rescans_an_optimum_on_a_ring_it_can_scan(a, kind):
    reports = verify_bundle(infeasible_optimal_program(a, kind))
    rescan = [r for r in reports if r.name == "certify_optimal_pair"]
    assert len(rescan) == 1 and rescan[0].applicable and rescan[0].passed


def test_constructions_mark_exhaustive_only_the_sides_they_argue(monkeypatch):
    """The box oracle reports BOX_LIMITED statuses; a construction marks a
    side EXHAUSTIVE with the note that argues it, OPTIMAL at the in-box best
    even on the box face, and INFEASIBLE when the box holds no witness."""
    judged = []
    judge = constructions.judge_optimal_pair
    monkeypatch.setattr(
        constructions,
        "judge_optimal_pair",
        lambda P, status_of, *candidates: judged.append((status_of(True), status_of(False)))
        or judge(P, status_of, *candidates),
    )
    two = from_int(RingId.INT, 2)
    bundle = strong_duality_counterexample(two)
    (judged_statuses,) = judged
    # y = 1 lies on the face of box 1, where the argued statuses are those of box 10
    face_statuses = constructions._argued_statuses(bundle.program, BoxSpec(1), bundle.notes)
    for primal, dual in (judged_statuses, face_statuses):
        assert (dual.kind, dual.scope, dual.note) == (StatusKind.OPTIMAL, Scope.EXHAUSTIVE, bundle.notes[1])
        assert dual.witness == int_vector(RingId.INT, [1])
        assert (primal.kind, primal.scope, primal.note) == (StatusKind.OPTIMAL, Scope.EXHAUSTIVE, bundle.notes[0])
    for infeasible, kind in enumerate(EDT_KINDS):
        judged.clear()
        bundle = infeasible_optimal_program(two, kind)
        (statuses,) = judged
        argued, optimal = statuses[infeasible], statuses[1 - infeasible]
        assert (argued.kind, argued.scope, argued.witness) == (StatusKind.INFEASIBLE, Scope.EXHAUSTIVE, None)
        assert argued.note == bundle.notes[0] and argued.note.startswith("feasibility forces 2*x = 1")
        assert (optimal.kind, optimal.scope, optimal.note) == (StatusKind.OPTIMAL, Scope.BOX_LIMITED, None)
        assert optimal.witness == zero_vector(RingId.INT, 2)


# ---------------------------------------------------------------------------
# non-achieving: primal improving sequence


def test_improving_step_closed_form_over_oddrat():
    a = from_rational(RingId.ODDRAT, 2)
    z = from_rational(RingId.ODDRAT, 1, 3)
    x = from_rational(RingId.ODDRAT, 0)
    for k in range(1, 22):
        x = primal_improving_step(a, z, x)
        expected = Fraction(3**k - 1, 2 * 3**k)
        assert x.payload == expected
        assert x.payload.denominator % 2 == 1  # stays inside the ring


def test_improving_step_rejects_the_boundary():
    a = from_rational(RingId.RAT, 2)
    z = from_rational(RingId.RAT, 1, 3)
    with pytest.raises(PreconditionError):
        primal_improving_step(a, z, from_rational(RingId.RAT, 1, 2))  # a*x = 1


def test_improving_step_rejects_nonpositive_z():
    a = from_rational(RingId.RAT, 2)
    with pytest.raises(PreconditionError):
        primal_improving_step(a, from_rational(RingId.RAT, 0), from_rational(RingId.RAT, 0))


@pytest.mark.parametrize(
    "ring,a_q,z_q",
    [
        (RingId.RAT, Fraction(2, 3), Fraction(1, 2)),
        (RingId.ODDRAT, Fraction(2), Fraction(1, 3)),
        (RingId.POLY, Fraction(3, 4), Fraction(1, 2)),
    ],
)
def test_improving_step_factorization_on_valid_inputs(ring, a_q, z_q):
    a = from_rational(ring, a_q)
    z = from_rational(ring, z_q)
    o = one(ring)
    x = from_int(ring, 0)
    for _ in range(10):
        nxt = primal_improving_step(a, z, x)
        lhs = sub(o, mul(a, nxt))
        rhs = mul(sub(o, mul(a, z)), sub(o, mul(a, x)))
        assert lhs == rhs
        assert sign(sub(nxt, x)) == 1
        x = nxt


def test_improving_step_identity_in_skew_operand_order():
    # the factorization is pure algebra; it must hold for arbitrary skew
    # elements with exactly this operand order
    sampler = Sampler(23)
    o = one(RingId.SKEW)
    for _ in range(100):
        a = sampler.sample(RingId.SKEW)
        z = sampler.sample(RingId.SKEW)
        x = sampler.sample(RingId.SKEW)
        nxt = add(x, mul(z, sub(o, mul(a, x))))
        lhs = sub(o, mul(a, nxt))
        rhs = mul(sub(o, mul(a, z)), sub(o, mul(a, x)))
        assert lhs == rhs


def test_primal_improving_sequence_bundle():
    bundle = primal_improving_sequence(
        from_rational(RingId.ODDRAT, 2),
        from_rational(RingId.ODDRAT, 1, 3),
    )
    assert certificate_dict(bundle)["sequence"]["role"] == "PRIMAL_IMPROVING"
    assert bundle.dual_witnesses == () and len(bundle.primal_witnesses) == 22
    for k, value in enumerate(bundle.objective_values):
        assert value.payload == Fraction(3**k - 1, 2 * 3**k)
    assert all(c.passed for c in bundle.checks)


@pytest.mark.parametrize(
    "a,z",
    [
        (Fraction(2), Fraction(1, 3)),
        (Fraction(2), Fraction(1, 5)),
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(4), Fraction(1, 5)),
        (Fraction(6, 5), Fraction(1, 3)),
    ],
    ids=str,
)
def test_primal_improving_sequence_walks_twenty_one_strict_steps(a, z):
    """1 - a*x_k = (1 - a*z)^k, so f(x_k) = x_k = (1 - (1 - a*z)^k) / a."""
    ring = RingId.ODDRAT
    bundle = primal_improving_sequence(from_rational(ring, a), from_rational(ring, z))
    assert len(bundle.primal_witnesses) == len(bundle.objective_values) == 22
    for k, value in enumerate(bundle.objective_values):
        assert value.payload == (1 - (1 - a * z) ** k) / a
    assert all(c.passed for c in bundle.checks)


def test_primal_improving_sequence_needs_room_below_one():
    with pytest.raises(PreconditionError, match=r"no z with 0 < a\*z < 1 exists$"):
        primal_improving_sequence(from_int(RingId.INT, 2), from_int(RingId.INT, 1))


# ---------------------------------------------------------------------------
# non-achieving: dual decreasing sequence


@pytest.mark.parametrize("ring,a", [(RingId.POLY, POLY_X), (RingId.SKEW, SKEW_X)])
def test_dual_decreasing_sequence_halves_forever(ring, a):
    bundle = dual_decreasing_sequence(a, from_rational(ring, 1, 2))
    assert certificate_dict(bundle)["sequence"]["role"] == "DUAL_DECREASING"
    assert bundle.primal_witnesses == () and len(bundle.dual_witnesses) == 22
    for k, value in enumerate(bundle.objective_values):
        assert value == from_rational(ring, 1, 2**k)
        assert is_dual_feasible(bundle.program, bundle.dual_witnesses[k]).feasible
    assert all(c.passed for c in bundle.checks)


@pytest.mark.parametrize(
    "a,p",
    [
        (POLY_X, Fraction(1, 3)),
        (POLY_X, Fraction(2, 3)),
        (poly([0, 2]), Fraction(1, 2)),
        (poly([1, 1]), Fraction(1, 2)),
        (SKEW_Y, Fraction(3, 4)),
    ],
    ids=str,
)
def test_dual_decreasing_sequence_walks_twenty_one_strict_steps(a, p):
    ring = a.ring
    bundle = dual_decreasing_sequence(a, from_rational(ring, p))
    assert len(bundle.dual_witnesses) == len(bundle.objective_values) == 22
    for k, value in enumerate(bundle.objective_values):
        assert value == from_rational(ring, p**k)
    assert all(c.passed for c in bundle.checks)


def test_dual_decreasing_step_infeasibility_is_caught():
    # scaling y = [1] by 1/3 drops 2*y below the constraint threshold:
    # the claim "a*y*p > 1" genuinely fails here (2 * 1/3 = 2/3 < 1)
    P = make_gap_program(RingId.ODDRAT)
    y = vector(RingId.ODDRAT, [one(RingId.ODDRAT)])
    with pytest.raises(PreconditionError) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, 1, 3))
    assert str(excinfo.value) == "scaling by 1/3 breaks dual feasibility at row 0 (SLACK_NEGATIVE)"


def _rat_program(a: int, b: int, c: int) -> ProgramData:
    """The RAT 1x1 program A=[a], b=[b], c=[c], d=0."""
    ring = RingId.RAT
    return ProgramData(
        ring, int_matrix(ring, [[a]]), int_vector(ring, [b]), int_vector(ring, [c]), from_int(ring, 0)
    )


def test_dual_decreasing_step_preconditions():
    P = make_gap_program(RingId.POLY)
    y = vector(RingId.POLY, [one(RingId.POLY)])
    with pytest.raises(PreconditionError):
        dual_decreasing_step(P, y, from_int(RingId.POLY, 2))  # p >= 1
    with pytest.raises(PreconditionError):
        dual_decreasing_step(P, zero_vector(RingId.POLY, 1), from_rational(RingId.POLY, 1, 2))
    # y = [0] is dual-feasible when c = [0], but a zero entry cannot decrease
    with pytest.raises(PreconditionError) as excinfo:
        dual_decreasing_step(
            _rat_program(1, 1, 0), int_vector(RingId.RAT, [0]), from_rational(RingId.RAT, 1, 2)
        )
    assert str(excinfo.value) == "every entry of y must be strictly positive"


def test_dual_decreasing_step_refuses_a_scaling_that_raises_the_objective():
    # halving y = [1] keeps it feasible; with b = [-1] it raises g from -1 to
    # -1/2, and with b = [0] it keeps g at 0, which is no strict decrease
    for P in (_rat_program(-1, -1, -5), _rat_program(1, 0, 0)):
        with pytest.raises(PreconditionError) as excinfo:
            dual_decreasing_step(P, int_vector(RingId.RAT, [1]), from_rational(RingId.RAT, 1, 2))
        assert str(excinfo.value) == "objective value did not strictly decrease under the scaling"


def test_dual_decreasing_step_reports_the_value_it_tested():
    """Like ``primal_improving_step``, a failed sign test names the value
    it tested: 1 - p, not p."""
    P = make_gap_program(RingId.ODDRAT)
    y = vector(RingId.ODDRAT, [one(RingId.ODDRAT)])
    with pytest.raises(PreconditionError) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, 5, 3))
    assert str(excinfo.value) == "sign(1 - p) = +1 failed (value -2/3)"
    with pytest.raises(PreconditionError) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, -1, 3))
    assert str(excinfo.value) == "sign(p) = +1 failed (value -1/3)"


def test_dual_decreasing_sequence_needs_a_fractional_p():
    with pytest.raises(PreconditionError, match="no p with 0 < p < 1 exists$"):
        dual_decreasing_sequence(from_int(RingId.INT, 2), from_int(RingId.INT, 1))


def _oddrat_primal_sequence(**knob):
    ring = RingId.ODDRAT
    return primal_improving_sequence(from_rational(ring, 2), from_rational(ring, 1, 3), **knob)


def _poly_dual_sequence(**knob):
    return dual_decreasing_sequence(POLY_X, from_rational(RingId.POLY, 1, 2), **knob)


def _oddrat_gap_program(**knob):
    return gap_program(from_rational(RingId.ODDRAT, 2), **knob)


@pytest.mark.parametrize(
    "run,knob",
    [
        (_oddrat_gap_program, "dual_samples"),
        (_oddrat_gap_program, "seed"),
        (_oddrat_primal_sequence, "steps"),
        (_poly_dual_sequence, "steps"),
    ],
)
def test_the_constructions_refuse_a_size_knob_by_name(run, knob):
    """The sizes and the seed are fixed, so a caller's value is an error,
    not ignored."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
        run(**{knob: 3})


def _sequence_parts(real):
    """The witnesses field of a sequence bundle, its points and its values."""
    witnesses = "primal_witnesses" if real.primal_witnesses else "dual_witnesses"
    return witnesses, getattr(real, witnesses), real.objective_values


@pytest.mark.parametrize("build", [_oddrat_primal_sequence, _poly_dual_sequence])
def test_verify_bundle_recomputes_the_recorded_objective_values(build):
    real = build()
    witnesses, points, values = _sequence_parts(real)

    def forged(points, values):
        return CounterexampleBundle(
            real.kind, real.program, real.claim, **{witnesses: points}, objective_values=values
        )

    # every point is the start point, feasible, but the values are a real run's
    start = (points[0],) * len(points)
    reports = {r.name: r for r in verify_bundle(forged(start, values))}
    assert reports[f"{witnesses}_feasible"].passed
    assert not reports["witness_sequence"].passed
    assert all(r.passed for r in verify_bundle(real))
    # a single point checks no step
    reports = verify_bundle(forged(points[:1], values[:1]))
    assert [(r.name, r.passed) for r in reports] == [
        (f"{witnesses}_feasible", True),
        ("witness_sequence", False),
    ]
    # two equal points, each with its true value, make no strict step
    trend = "increasing" if witnesses == "primal_witnesses" else "decreasing"
    reports = verify_bundle(forged(start[:2], values[:1] * 2))
    assert [r.details for r in reports] == [("2 points",), (f"objective not strictly {trend} at step 1",)]


@pytest.mark.parametrize("build", [_oddrat_primal_sequence, _poly_dual_sequence])
def test_objective_values_belong_to_the_witnesses_of_exactly_one_side(build):
    """A bundle's objective values are one per witness of its one witness
    side, which names the sequence's role, so a sequence cannot disagree
    with its points about their side, their count or their ring."""
    real = build()
    witnesses, points, values = _sequence_parts(real)
    other = "dual_witnesses" if witnesses == "primal_witnesses" else "primal_witnesses"
    for fields in (
        {witnesses: points, other: points[:1]},  # both sides
        {},  # neither side
        {witnesses: points[:-1]},  # one point short
        {witnesses: points + points[:1]},  # one point over
    ):
        with pytest.raises(ValueError, match="^objective values need one side's witnesses"):
            CounterexampleBundle(real.kind, real.program, real.claim, **fields, objective_values=values)
    # the role is read from the witnesses' side, and the points judged on it
    rebuilt = CounterexampleBundle(
        real.kind, real.program, real.claim, **{witnesses: points}, objective_values=values
    )
    role = "PRIMAL_IMPROVING" if witnesses == "primal_witnesses" else "DUAL_DECREASING"
    assert certificate_dict(rebuilt)["sequence"] == {
        "role": role,
        "points": [vec_text(p) for p in points],
        "objective_values": [to_text(v) for v in values],
    }
    assert [r.passed for r in verify_bundle(rebuilt)] == [True, True]
    # witnesses with no recorded values are no sequence
    plain = CounterexampleBundle(real.kind, real.program, real.claim, **{witnesses: points})
    assert certificate_dict(plain)["sequence"] is None
    assert [r.name for r in verify_bundle(plain)] == [f"{witnesses}_feasible"]


# ---------------------------------------------------------------------------
# center and magnitude checks


def test_no_central_between_for_the_generators():
    report = no_central_between_check(SKEW_X, SKEW_Y, from_rational(RingId.SKEW, 3, 4))
    assert report.passed
    assert any("oriented" in d for d in report.details)


def test_no_central_between_on_500_sampled_constants():
    sampler = Sampler(9)
    for _ in range(500):
        z = sampler.sample_central(RingId.SKEW)
        assert no_central_between_check(SKEW_X, SKEW_Y, z).passed
    summary = no_central_between_trials(SKEW_X, SKEW_Y, 500, 9)
    assert (summary.trials, summary.failures, summary.first_failure) == (500, 0, None)
    with pytest.raises(ValueError, match="trials must be positive"):
        no_central_between_trials(SKEW_X, SKEW_Y, 0, 9)


def test_no_central_between_vacuous_on_commutative_rings():
    sampler = Sampler(12)
    for _ in range(100):
        a = sampler.sample_positive(RingId.RAT)
        b = sampler.sample_positive(RingId.RAT)
        z = sampler.sample(RingId.RAT)
        assert no_central_between_check(a, b, z).passed


def test_no_central_between_preconditions():
    with pytest.raises(PreconditionError):
        no_central_between_check(
            from_int(RingId.SKEW, -1), SKEW_Y, from_int(RingId.SKEW, 1)
        )
    with pytest.raises(PreconditionError):
        no_central_between_check(SKEW_X, SKEW_Y, SKEW_X)  # x is not central


def test_magnitude_gap_int_pair():
    report = magnitude_gap_check(from_int(RingId.INT, 2), from_int(RingId.INT, 3))
    assert report.applicable and report.passed
    assert any("ZERO" in d for d in report.details)


def test_magnitude_gap_vacuous_on_the_skew_generators():
    report = magnitude_gap_check(SKEW_X, SKEW_Y)
    assert not report.applicable
    assert report.passed
    assert classify_magnitude(mul(SKEW_X, SKEW_Y)) is Magnitude.INFINITE


@pytest.mark.parametrize("ring", [RingId.INT, RingId.RAT, RingId.ODDRAT, RingId.POLY])
def test_magnitude_gap_zero_on_commutative_pairs(ring):
    sampler = Sampler(88)
    for _ in range(100):
        a = sampler.sample_positive(ring)
        b = sampler.sample_positive(ring)
        report = magnitude_gap_check(a, b)
        assert report.passed


# ---------------------------------------------------------------------------
# bundle re-verification


def test_every_bundle_kind_re_verifies():
    bundles = [
        gap_program(from_int(RingId.INT, 2)),
        gap_program(SKEW_X),
        strong_duality_counterexample(from_int(RingId.INT, 2)),
        infeasible_optimal_program(
            from_int(RingId.INT, 2), BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
        ),
        infeasible_optimal_program(
            from_int(RingId.INT, 2), BundleKind.INFEASIBLE_OPTIMAL_DUAL
        ),
        primal_improving_sequence(
            from_rational(RingId.ODDRAT, 2),
            from_rational(RingId.ODDRAT, 1, 3),
        ),
        dual_decreasing_sequence(POLY_X, from_rational(RingId.POLY, 1, 2)),
    ]
    for bundle in bundles:
        for report in verify_bundle(bundle):
            assert report.passed, (bundle.kind, report.name, report.details)


def test_certificate_dict_is_jsonable():
    bundle = strong_duality_counterexample(from_int(RingId.INT, 2))
    blob = json.dumps(certificate_dict(bundle), sort_keys=True)
    assert '"STRONG_DUALITY_GAP"' in blob
    assert '"gap": "1"' in blob


def _digest_grid(monkeypatch):
    """Bundles whose certificates and re-verification are pinned byte for
    byte: strong-duality gaps on four boxes (box 1 puts y* = 1 on the box
    face), each built and re-verified while ``constructions._BOX`` is that
    box, both infeasible/optimal orientations and the gap program, on
    every ring that has a positive non-unit."""
    for a in range(2, 7):
        for bound in (1, 2, 3, 10):
            with monkeypatch.context() as patch:
                patch.setattr(constructions, "_BOX", BoxSpec(bound))
                yield strong_duality_counterexample(from_int(RingId.INT, a))
    elements = [from_int(RingId.INT, a) for a in (2, 3, 5)]
    elements += [
        from_rational(RingId.ODDRAT, q) for q in (Fraction(2), Fraction(2, 3), Fraction(4, 5))
    ]
    for a in (*elements, POLY_X, SKEW_X):
        for kind in EDT_KINDS:
            yield infeasible_optimal_program(a, kind)
    for a in elements:
        yield gap_program(a)
    for a in (POLY_X, SKEW_X):
        yield gap_program(a)


def test_certificates_and_re_verification_are_byte_identical(monkeypatch):
    doc = [
        [certificate_dict(bundle), [r.as_dict() for r in verify_bundle(bundle)]]
        for bundle in _digest_grid(monkeypatch)
    ]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert len(doc) == 44
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGEST


def test_constructions_scan_each_side_once(monkeypatch):
    """(box scans, grid walks, primal verdicts, dual verdicts) per
    construction: each side is scanned once and its grid walked once by
    ``_feasible_walk``, a listing of a side's points walks it once too, and
    each witness is checked once by its side's feasibility test, which the
    walk does not call."""
    counts = dict.fromkeys(("scans", "walks", "primal", "dual"), 0)
    for module, name, key in (
        (enumeration, "_enumerate", "scans"),
        (enumeration, "_feasible_walk", "walks"),
        (affine, "is_primal_feasible", "primal"),
        (affine, "is_dual_feasible", "dual"),
    ):
        original = getattr(module, name)

        def wrapper(*args, _original=original, _key=key):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)

    def made(action):
        before = dict(counts)
        result = action()
        return result, tuple(counts[k] - before[k] for k in counts)

    two = from_int(RingId.INT, 2)
    strong, n = made(lambda: strong_duality_counterexample(two))
    assert n == (2, 2, 1, 1)
    edt, n = made(
        lambda: infeasible_optimal_program(two, BundleKind.INFEASIBLE_OPTIMAL_PRIMAL)
    )
    assert n == (2, 2, 0, 2)
    assert made(lambda: gap_program(two))[1] == (0, 2, 1, 1)
    skew, n = made(lambda: gap_program(SKEW_X))
    assert n == (0, 0, 1, 11)
    assert made(lambda: verify_bundle(skew))[1] == (0, 0, 1, 11)
    # re-verification still scans both sides from scratch
    assert made(lambda: verify_bundle(strong))[1][0] == 2
    assert made(lambda: verify_bundle(edt))[1][0] == 2
