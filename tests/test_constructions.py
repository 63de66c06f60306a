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
    CounterexampleBundle,
    InfeasibleSide,
    Magnitude,
    NoSmallestPositive,
    NotAPositiveNonUnit,
    POLY_X,
    PreconditionViolated,
    RingId,
    SKEW_X,
    SKEW_Y,
    Sampler,
    Scope,
    SequenceRole,
    StatusKind,
    StepLosesFeasibility,
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
    primal_improving_sequence,
    primal_improving_step,
    sign,
    strong_duality_counterexample,
    sub,
    vector,
    verify_bundle,
    WitnessSequence,
    zero_vector,
)

from conftest import int_vector, make_gap_program

# sha256 of the certificates and re-verification reports of ``_digest_grid``
PINNED_DIGEST = "3da515ecb8f348c49165fe75120e6991f106ea6f73c47200f6e57135c79642a7"


# ---------------------------------------------------------------------------
# gap_program


def test_gap_program_int_matches_the_shipped_fixture(gap_int):
    bundle = gap_program(RingId.INT, from_int(RingId.INT, 2))
    assert bundle.kind is BundleKind.GAP
    assert bundle.program == gap_int
    assert all(c.passed for c in bundle.checks)


def test_gap_program_rejects_units_and_negatives():
    with pytest.raises(NotAPositiveNonUnit):
        gap_program(RingId.RAT, from_rational(RingId.RAT, 2))
    with pytest.raises(NotAPositiveNonUnit):
        gap_program(RingId.INT, from_int(RingId.INT, -2))
    with pytest.raises(NotAPositiveNonUnit):
        gap_program(RingId.INT, from_int(RingId.INT, 1))


@pytest.mark.parametrize(
    "samples,error", [(True, TypeError), (1.0, TypeError), ("2", TypeError), (-3, ValueError)]
)
@pytest.mark.parametrize("ring", [RingId.INT, RingId.ODDRAT])
def test_gap_program_refuses_a_sample_count_that_is_not_a_nonnegative_int(ring, samples, error):
    with pytest.raises(error, match="dual_samples must be"):
        gap_program(ring, from_rational(ring, 2), dual_samples=samples)


@pytest.mark.parametrize("seed", ["x", True, 1.5, None])
@pytest.mark.parametrize("ring", [RingId.INT, RingId.ODDRAT])
def test_gap_program_refuses_a_seed_that_is_not_an_int_on_every_ring(ring, seed):
    """INT checks its claim by box enumeration and draws nothing, yet a bad
    seed is refused there too, before any work."""
    with pytest.raises(TypeError, match="seed must be an int"):
        gap_program(ring, from_rational(ring, 2), seed=seed)


def test_gap_program_with_no_samples_keeps_only_the_least_covering_witness():
    bundle = gap_program(RingId.ODDRAT, from_rational(RingId.ODDRAT, 2), dual_samples=0)
    assert bundle.dual_witnesses == (int_vector(RingId.ODDRAT, [1]),)
    assert all(c.passed for c in bundle.checks)


def test_gap_program_poly_feasible_primal_points_are_exactly_zero():
    bundle = gap_program(RingId.POLY, POLY_X)
    P = bundle.program
    assert is_primal_feasible(P, zero_vector(RingId.POLY, 1)).feasible
    sampler = Sampler(42)
    for _ in range(100):
        v = vector(RingId.POLY, [sampler.sample_positive(RingId.POLY)])
        # any positive v drives x*v above 1 by degree, breaking A x <= b
        assert not is_primal_feasible(P, v).feasible
    assert all(c.passed for c in bundle.checks)


def test_gap_program_skew_claim_on_sampled_pairs():
    bundle = gap_program(RingId.SKEW, SKEW_X)
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
        bundle = gap_program(RingId.ODDRAT, from_rational(RingId.ODDRAT, a))
        assert bundle.dual_witnesses[0] == int_vector(RingId.ODDRAT, [k])
        assert all(c.passed for c in bundle.checks)


@given(m=st.integers(1, 40), half_q=st.integers(0, 400))
def test_first_dual_witness_is_the_ceiling_of_q_over_2m(m, half_q):
    """For ODDRAT a = 2m/q, q odd, the least k with k*a >= 1 is ceil(q/2m)."""
    q = 2 * half_q + 1
    bundle = gap_program(RingId.ODDRAT, from_rational(RingId.ODDRAT, 2 * m, q), dual_samples=0)
    assert bundle.dual_witnesses[0] == int_vector(RingId.ODDRAT, [-(-q // (2 * m))])


def test_pair_gap_check_reports_infeasible_points_instead_of_counting_them():
    real = gap_program(RingId.ODDRAT, from_rational(RingId.ODDRAT, 2, 3))
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
    bundle = strong_duality_counterexample(RingId.INT, from_int(RingId.INT, 2))
    assert bundle.kind is BundleKind.STRONG_DUALITY_GAP
    assert bundle.program == gap_int
    assert bundle.primal_optimum == int_vector(RingId.INT, [0])
    assert bundle.dual_optimum == int_vector(RingId.INT, [1])
    assert bundle.gap_value == from_int(RingId.INT, 1)
    assert all(c.passed for c in bundle.checks)


def test_strong_duality_counterexample_int_three():
    bundle = strong_duality_counterexample(RingId.INT, from_int(RingId.INT, 3))
    assert bundle.primal_optimum == int_vector(RingId.INT, [0])
    assert bundle.dual_optimum == int_vector(RingId.INT, [1])
    assert bundle.gap_value == from_int(RingId.INT, 1)
    assert all(c.passed for c in bundle.checks)


def test_strong_duality_counterexample_rejects_units():
    with pytest.raises(NotAPositiveNonUnit):
        strong_duality_counterexample(RingId.RAT, from_rational(RingId.RAT, 2))


def test_strong_duality_counterexample_needs_smallest_positive():
    with pytest.raises(NoSmallestPositive):
        strong_duality_counterexample(RingId.ODDRAT, from_rational(RingId.ODDRAT, 2))


# ---------------------------------------------------------------------------
# infeasible/optimal programs


def test_infeasible_optimal_primal_side(edt_int):
    bundle = infeasible_optimal_program(
        RingId.INT, from_int(RingId.INT, 2), InfeasibleSide.PRIMAL_INFEASIBLE
    )
    assert bundle.kind is BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
    assert bundle.program == edt_int
    assert bundle.dual_optimum == int_vector(RingId.INT, [0, 0])
    assert is_zero(eval_g(bundle.program, bundle.dual_optimum))
    assert all(c.passed for c in bundle.checks)


def test_infeasible_optimal_poly_variant():
    bundle = infeasible_optimal_program(
        RingId.POLY, POLY_X, InfeasibleSide.PRIMAL_INFEASIBLE
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
        RingId.INT, from_int(RingId.INT, 2), InfeasibleSide.DUAL_INFEASIBLE
    )
    assert bundle.kind is BundleKind.INFEASIBLE_OPTIMAL_DUAL
    P = bundle.program
    # transpose of A with b and c swapped
    assert P.rows == 1 and P.cols == 2
    assert P.b == int_vector(RingId.INT, [0])
    assert P.c == int_vector(RingId.INT, [1, -1])
    assert bundle.primal_optimum == int_vector(RingId.INT, [0, 0])
    assert all(c.passed for c in bundle.checks)


def test_infeasible_optimal_oddrat():
    bundle = infeasible_optimal_program(
        RingId.ODDRAT, from_rational(RingId.ODDRAT, 2), InfeasibleSide.PRIMAL_INFEASIBLE
    )
    # 2x = 1 needs 1/2, which has an even denominator
    assert not is_primal_feasible(
        bundle.program, vector(RingId.ODDRAT, [from_rational(RingId.ODDRAT, 1, 3)])
    ).feasible
    assert all(c.passed for c in bundle.checks)


def test_constructions_mark_exhaustive_only_the_sides_they_argue(monkeypatch):
    """The box oracle reports BOX_LIMITED statuses; a construction marks a
    side EXHAUSTIVE with the note that argues it, OPTIMAL at the in-box best
    even on the box face, and INFEASIBLE when the box holds no witness."""
    judged = []
    judge = constructions.judge_optimal_pair
    monkeypatch.setattr(
        constructions,
        "judge_optimal_pair",
        lambda P, statuses, *candidates: judged.append(statuses) or judge(P, statuses, *candidates),
    )
    two = from_int(RingId.INT, 2)
    bundle = strong_duality_counterexample(RingId.INT, two, BoxSpec(1))
    (primal, dual), = judged
    # y = 1 lies on the face of box 1
    assert (dual.kind, dual.scope, dual.note) == (StatusKind.OPTIMAL, Scope.EXHAUSTIVE, bundle.notes[1])
    assert dual.witness == int_vector(RingId.INT, [1])
    assert (primal.kind, primal.scope, primal.note) == (StatusKind.OPTIMAL, Scope.EXHAUSTIVE, bundle.notes[0])
    for side, infeasible in ((InfeasibleSide.PRIMAL_INFEASIBLE, 0), (InfeasibleSide.DUAL_INFEASIBLE, 1)):
        judged.clear()
        bundle = infeasible_optimal_program(RingId.INT, two, side)
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
    with pytest.raises(PreconditionViolated):
        primal_improving_step(a, z, from_rational(RingId.RAT, 1, 2))  # a*x = 1


def test_improving_step_rejects_nonpositive_z():
    a = from_rational(RingId.RAT, 2)
    with pytest.raises(PreconditionViolated):
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
        RingId.ODDRAT,
        from_rational(RingId.ODDRAT, 2),
        from_rational(RingId.ODDRAT, 1, 3),
        steps=21,
    )
    seq = bundle.sequence
    assert seq.role is SequenceRole.PRIMAL_IMPROVING
    assert len(seq.points) == 22
    for k, value in enumerate(seq.objective_values):
        assert value.payload == Fraction(3**k - 1, 2 * 3**k)
    assert all(c.passed for c in bundle.checks)


def test_primal_improving_sequence_needs_room_below_one():
    with pytest.raises(PreconditionViolated):
        primal_improving_sequence(
            RingId.INT, from_int(RingId.INT, 2), from_int(RingId.INT, 1)
        )


# ---------------------------------------------------------------------------
# non-achieving: dual decreasing sequence


@pytest.mark.parametrize("ring,a", [(RingId.POLY, POLY_X), (RingId.SKEW, SKEW_X)])
def test_dual_decreasing_sequence_halves_forever(ring, a):
    bundle = dual_decreasing_sequence(ring, a, from_rational(ring, 1, 2), steps=21)
    seq = bundle.sequence
    assert seq.role is SequenceRole.DUAL_DECREASING
    assert len(seq.points) == 22
    for k, value in enumerate(seq.objective_values):
        assert value == from_rational(ring, 1, 2**k)
        assert is_dual_feasible(bundle.program, seq.points[k]).feasible
    assert all(c.passed for c in bundle.checks)


def test_dual_decreasing_step_infeasibility_is_caught():
    # scaling y = [1] by 1/3 drops 2*y below the constraint threshold:
    # the claim "a*y*p > 1" genuinely fails here (2 * 1/3 = 2/3 < 1)
    P = make_gap_program(RingId.ODDRAT)
    y = vector(RingId.ODDRAT, [one(RingId.ODDRAT)])
    with pytest.raises(StepLosesFeasibility) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, 1, 3))
    assert excinfo.value.row == 0


def test_dual_decreasing_step_preconditions():
    P = make_gap_program(RingId.POLY)
    y = vector(RingId.POLY, [one(RingId.POLY)])
    with pytest.raises(PreconditionViolated):
        dual_decreasing_step(P, y, from_int(RingId.POLY, 2))  # p >= 1
    with pytest.raises(PreconditionViolated):
        dual_decreasing_step(P, zero_vector(RingId.POLY, 1), from_rational(RingId.POLY, 1, 2))


def test_dual_decreasing_step_reports_the_value_it_tested():
    """Like ``primal_improving_step``, a failed sign test names the value
    it tested: 1 - p, not p."""
    P = make_gap_program(RingId.ODDRAT)
    y = vector(RingId.ODDRAT, [one(RingId.ODDRAT)])
    with pytest.raises(PreconditionViolated) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, 5, 3))
    assert str(excinfo.value) == "sign(1 - p) = +1 failed (value -2/3)"
    with pytest.raises(PreconditionViolated) as excinfo:
        dual_decreasing_step(P, y, from_rational(RingId.ODDRAT, -1, 3))
    assert str(excinfo.value) == "sign(p) = +1 failed (value -1/3)"


def test_dual_decreasing_sequence_needs_a_fractional_p():
    with pytest.raises(PreconditionViolated):
        dual_decreasing_sequence(
            RingId.INT, from_int(RingId.INT, 2), from_int(RingId.INT, 1)
        )


def _oddrat_primal_sequence(steps):
    ring = RingId.ODDRAT
    return primal_improving_sequence(
        ring, from_rational(ring, 2), from_rational(ring, 1, 3), steps=steps
    )


def _poly_dual_sequence(steps):
    return dual_decreasing_sequence(
        RingId.POLY, POLY_X, from_rational(RingId.POLY, 1, 2), steps=steps
    )


@pytest.mark.parametrize(
    "build,steps", [(_oddrat_primal_sequence, 0), (_poly_dual_sequence, -5)]
)
def test_sequences_need_at_least_one_step(build, steps):
    with pytest.raises(ValueError, match="steps must be positive"):
        build(steps)


@pytest.mark.parametrize("steps", [True, False, 2.0, "3"])
@pytest.mark.parametrize("build", [_oddrat_primal_sequence, _poly_dual_sequence])
def test_sequences_refuse_a_step_count_that_is_not_an_int(build, steps):
    with pytest.raises(TypeError, match="steps must be an int"):
        build(steps)


@pytest.mark.parametrize("build", [_oddrat_primal_sequence, _poly_dual_sequence])
def test_verify_bundle_recomputes_the_recorded_objective_values(build):
    # every point is the start point, feasible, but the values are a real run's
    real = build(3)
    seq = real.sequence
    start = (seq.points[0],) * len(seq.points)
    primal = seq.role is SequenceRole.PRIMAL_IMPROVING
    forged = CounterexampleBundle(
        kind=real.kind,
        program=real.program,
        claim=real.claim,
        primal_witnesses=start if primal else (),
        dual_witnesses=() if primal else start,
        sequence=WitnessSequence(seq.ring, seq.role, start, seq.objective_values),
    )
    reports = {r.name: r for r in verify_bundle(forged)}
    witnesses = "primal_witnesses" if primal else "dual_witnesses"
    assert reports[f"{witnesses}_feasible"].passed
    assert not reports["witness_sequence"].passed
    assert all(r.passed for r in verify_bundle(real))
    # a single point checks no step, and every point needs its value
    single = WitnessSequence(seq.ring, seq.role, seq.points[:1], seq.objective_values[:1])
    short = CounterexampleBundle(real.kind, real.program, real.claim, sequence=single)
    assert [r.passed for r in verify_bundle(short)] == [False]
    with pytest.raises(ValueError):
        WitnessSequence(seq.ring, seq.role, seq.points, seq.objective_values[:1])


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
    with pytest.raises(PreconditionViolated):
        no_central_between_check(
            from_int(RingId.SKEW, -1), SKEW_Y, from_int(RingId.SKEW, 1)
        )
    with pytest.raises(PreconditionViolated):
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
        gap_program(RingId.INT, from_int(RingId.INT, 2)),
        gap_program(RingId.SKEW, SKEW_X),
        strong_duality_counterexample(RingId.INT, from_int(RingId.INT, 2)),
        infeasible_optimal_program(
            RingId.INT, from_int(RingId.INT, 2), InfeasibleSide.PRIMAL_INFEASIBLE
        ),
        infeasible_optimal_program(
            RingId.INT, from_int(RingId.INT, 2), InfeasibleSide.DUAL_INFEASIBLE
        ),
        primal_improving_sequence(
            RingId.ODDRAT,
            from_rational(RingId.ODDRAT, 2),
            from_rational(RingId.ODDRAT, 1, 3),
        ),
        dual_decreasing_sequence(RingId.POLY, POLY_X, from_rational(RingId.POLY, 1, 2)),
    ]
    for bundle in bundles:
        for report in verify_bundle(bundle):
            assert report.passed, (bundle.kind, report.name, report.details)


def test_certificate_dict_is_jsonable():
    bundle = strong_duality_counterexample(RingId.INT, from_int(RingId.INT, 2))
    blob = json.dumps(certificate_dict(bundle), sort_keys=True)
    assert '"STRONG_DUALITY_GAP"' in blob
    assert '"gap": "1"' in blob


def _digest_grid():
    """Bundles whose certificates and re-verification are pinned byte for
    byte: strong-duality gaps on four boxes (box 1 puts y* = 1 on the box
    face), both infeasible/optimal orientations and the gap program, on
    every ring that has a positive non-unit."""
    for a in range(2, 7):
        for bound in (1, 2, 3, 10):
            box = BoxSpec(bound)
            yield strong_duality_counterexample(RingId.INT, from_int(RingId.INT, a), box), box
    elements = [from_int(RingId.INT, a) for a in (2, 3, 5)]
    elements += [
        from_rational(RingId.ODDRAT, q) for q in (Fraction(2), Fraction(2, 3), Fraction(4, 5))
    ]
    for a in (*elements, POLY_X, SKEW_X):
        for side in InfeasibleSide:
            yield infeasible_optimal_program(a.ring, a, side), None
    for a in elements:
        yield gap_program(a.ring, a), None
    for a in (POLY_X, SKEW_X):
        yield gap_program(a.ring, a, dual_samples=25, seed=3), None


def test_certificates_and_re_verification_are_byte_identical():
    doc = [
        [certificate_dict(bundle), [r.as_dict() for r in verify_bundle(bundle, box)]]
        for bundle, box in _digest_grid()
    ]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert len(doc) == 44
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGEST


def test_constructions_scan_each_side_once(monkeypatch):
    """(box scans, primal verdicts, dual verdicts) per construction: each
    side is scanned once and each witness is checked once."""
    counts = dict.fromkeys(("scans", "primal", "dual"), 0)
    for module, name, key in (
        (enumeration, "_enumerate", "scans"),
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
    strong, n = made(lambda: strong_duality_counterexample(RingId.INT, two))
    assert n == (2, 12, 12)
    edt, n = made(
        lambda: infeasible_optimal_program(RingId.INT, two, InfeasibleSide.PRIMAL_INFEASIBLE)
    )
    assert n == (2, 11, 123)
    assert made(lambda: gap_program(RingId.INT, two))[1] == (0, 12, 12)
    skew, n = made(lambda: gap_program(RingId.SKEW, SKEW_X))
    assert n == (0, 1, 11)
    assert made(lambda: verify_bundle(skew))[1] == (0, 1, 11)
    # re-verification still scans both sides from scratch
    assert made(lambda: verify_bundle(strong))[1][0] == 2
    assert made(lambda: verify_bundle(edt))[1][0] == 2
