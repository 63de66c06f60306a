import hashlib
from fractions import Fraction

import pytest

import ringlp.affine as affine
from ringlp import (
    SKEW_X,
    SKEW_Y,
    BoxSpec,
    DimensionMismatch,
    ProgramData,
    RingId,
    RingMismatch,
    Sampler,
    ViolationKind,
    add,
    assert_weak_duality,
    dual_slack,
    duality_equation_residual,
    eval_f,
    eval_g,
    feasible_points,
    from_int,
    from_rational,
    gap,
    identity_program_trials,
    identity_trials,
    is_dual_feasible,
    is_primal_feasible,
    is_zero,
    key_equation_residual,
    load_program,
    matrix,
    neg,
    no_central_between_trials,
    one,
    primal_slack,
    sign,
    to_text,
    vector,
    verify_order_axioms,
    weak_duality_trials,
)

from _oracles import (
    covec_apply,
    expand_duality_equation_sides,
    expand_key_equation_sides,
    mat_apply,
    vec_add,
    vec_sub,
)
from conftest import ALL_RINGS, FIXTURES, int_matrix, int_vector, make_gap_program


def _vec(ring, values):
    return vector(ring, [from_rational(ring, v) for v in values])


# ---------------------------------------------------------------------------
# slacks


def test_primal_slack_flags_the_unreachable_row(edt_int):
    t = primal_slack(edt_int, int_vector(RingId.INT, [0]))
    assert t == int_vector(RingId.INT, [1, -1])


def test_primal_slack_at_zero_is_b(gap_int):
    assert primal_slack(gap_int, int_vector(RingId.INT, [0])) == gap_int.b


def test_gap_program_slack(gap_int):
    assert primal_slack(gap_int, int_vector(RingId.INT, [0])) == int_vector(
        RingId.INT, [1]
    )


def test_dual_slack_examples(gap_int, edt_int):
    assert dual_slack(gap_int, int_vector(RingId.INT, [1])) == int_vector(
        RingId.INT, [1]
    )
    # y = 0 gives s = -c
    assert dual_slack(gap_int, int_vector(RingId.INT, [0])) == int_vector(
        RingId.INT, [-1]
    )
    assert dual_slack(edt_int, int_vector(RingId.INT, [0, 0])) == int_vector(
        RingId.INT, [0]
    )


# ---------------------------------------------------------------------------
# feasibility


def test_gap_program_zero_is_feasible(gap_int):
    assert is_primal_feasible(gap_int, int_vector(RingId.INT, [0])).feasible


def test_edt_program_primal_is_infeasible_at_zero(edt_int):
    verdict = is_primal_feasible(edt_int, int_vector(RingId.INT, [0]))
    assert not verdict.feasible
    assert verdict.violated_row == 1  # 0-based row index
    assert verdict.violation_kind is ViolationKind.SLACK_NEGATIVE


def test_negative_variable_detected(gap_int):
    verdict = is_primal_feasible(gap_int, int_vector(RingId.INT, [-1]))
    assert not verdict.feasible
    assert verdict.violation_kind is ViolationKind.NEGATIVE_VARIABLE
    assert verdict.violated_row == 0


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_zero_vector_feasible_when_b_nonneg(ring):
    sampler = Sampler(71)
    A = matrix(ring, [[sampler.sample(ring) for _ in range(2)] for _ in range(2)])
    b = vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)])
    c = vector(ring, [sampler.sample(ring) for _ in range(2)])
    P = ProgramData(ring, A, b, c, from_int(ring, 0))
    assert is_primal_feasible(P, int_vector(ring, [0, 0])).feasible


def _refusal(build) -> tuple[type, str]:
    with pytest.raises(Exception) as raised:
        build()
    return type(raised.value), str(raised.value)


def test_a_program_refuses_mixed_rings_and_wrong_shapes_with_their_messages():
    ring = RingId.INT
    A, v1, v2, d = int_matrix(ring, [[1]]), int_vector(ring, [1]), int_vector(ring, [1, 2]), one(ring)
    assert _refusal(lambda: ProgramData(ring, A, int_vector(RingId.RAT, [1]), v1, d)) == (
        RingMismatch, "program components must share one ring"
    )
    assert _refusal(lambda: ProgramData(ring, A, v2, v1, d)) == (
        DimensionMismatch, "b has length 2, expected 1"
    )
    assert _refusal(lambda: ProgramData(ring, A, v1, v2, d)) == (
        DimensionMismatch, "c has length 2, expected 1"
    )
    empty = matrix(ring, [[]])  # one row, no column
    assert _refusal(lambda: ProgramData(ring, empty, v1, vector(ring, []), d)) == (
        DimensionMismatch, "program needs at least one row and one column"
    )


def test_a_program_refuses_a_constant_that_is_not_a_ring_element(gap_int):
    """A part of the wrong type is refused when the program is built, not
    left for the ring and shape checks or ``eval_f`` to fail on: ``A`` must
    be a matrix, ``b`` and ``c`` vectors and ``d`` an element."""
    v = int_vector(RingId.INT, [0])
    A, b, c, d = gap_int.A, gap_int.b, gap_int.c, gap_int.d
    assert _refusal(lambda: ProgramData(RingId.INT, A, b, c, v)) == (
        TypeError, "d must be a RingElement, got RVector(int, [0])"
    )
    assert _refusal(lambda: ProgramData(RingId.INT, v, b, c, d)) == (
        TypeError, "A must be a RMatrix, got RVector(int, [0])"
    )
    assert _refusal(lambda: ProgramData(RingId.INT, A, tuple(b.entries), c, d)) == (
        TypeError, "b must be a RVector, got (RingElement(int, '1'),)"
    )
    assert _refusal(lambda: ProgramData(RingId.INT, A, A, c, d)) == (
        TypeError, "b must be a RVector, got RMatrix(int, 1x1, [2])"
    )
    assert _refusal(lambda: ProgramData(RingId.INT, A, b, tuple(c.entries), d)) == (
        TypeError, "c must be a RVector, got (RingElement(int, '1'),)"
    )


def test_dimension_mismatch_raises(gap_int):
    with pytest.raises(DimensionMismatch):
        primal_slack(gap_int, int_vector(RingId.INT, [0, 0]))
    with pytest.raises(DimensionMismatch):
        is_dual_feasible(gap_int, int_vector(RingId.INT, [1, 1]))


# ---------------------------------------------------------------------------
# objectives and gap


def test_objective_values(gap_int, edt_int):
    assert eval_f(gap_int, int_vector(RingId.INT, [0])) == from_int(RingId.INT, 0)
    assert eval_g(gap_int, int_vector(RingId.INT, [1])) == from_int(RingId.INT, 1)
    assert eval_g(edt_int, int_vector(RingId.INT, [0, 0])) == from_int(RingId.INT, 0)


def test_objective_offset_enters_both_sides():
    P = ProgramData(
        RingId.INT,
        int_matrix(RingId.INT, [[2]]),
        int_vector(RingId.INT, [1]),
        int_vector(RingId.INT, [1]),
        from_int(RingId.INT, 5),
    )
    assert eval_f(P, int_vector(RingId.INT, [0])) == from_int(RingId.INT, -5)
    assert eval_g(P, int_vector(RingId.INT, [1])) == from_int(RingId.INT, -4)
    # the offset cancels in the gap
    assert gap(P, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [1])) == from_int(
        RingId.INT, 1
    )


def test_zero_objective_when_c_and_d_vanish(edt_int):
    for x in ([0], [3]):
        assert is_zero(eval_f(edt_int, int_vector(RingId.INT, x)))


def test_gap_examples(gap_int, edt_int):
    assert gap(
        gap_int, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [1])
    ) == from_int(RingId.INT, 1)
    rat_gap = make_gap_program(RingId.RAT)
    half = _vec(RingId.RAT, [Fraction(1, 2)])
    assert is_primal_feasible(rat_gap, half).feasible
    assert is_dual_feasible(rat_gap, half).feasible
    assert is_zero(gap(rat_gap, half, half))
    assert is_zero(
        gap(edt_int, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [0, 0]))
    )


# ---------------------------------------------------------------------------
# the two identities


def test_key_equation_on_the_gap_program(gap_int):
    x = int_vector(RingId.INT, [0])
    y = int_vector(RingId.INT, [1])
    assert is_zero(key_equation_residual(gap_int, x, y))


def test_duality_equation_values_on_the_gap_program(gap_int):
    # g - f = 1 and s.x + y.t = 1*0 + 1*1 = 1
    x = int_vector(RingId.INT, [0])
    y = int_vector(RingId.INT, [1])
    assert is_zero(duality_equation_residual(gap_int, x, y))


def test_identities_at_zero_vectors(edt_int):
    x = int_vector(RingId.INT, [0])
    y = int_vector(RingId.INT, [0, 0])
    assert is_zero(key_equation_residual(edt_int, x, y))
    assert is_zero(duality_equation_residual(edt_int, x, y))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_identities_on_500_random_triples(ring):
    summary = identity_program_trials(ring, 500, seed=2024)
    assert summary.passed, summary.first_failure


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_identity_sides_match_raw_double_sums(ring):
    # independent expansion of both sides, slacks recomputed inline
    sampler = Sampler(404)
    for _ in range(40):
        P = affine.random_program(sampler, ring)
        x = vector(ring, [sampler.sample(ring) for _ in range(P.cols)])
        y = vector(ring, [sampler.sample(ring) for _ in range(P.rows)])
        left, right = expand_key_equation_sides(P, x, y)
        assert left == right
        assert is_zero(key_equation_residual(P, x, y))
        left, right = expand_duality_equation_sides(P, x, y)
        assert left == right
        assert is_zero(duality_equation_residual(P, x, y))


# ---------------------------------------------------------------------------
# weak duality


def test_weak_duality_on_all_enumerated_feasible_pairs(gap_int):
    box = BoxSpec(10)
    xs = feasible_points(gap_int, box, primal=True)
    ys = feasible_points(gap_int, box, primal=False)
    assert [list(map(str, x)) for x in xs] == [["0"]]
    assert len(ys) == 10  # y = 1..10
    for x in xs:
        for y in ys:
            report = assert_weak_duality(gap_int, x, y)
            assert report.applicable and report.passed
            assert sign(gap(gap_int, x, y)) == 1


@pytest.mark.parametrize("trials", [0, -3])
def test_trial_loops_reject_a_count_below_one(gap_int, trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        identity_trials(gap_int, trials, seed=1)
    with pytest.raises(ValueError, match="trials must be positive"):
        identity_program_trials(RingId.INT, trials, seed=1)
    with pytest.raises(ValueError, match="trials must be positive"):
        weak_duality_trials(RingId.INT, trials, seed=1)


def test_trial_loops_reject_a_bool_count(gap_int):
    loops = [
        lambda: identity_trials(gap_int, True, seed=1),
        lambda: identity_program_trials(RingId.INT, True, seed=1),
        lambda: weak_duality_trials(RingId.INT, True, seed=1),
        lambda: no_central_between_trials(SKEW_X, SKEW_Y, True, 1),
    ]
    for loop in loops:
        with pytest.raises(TypeError, match="trials must be an int"):
            loop()


def test_trial_loops_reject_a_bool_or_non_int_seed(gap_int):
    """The seed goes to ``Sampler``, whose generator takes only an ``int``:
    ``True`` is not seed 1 and 1.5 is not truncated. A negative seed is an
    int and still runs."""
    loops = [
        lambda seed: identity_trials(gap_int, 2, seed),
        lambda seed: identity_program_trials(RingId.INT, 2, seed),
        lambda seed: weak_duality_trials(RingId.INT, 2, seed),
        lambda seed: no_central_between_trials(SKEW_X, SKEW_Y, 2, seed),
        lambda seed: verify_order_axioms(RingId.INT, 2, seed),
    ]
    for loop in loops:
        for seed in (True, False, 1.5, 2.0, "1", None):
            with pytest.raises(TypeError, match="seed must be an int"):
                loop(seed)
        assert loop(-1).passed
    for seed in (True, 1.5):
        with pytest.raises(TypeError, match="seed must be an int"):
            Sampler(seed)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_weak_duality_on_constructed_feasible_pairs(ring):
    summary = weak_duality_trials(ring, 1000, seed=31337)
    assert summary.passed, summary.first_failure


# ``assert_weak_duality(P, 0, y).details`` on the gap fixtures, y the
# first three ``Sampler(3).sample_positive`` draws, each pair feasible;
# recorded before ``gap`` became two kernel calls
GAP_FIXTURE_DETAILS = {
    "gap_poly.prog": (
        "poly:-35/4,28,970,307/30",
        "poly:-223/36,-449/10,-85/41,-851/10,955/4",
        "poly:59/2",
    ),
    "gap_skew.prog": (
        "skew:3,3=28;3,2=2659/660;3,0=229/3",
        "skew:3,1=259/344;2,3=-653/49",
        "skew:0,3=24479/418",
    ),
}
# sha256 of the details of every report that ``weak_duality_trials`` reads
# in its first 20 trials on POLY and SKEW at seeds 0, 1 and 2, recorded then
WEAK_DUALITY_DETAILS_SHA256 = "04e9dc8692d92911732336060019986f7b025918bd8b744024977ee134239d11"


@pytest.mark.parametrize("name", sorted(GAP_FIXTURE_DETAILS))
def test_weak_duality_report_text_is_pinned_on_the_gap_fixtures(name):
    P = load_program(FIXTURES / name)
    sampler = Sampler(3)
    for value in GAP_FIXTURE_DETAILS[name]:
        y = vector(P.ring, [sampler.sample_positive(P.ring)])
        report = assert_weak_duality(P, int_vector(P.ring, [0]), y)
        assert (report.applicable, report.passed) == (True, True)
        assert report.details == (f"gap = {value}", f"s.x + y.t = {value}")


def test_weak_duality_trial_report_text_is_pinned(monkeypatch):
    """A passing trial renders no text, so the pairs the trials check are
    recorded and their reports rendered afterwards."""
    checked = []
    original = affine._weak_duality

    def recording(P, x, y):
        checked.append((P, x, y))
        return original(P, x, y)

    monkeypatch.setattr(affine, "_weak_duality", recording)
    for ring in (RingId.POLY, RingId.SKEW):
        for seed in range(3):
            assert weak_duality_trials(ring, 20, seed).passed
    monkeypatch.undo()
    digest = hashlib.sha256()
    for P, x, y in checked:
        digest.update(("|".join(assert_weak_duality(P, x, y).details) + "\n").encode())
    assert digest.hexdigest() == WEAK_DUALITY_DETAILS_SHA256


NEGATIVE_GAP = "IMPLEMENTATION BUG: negative gap on a feasible pair"
GAP_DIFFERS = "IMPLEMENTATION BUG: gap differs from s.x + y.t"


@pytest.mark.parametrize(
    "wrong_gap,bugs",
    [
        (lambda g: add(g, one(g.ring)), (GAP_DIFFERS,)),
        (neg, (NEGATIVE_GAP, GAP_DIFFERS)),
    ],
    ids=["gap-plus-one", "negated-gap"],
)
def test_weak_duality_reports_each_implementation_bug(monkeypatch, gap_int, wrong_gap, bugs):
    """With ``gap`` replaced by a wrong one, the check fails on a feasible
    pair and names each identity the wrong gap breaks."""
    x, y = int_vector(RingId.INT, [0]), int_vector(RingId.INT, [1])
    right = gap(gap_int, x, y)
    wrong = wrong_gap(right)
    monkeypatch.setattr(affine, "gap", lambda P, x, y: wrong)
    report = assert_weak_duality(gap_int, x, y)
    assert (report.applicable, report.passed) == (True, False)
    assert report.details == (f"gap = {to_text(wrong)}", f"s.x + y.t = {to_text(right)}", *bugs)


def test_weak_duality_not_applicable_on_infeasible_input(edt_int):
    report = assert_weak_duality(
        edt_int, int_vector(RingId.INT, [0]), int_vector(RingId.INT, [0, 0])
    )
    assert not report.applicable
    assert report.passed  # vacuous
    assert "not applicable" in report.details[0]


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_feasible_points_have_nonneg_slacks(ring):
    # is_primal_feasible(x) implies t >= 0; dually for s
    sampler = Sampler(606)
    for _ in range(50):
        A = matrix(ring, [[sampler.sample(ring) for _ in range(2)] for _ in range(2)])
        x = vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)])
        y = vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)])
        b = vec_add(mat_apply(A, x), vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)]))
        c = vec_sub(covec_apply(y, A), vector(ring, [sampler.sample_nonneg(ring) for _ in range(2)]))
        P = ProgramData(ring, A, b, c, from_int(ring, 0))
        assert is_primal_feasible(P, x).feasible
        assert all(sign(e) >= 0 for e in primal_slack(P, x))
        assert is_dual_feasible(P, y).feasible
        assert all(sign(e) >= 0 for e in dual_slack(P, y))
