"""Counterexample generators and their certificates.

Every generator returns a :class:`CounterexampleBundle` whose claims are
re-checkable: witnesses pass the feasibility checkers, integer optima are
certified by box enumeration, and improving/decreasing sequences are
validated point by point with exact sign tests. Claims that cannot be
machine-certified on a given ring are recorded in ``notes`` as
"claimed (not machine-certified)" together with the supporting argument.

The constructions cover, over a suitable non-division ring:

* a 1x1 program whose every feasible pair has a strictly positive gap;
* the same program on a ring whose smallest positive element is 1, where
  both sides attain optima with different values (no strong duality);
* a 2x1 program with an infeasible primal but an optimal dual (and its
  transpose), breaking the classical joint classification;
* feasible bounded programs that attain no optimum, witnessed by strictly
  improving primal sequences and strictly decreasing dual sequences;
* the no-central-element-between-ab-and-ba check and the finite-magnitude
  gap check for positive pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum, unique
from typing import Optional

from ._records import record
from .affine import ProgramData, Side, eval_g, gap, is_dual_feasible
from .enumeration import (
    BoxSpec,
    ProgramStatus,
    Scope,
    StatusKind,
    certify_optimal_pair,
    classify_edt,
    feasible_points,
    judge_optimal_pair,
)
from .errors import (
    NoSmallestPositive,
    NotAPositiveNonUnit,
    PreconditionViolated,
    StepLosesFeasibility,
    require_int,
)
from .linalg import RVector, matrix, vec_text, vector, zero_vector
from .progfile import serialize_program
from .reports import CheckReport, TrialSummary, run_trials
from .rings import (
    Magnitude,
    Ordering,
    RingElement,
    RingId,
    add,
    classify_magnitude,
    compare,
    descriptor,
    from_int,
    is_central,
    mul,
    neg,
    one,
    sign,
    sub,
    to_text,
    try_invert,
    zero,
)
from .sampling import Sampler

__all__ = [
    "BundleKind",
    "SequenceRole",
    "InfeasibleSide",
    "WitnessSequence",
    "CounterexampleBundle",
    "gap_program",
    "strong_duality_counterexample",
    "infeasible_optimal_program",
    "primal_improving_step",
    "dual_decreasing_step",
    "primal_improving_sequence",
    "dual_decreasing_sequence",
    "no_central_between_check",
    "no_central_between_trials",
    "magnitude_gap_check",
    "verify_bundle",
    "certificate_dict",
]

NOT_CERTIFIED = "claimed (not machine-certified)"

# the box that constructions scan and bundles are re-verified in by default
_DEFAULT_BOX = BoxSpec(10)


@unique
class BundleKind(Enum):
    GAP = "GAP"
    STRONG_DUALITY_GAP = "STRONG_DUALITY_GAP"
    INFEASIBLE_OPTIMAL_PRIMAL = "INFEASIBLE_OPTIMAL_PRIMAL"
    INFEASIBLE_OPTIMAL_DUAL = "INFEASIBLE_OPTIMAL_DUAL"
    NON_ACHIEVING = "NON_ACHIEVING"


@unique
class SequenceRole(Enum):
    PRIMAL_IMPROVING = "PRIMAL_IMPROVING"
    DUAL_DECREASING = "DUAL_DECREASING"


@unique
class InfeasibleSide(Enum):
    PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
    DUAL_INFEASIBLE = "DUAL_INFEASIBLE"


@record
class WitnessSequence:
    """Feasible points with strictly monotone objective values."""

    ring: RingId
    role: SequenceRole
    points: tuple[RVector, ...]
    objective_values: tuple[RingElement, ...]

    def __post_init__(self):
        if len(self.points) != len(self.objective_values):
            raise ValueError("a witness sequence has one objective value per point")


@record
class CounterexampleBundle:
    kind: BundleKind
    program: ProgramData
    claim: str
    primal_witnesses: tuple[RVector, ...] = ()
    dual_witnesses: tuple[RVector, ...] = ()
    primal_optimum: Optional[RVector] = None
    dual_optimum: Optional[RVector] = None
    gap_value: Optional[RingElement] = None
    sequence: Optional[WitnessSequence] = None
    notes: tuple[str, ...] = ()
    checks: tuple[CheckReport, ...] = ()


def _require_witnesses(ring: RingId, a: RingElement, *others: RingElement) -> None:
    """The witnesses are in ``ring`` and ``a`` is a positive non-unit."""
    for e in (a, *others):
        if not isinstance(e, RingElement) or e.ring is not ring:
            raise NotAPositiveNonUnit(f"element {e} is not in ring {ring.value}")
    if sign(a) != 1:
        raise NotAPositiveNonUnit(f"{to_text(a)} is not positive")
    if try_invert(a) is not None:
        raise NotAPositiveNonUnit(
            f"{to_text(a)} is invertible in {ring.value}; a non-unit is required"
        )


def _require_sign(label: str, value: RingElement, least: int = 1) -> None:
    """sign(value) is at least ``least``; otherwise the failed test
    ``label`` and the value it tested are named."""
    if sign(value) < least:
        raise PreconditionViolated(f"{label} failed (value {to_text(value)})")


def _one_by_one_program(a: RingElement) -> ProgramData:
    ring = a.ring
    return ProgramData(
        ring,
        matrix(ring, [[a]]),
        vector(ring, [one(ring)]),
        vector(ring, [one(ring)]),
        zero(ring),
    )


def _argued_statuses(
    P: ProgramData, box: BoxSpec, notes: tuple[Optional[str], Optional[str]]
) -> tuple[ProgramStatus, ProgramStatus]:
    """The (primal, dual) statuses of one box scan pair. A side given a note,
    which argues that the box holds every point that matters, is EXHAUSTIVE:
    INFEASIBLE when the box has no witness, otherwise OPTIMAL at the in-box
    best, even on the box face."""
    report = classify_edt(P, box)
    statuses = [report.primal, report.dual]
    for k, note in enumerate(notes):
        if note is not None:
            witness, value = statuses[k].witness, statuses[k].value
            kind = StatusKind.INFEASIBLE if witness is None else StatusKind.OPTIMAL
            statuses[k] = ProgramStatus(kind, Scope.EXHAUSTIVE, witness, value, note)
    return tuple(statuses)


def _pair_gap_check(
    P: ProgramData,
    primal_feasible: list[RVector],
    dual_feasible: list[RVector],
    label: str,
    problems: tuple[str, ...] = (),
) -> CheckReport:
    """Every pair of points already known feasible must have sign(gap) = +1;
    ``problems`` names the points that were not, which fail the check."""
    bad = list(problems)
    for x in primal_feasible:
        for y in dual_feasible:
            g = gap(P, x, y)
            if sign(g) != 1:
                bad.append(f"x={vec_text(x)} y={vec_text(y)} gap={to_text(g)}")
    details = [f"{label}: {len(primal_feasible) * len(dual_feasible)} pairs checked"] + bad
    return CheckReport("gap_sign_positive", not bad, True, tuple(details))


def _point_problems(
    P: ProgramData, points, side: Side, recorded: Optional[tuple[RingElement, ...]] = None
) -> tuple[list[RVector], list[str]]:
    """The one feasibility loop: the points inside their side's feasible set,
    and a line per point outside it and, when recorded objective values are
    given, per recorded value that is not the objective at its point."""
    feasible, problems = [], []
    for k, p in enumerate(points):
        verdict = side.feasible(P, p)
        if verdict.feasible:
            feasible.append(p)
        else:
            problems.append(f"{vec_text(p)}: {verdict.violation_kind.value}")
        if recorded is not None and (value := side.objective(P, p)) != recorded[k]:
            problems.append(
                f"point {k}: recorded {side.letter} = {to_text(recorded[k])}, "
                f"but {side.letter} = {to_text(value)} there"
            )
    return feasible, problems


def _feasibility_checks(P: ProgramData, primal_points, dual_points, what: str):
    """One feasibility report per side that has points, then each side's
    feasible points and the problem lines the pair check reports."""
    reports, feasible, problems = [], [], []
    for primal, points in ((True, primal_points), (False, dual_points)):
        side = Side.of(primal)
        inside, bad = _point_problems(P, points, side)
        feasible.append(inside)
        problems += [f"{side.name} point {line}" for line in bad]
        if points:
            details = tuple(bad) or (f"{len(points)} points",)
            reports.append(CheckReport(f"{side.name}_{what}_feasible", not bad, True, details))
    return reports, feasible, tuple(problems)


def gap_program(
    ring: RingId, a: RingElement, dual_samples: int = 10, seed: int = 7
) -> CounterexampleBundle:
    """The 1x1 program A=[a], b=[1], c=[1], d=0 for a positive non-unit a.

    Claim: both sides are feasible and every feasible pair has a strictly
    positive gap. Spot verification uses box enumeration where the ring has
    a smallest positive element (INT) and a sampled family of dual
    witnesses k + (nonnegative sample) elsewhere, where k is the least
    positive integer with k*a >= 1 (so y = [k] is dual-feasible).
    ``dual_samples`` is an ``int`` of at least 0 and ``seed`` an ``int``.
    """
    require_int("dual_samples", dual_samples, 0)
    require_int("seed", seed)
    _require_witnesses(ring, a)
    P = _one_by_one_program(a)
    claim = "every feasible pair (x, y) has sign(g(y) - f(x)) = +1"
    primal_witnesses = [zero_vector(ring, 1)]
    k = from_int(ring, _least_covering_integer(a))
    dual_witnesses = [vector(ring, [k])]
    by_box = descriptor(ring).smallest_positive is not None
    if not by_box:
        sampler = Sampler(seed)
        for _ in range(dual_samples):
            w = add(k, sampler.sample_nonneg(ring))
            dual_witnesses.append(vector(ring, [w]))
    reports, feasible, problems = _feasibility_checks(P, primal_witnesses, dual_witnesses, "witnesses")
    if by_box:
        box_points = [feasible_points(P, _DEFAULT_BOX, primal) for primal in (True, False)]
        gap_check = _pair_gap_check(P, *box_points, f"box enumeration on [0,{_DEFAULT_BOX.bound}]")
    else:
        gap_check = _pair_gap_check(P, *feasible, "witness family", problems)
    return CounterexampleBundle(
        kind=BundleKind.GAP,
        program=P,
        claim=claim,
        primal_witnesses=tuple(primal_witnesses),
        dual_witnesses=tuple(dual_witnesses),
        notes=(
            f"a = {to_text(a)} is positive and has no inverse, so no feasible "
            "pair can close the gap",
        ),
        checks=(gap_check, *reports),
    )


def _least_covering_integer(a: RingElement) -> int:
    """The least positive integer k with k*a >= 1, for a positive a that is
    not infinitesimal (no ring here has one): doubling, then bisection."""
    ring = a.ring

    def covers(k: int) -> bool:
        return compare(mul(from_int(ring, k), a), one(ring)) is not Ordering.LT

    high = 1
    while not covers(high):
        high *= 2
    low = high // 2  # 0, or a k that does not cover
    return low + 1 + bisect_left(range(low + 1, high + 1), True, key=covers)


def strong_duality_counterexample(
    ring: RingId, a: RingElement, box: Optional[BoxSpec] = None
) -> CounterexampleBundle:
    """Gap program on a ring whose smallest positive is 1: both sides
    attain optima (x*=0, y*=1) with different values, gap exactly 1."""
    _require_witnesses(ring, a)
    if descriptor(ring).smallest_positive is None:
        raise NoSmallestPositive(f"{ring.value} has no smallest positive element")
    P = _one_by_one_program(a)
    box = box or _DEFAULT_BOX
    x_star = zero_vector(ring, 1)
    y_star = vector(ring, [one(ring)])
    notes = (
        f"{to_text(a)}*x <= 1 with x >= 0: any x >= 1 gives "
        f"{to_text(a)}*x >= {to_text(a)} > 1, so x = 0 is the only feasible point",
        f"y*{to_text(a)} >= 1 with y >= 0 rules out y = 0; the objective equals y, "
        "so y = 1 is optimal",
    )
    statuses = _argued_statuses(P, box, notes)
    status_check = CheckReport(
        "optima_attained",
        statuses[0].witness == x_star and statuses[1].witness == y_star,
        True,
        tuple(
            f"{side.name} {status.kind.value} at {vec_text(status.witness)}, "
            f"{side.letter} = {to_text(status.value)}"
            for side, status in zip((Side.of(True), Side.of(False)), statuses)
        ),
    )
    return CounterexampleBundle(
        kind=BundleKind.STRONG_DUALITY_GAP,
        program=P,
        claim="both sides attain optima whose objective values differ",
        primal_witnesses=(x_star,),
        dual_witnesses=(y_star,),
        primal_optimum=x_star,
        dual_optimum=y_star,
        gap_value=gap(P, x_star, y_star),
        notes=notes,
        checks=(status_check, judge_optimal_pair(P, statuses, x_star, y_star)),
    )


# why a positive non-unit has no right inverse, on the rings that have one
_NON_CONSTANT = "; multiplying a nonzero element by a non-constant never yields the constant 1"
_NO_RIGHT_INVERSE = {
    RingId.INT: "; the only integer units are 1 and -1",
    RingId.ODDRAT: "; the would-be inverse has an even denominator",
    RingId.POLY: _NON_CONSTANT,
    RingId.SKEW: _NON_CONSTANT,
}


def infeasible_optimal_program(
    ring: RingId, a: RingElement, side: InfeasibleSide
) -> CounterexampleBundle:
    """One side infeasible, the other attaining an optimum at 0.

    PRIMAL_INFEASIBLE: A = [[a], [-a]], b = [1, -1], c = [0]; the primal
    needs a*x = 1 exactly (impossible for a non-unit) while y = (0, 0) is
    dual-optimal with value 0. DUAL_INFEASIBLE transposes A and swaps b
    and c to reverse the roles.
    """
    _require_witnesses(ring, a)
    z = zero(ring)
    column, rhs = [a, neg(a)], vector(ring, [one(ring), neg(one(ring))])
    if side is InfeasibleSide.PRIMAL_INFEASIBLE:
        P = ProgramData(ring, matrix(ring, [[e] for e in column]), rhs, vector(ring, [z]), z)
        kind = BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
        sign_note = (
            "g(y) = y1 - y2 and dual feasibility forces (y1 - y2)*a >= 0, hence "
            "y1 - y2 >= 0 since a > 0; the value 0 at y = (0, 0) is optimal"
        )
    else:
        P = ProgramData(ring, matrix(ring, [column]), vector(ring, [z]), rhs, z)
        kind = BundleKind.INFEASIBLE_OPTIMAL_DUAL
        sign_note = (
            "f(x) = x1 - x2 and primal feasibility forces a*(x1 - x2) <= 0, hence "
            "x1 - x2 <= 0 since a > 0; the value 0 at x = (0, 0) is optimal"
        )
    primal_optimal = side is InfeasibleSide.DUAL_INFEASIBLE
    optimal, infeasible = Side.of(primal_optimal), Side.of(not primal_optimal)
    optimum = zero_vector(ring, 2)
    candidates = (optimum, None) if primal_optimal else (None, optimum)
    primal_witnesses, dual_witnesses = ((optimum,), ()) if primal_optimal else ((), (optimum,))
    value = optimal.objective(P, optimum)
    infeasible_note = (
        f"feasibility forces {to_text(a)}*x = 1 exactly, a right inverse of a non-unit"
        + _NO_RIGHT_INVERSE.get(ring, "")
    )
    checks = [
        *_feasibility_checks(P, primal_witnesses, dual_witnesses, "optimum")[0],
        CheckReport(
            "optimum_value_zero", value == z, True, (f"{optimal.letter}(0, 0) = {to_text(value)}",)
        ),
    ]
    if descriptor(ring).is_enumerable:
        # the optimal side gets no note: the note argues only that the other
        # side is infeasible
        argued = (None, infeasible_note) if primal_optimal else (infeasible_note, None)
        statuses = _argued_statuses(P, _DEFAULT_BOX, argued)
        status = statuses[1] if primal_optimal else statuses[0]
        detail = f"{infeasible.name}: {status.kind.value} ({status.scope.value})"
        checks += [
            CheckReport("infeasible_side", status.kind is StatusKind.INFEASIBLE, True, (detail,)),
            judge_optimal_pair(P, statuses, *candidates),
        ]
        notes = (infeasible_note, sign_note)
    else:
        notes = (
            infeasible_note,
            sign_note + f"; optimality over all of {ring.value}: " + NOT_CERTIFIED,
        )
    return CounterexampleBundle(
        kind=kind,
        program=P,
        claim=(
            f"the {infeasible.name} side is infeasible while the {optimal.name} side "
            f"attains an optimum; classically the {optimal.name} would have to be "
            "infeasible or unbounded"
        ),
        primal_witnesses=primal_witnesses,
        dual_witnesses=dual_witnesses,
        primal_optimum=candidates[0],
        dual_optimum=candidates[1],
        notes=notes,
        checks=tuple(checks),
    )


def primal_improving_step(
    a: RingElement, z: RingElement, x: RingElement
) -> RingElement:
    """One strict improvement x' = x + z*(1 - a*x) for the 1x1 gap program.

    Requires 0 < a*z < 1, x >= 0 and a*x < 1. The exact identities
    ``1 - a*x' = (1 - a*z)*(1 - a*x)`` and ``x' - x = z*(1 - a*x)`` hold in
    any ring with this operand order, so x' stays strictly feasible and
    strictly larger.
    """
    o = one(a.ring)
    rest = sub(o, mul(a, x))
    _require_sign("sign(z) = +1", z)
    _require_sign("sign(1 - a*z) = +1", sub(o, mul(a, z)))
    _require_sign("sign(x) >= 0", x, 0)
    _require_sign("sign(1 - a*x) = +1", rest)
    return add(x, mul(z, rest))


def dual_decreasing_step(P: ProgramData, y: RVector, p: RingElement) -> RVector:
    """Scale a strictly positive dual-feasible y to y' with y'_j = y_j * p.

    Requires 0 < p < 1. Dual feasibility of y' is re-validated exactly and
    the step fails with StepLosesFeasibility when it breaks (scaling below
    the constraint threshold is possible on some rings); the strict
    decrease of g is also checked exactly.
    """
    _require_sign("sign(p) = +1", p)
    _require_sign("sign(1 - p) = +1", sub(one(P.ring), p))
    verdict = is_dual_feasible(P, y)
    if not verdict.feasible:
        raise PreconditionViolated(f"y must be dual-feasible {verdict.violation_text()}")
    if any(sign(e) != 1 for e in y):
        raise PreconditionViolated("every entry of y must be strictly positive")
    scaled = vector(P.ring, (mul(e, p) for e in y))
    after = is_dual_feasible(P, scaled)
    if not after.feasible:
        raise StepLosesFeasibility(
            f"scaling by {to_text(p)} breaks dual feasibility at row "
            f"{after.violated_row} ({after.violation_kind.value})",
            row=after.violated_row,
        )
    if compare(eval_g(P, scaled), eval_g(P, y)) is not Ordering.LT:
        raise StepLosesFeasibility(
            "objective value did not strictly decrease under the scaling"
        )
    return scaled


def _non_achieving_sequence(
    primal: bool, ring: RingId, a: RingElement, w: Optional[RingElement], steps: int
) -> CounterexampleBundle:
    """The gap program walked ``steps`` strict steps from x = 0 with witness
    z (primal) or from y = [1] with witness p (dual)."""
    require_int("steps", steps, 1)
    # nothing lies strictly between 0 and a smallest positive element, so
    # there is no witness to read
    smallest = descriptor(ring).smallest_positive
    if smallest is not None:
        raise PreconditionViolated(
            f"{ring.value} has smallest positive element {to_text(smallest)}; "
            f"no {'z with 0 < a*z < 1' if primal else 'p with 0 < p < 1'} exists"
        )
    _require_witnesses(ring, a, w)
    P = _one_by_one_program(a)
    points = [vector(ring, [zero(ring) if primal else one(ring)])]
    for _ in range(steps):
        last = points[-1]
        if primal:
            points.append(vector(ring, [primal_improving_step(a, w, last[0])]))
        else:
            points.append(dual_decreasing_step(P, last, w))
    side = Side.of(primal)
    role = SequenceRole.PRIMAL_IMPROVING if primal else SequenceRole.DUAL_DECREASING
    values = tuple(side.objective(P, pt) for pt in points)
    seq = WitnessSequence(ring, role, tuple(points), values)
    a_text, w_text = to_text(a), to_text(w)
    if primal:
        claim = (
            "the primal side is feasible and bounded above yet attains no optimum: "
            "the recorded points improve strictly forever"
        )
        note = (
            f"step x <- x + {w_text}*(1 - {a_text}*x) keeps 1 - {a_text}*x positive "
            "by the factorization (1 - a*z)*(1 - a*x)"
        )
    else:
        claim = (
            "the dual side is feasible and bounded below yet attains no optimum: "
            "the recorded values decrease strictly forever"
        )
        note = f"each step rescales y by {w_text} and re-validates feasibility"
    return CounterexampleBundle(
        kind=BundleKind.NON_ACHIEVING,
        program=P,
        claim=claim,
        primal_witnesses=seq.points if primal else (),
        dual_witnesses=() if primal else seq.points,
        sequence=seq,
        notes=(note,),
        checks=(_validate_sequence(P, seq),),
    )


def primal_improving_sequence(
    ring: RingId, a: RingElement, z: RingElement, steps: int = 21
) -> CounterexampleBundle:
    """Strictly improving feasible points for the gap program.

    Starts at x = 0 and applies the improvement step; the bundle's claim is
    that the primal side is feasible and bounded yet attains no optimum.
    """
    return _non_achieving_sequence(True, ring, a, z, steps)


def dual_decreasing_sequence(
    ring: RingId, a: RingElement, p: RingElement, steps: int = 21
) -> CounterexampleBundle:
    """Strictly decreasing feasible dual values for the gap program.

    Starts at y = [1] and rescales by p each step, re-validating dual
    feasibility exactly every time.
    """
    return _non_achieving_sequence(False, ring, a, p, steps)


def _validate_sequence(P: ProgramData, seq: WitnessSequence) -> CheckReport:
    """Re-verify each point's feasibility and recorded objective value, and
    strict monotonicity."""
    side = Side.of(seq.role is SequenceRole.PRIMAL_IMPROVING)
    trend = "increasing" if side.better is Ordering.GT else "decreasing"
    values = seq.objective_values
    problems = _point_problems(P, seq.points, side, values)[1]
    if len(values) < 2:
        problems.append("fewer than two points: no step to check")
    for k in range(1, len(values)):
        if compare(values[k], values[k - 1]) is not side.better:
            problems.append(f"objective not strictly {trend} at step {k}")
    details = tuple(problems) or (
        f"{len(seq.points)} feasible points, strictly {trend} objective",
    )
    return CheckReport("witness_sequence", not problems, True, details)


def _oriented_products(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement]:
    """a*b and b*a for positive a and b, ordered so that the first is <= the
    second."""
    _require_sign("sign(a) = +1", a)
    _require_sign("sign(b) = +1", b)
    ab, ba = mul(a, b), mul(b, a)
    return (ba, ab) if compare(ab, ba) is Ordering.GT else (ab, ba)


def no_central_between_check(
    a: RingElement, b: RingElement, z: RingElement
) -> CheckReport:
    """No central z lies strictly between a*b and b*a for positive a, b.

    Orients the pair so ab <= ba, then asserts NOT (ab < z and z < ba). A
    violation would be an implementation bug: z central would give
    aba < za = az < aba.
    """
    ab, ba = _oriented_products(a, b)
    if not is_central(z):
        raise PreconditionViolated(f"z = {to_text(z)} is not central")
    below = compare(ab, z) is Ordering.LT
    above = compare(z, ba) is Ordering.LT
    passed = not (below and above)
    details = (
        f"ab = {to_text(ab)}, ba = {to_text(ba)} (oriented ab <= ba)",
        f"ab < z: {below}",
        f"z < ba: {above}",
    )
    return CheckReport("no_central_between", passed, True, details)


def no_central_between_trials(
    a: RingElement, b: RingElement, trials: int, seed: int
) -> TrialSummary:
    """``no_central_between_check`` on ``trials`` sampled central elements."""

    def trial(sampler: Sampler) -> Optional[str]:
        check = no_central_between_check(a, b, sampler.sample_central(a.ring))
        return None if check.passed else "; ".join(check.details)

    return run_trials("no_central_between", trials, Sampler(seed), trial)


def magnitude_gap_check(a: RingElement, b: RingElement) -> CheckReport:
    """If a*b is finite (a, b positive), then ba - ab is zero or infinitesimal."""
    ab, ba = _oriented_products(a, b)
    m = classify_magnitude(ab)
    if m is not Magnitude.FINITE:
        return CheckReport(
            "magnitude_gap",
            passed=True,
            applicable=False,
            details=(f"hypothesis not met: a*b = {to_text(ab)} is {m.value}",),
        )
    eps = sub(ba, ab)
    m = classify_magnitude(eps)
    passed = m in (Magnitude.ZERO, Magnitude.INFINITESIMAL)
    return CheckReport(
        "magnitude_gap",
        passed,
        True,
        (f"ba - ab = {to_text(eps)} is {m.value}",),
    )


def verify_bundle(
    bundle: CounterexampleBundle, box: Optional[BoxSpec] = None
) -> tuple[CheckReport, ...]:
    """Re-run the bundle's certificates from scratch."""
    P = bundle.program
    reports, feasible, problems = _feasibility_checks(
        P, bundle.primal_witnesses, bundle.dual_witnesses, "witnesses"
    )
    if bundle.kind is BundleKind.GAP:
        reports.append(_pair_gap_check(P, *feasible, "recorded witnesses", problems))
    has_optimum = bundle.primal_optimum is not None or bundle.dual_optimum is not None
    if has_optimum and descriptor(P.ring).is_enumerable:
        reports.append(
            certify_optimal_pair(
                P,
                box or _DEFAULT_BOX,
                x_star=bundle.primal_optimum,
                y_star=bundle.dual_optimum,
            )
        )
    if bundle.gap_value is not None and bundle.primal_optimum is not None and bundle.dual_optimum is not None:
        recomputed = gap(P, bundle.primal_optimum, bundle.dual_optimum)
        reports.append(
            CheckReport(
                "gap_value",
                recomputed == bundle.gap_value,
                True,
                (f"gap = {to_text(recomputed)}",),
            )
        )
    if bundle.sequence is not None:
        reports.append(_validate_sequence(P, bundle.sequence))
    return tuple(reports)


def certificate_dict(bundle: CounterexampleBundle) -> dict:
    """JSON-able certificate sidecar: kind, witnesses, verification results."""
    return {
        "kind": bundle.kind.value,
        "ring": bundle.program.ring.value,
        "program": serialize_program(bundle.program),
        "claim": bundle.claim,
        "primal_witnesses": [vec_text(p) for p in bundle.primal_witnesses],
        "dual_witnesses": [vec_text(p) for p in bundle.dual_witnesses],
        "primal_optimum": None
        if bundle.primal_optimum is None
        else vec_text(bundle.primal_optimum),
        "dual_optimum": None if bundle.dual_optimum is None else vec_text(bundle.dual_optimum),
        "gap": None if bundle.gap_value is None else to_text(bundle.gap_value),
        "sequence": None
        if bundle.sequence is None
        else {
            "role": bundle.sequence.role.value,
            "points": [vec_text(p) for p in bundle.sequence.points],
            "objective_values": [to_text(v) for v in bundle.sequence.objective_values],
        },
        "notes": list(bundle.notes),
        "checks": [c.as_dict() for c in bundle.checks],
    }
