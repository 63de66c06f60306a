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

from enum import Enum, unique
from typing import Optional

from ._records import record
from .affine import (
    ProgramData,
    eval_f,
    eval_g,
    gap,
    is_dual_feasible,
    is_primal_feasible,
)
from .enumeration import (
    _ENUMERABLE,
    BoxSpec,
    certify_optimal_pair,
    enumerate_dual,
    enumerate_primal,
    feasible_points,
)
from .errors import (
    NoSmallestPositive,
    NotAPositiveNonUnit,
    PreconditionViolated,
    StepLosesFeasibility,
)
from .linalg import (
    RVector,
    matrix,
    scale_right,
    vector,
    zero_vector,
)
from .reports import CheckReport
from .rings import (
    Magnitude,
    Ordering,
    RingElement,
    RingId,
    add,
    classify_magnitude,
    compare,
    descriptor,
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
    "magnitude_gap_check",
    "verify_bundle",
    "certificate_dict",
]

NOT_CERTIFIED = "claimed (not machine-certified)"


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


def _require_positive_nonunit(a: RingElement) -> None:
    if sign(a) != 1:
        raise NotAPositiveNonUnit(f"{to_text(a)} is not positive")
    if try_invert(a) is not None:
        raise NotAPositiveNonUnit(
            f"{to_text(a)} is invertible in {a.ring.value}; a non-unit is required"
        )


def _require_no_smallest_positive(ring: RingId, witness: str) -> None:
    """A ring with a smallest positive element has nothing strictly between
    0 and it, so no fractional witness exists there."""
    smallest = descriptor(ring).smallest_positive
    if smallest is not None:
        raise PreconditionViolated(
            f"{ring.value} has smallest positive element {to_text(smallest)}; "
            f"no {witness} exists"
        )


def _one_by_one_program(a: RingElement) -> ProgramData:
    ring = a.ring
    return ProgramData(
        ring,
        matrix(ring, [[a]]),
        vector(ring, [one(ring)]),
        vector(ring, [one(ring)]),
        zero(ring),
    )


def _pair_gap_check(
    P: ProgramData,
    primal_points: list[RVector],
    dual_points: list[RVector],
    label: str,
) -> CheckReport:
    """Every (feasible, feasible) pair must have sign(gap) = +1."""
    bad: list[str] = []
    pairs = 0
    for x in primal_points:
        for y in dual_points:
            pairs += 1
            if sign(gap(P, x, y)) != 1:
                bad.append(
                    f"x={[to_text(e) for e in x]} y={[to_text(e) for e in y]} "
                    f"gap={to_text(gap(P, x, y))}"
                )
    details = [f"{label}: {pairs} pairs checked"] + bad
    return CheckReport("gap_sign_positive", not bad, True, tuple(details))


def _feasibility_check(P: ProgramData, points, primal_side: bool, label: str) -> CheckReport:
    bad = []
    for p in points:
        verdict = is_primal_feasible(P, p) if primal_side else is_dual_feasible(P, p)
        if not verdict.feasible:
            bad.append(f"{[to_text(e) for e in p]}: {verdict.violation_kind.value}")
    return CheckReport(
        f"{label}_feasible", not bad, True, tuple(bad) or (f"{len(points)} points",)
    )


def gap_program(
    ring: RingId, a: RingElement, dual_samples: int = 10, seed: int = 7
) -> CounterexampleBundle:
    """The 1x1 program A=[a], b=[1], c=[1], d=0 for a positive non-unit a.

    Claim: both sides are feasible and every feasible pair has a strictly
    positive gap. Spot verification uses box enumeration on INT and a
    sampled family of dual witnesses 1 + (nonnegative sample) elsewhere.
    """
    if a.ring is not ring:
        raise NotAPositiveNonUnit(f"element {to_text(a)} is not in ring {ring.value}")
    _require_positive_nonunit(a)
    P = _one_by_one_program(a)
    claim = "every feasible pair (x, y) has sign(g(y) - f(x)) = +1"
    primal_witnesses = [zero_vector(ring, 1)]
    dual_witnesses = [vector(ring, [one(ring)])]
    checks: list[CheckReport] = []
    if ring is RingId.INT:
        box = BoxSpec(10)
        primal_points = feasible_points(P, box, primal=True)
        dual_points = feasible_points(P, box, primal=False)
        checks.append(
            _pair_gap_check(P, primal_points, dual_points, "box enumeration on [0,10]")
        )
    else:
        sampler = Sampler(seed)
        for _ in range(dual_samples):
            w = add(one(ring), sampler.sample_nonneg(ring))
            dual_witnesses.append(vector(ring, [w]))
        checks.append(
            _pair_gap_check(P, primal_witnesses, dual_witnesses, "witness family")
        )
    checks.append(_feasibility_check(P, primal_witnesses, True, "primal_witnesses"))
    checks.append(_feasibility_check(P, dual_witnesses, False, "dual_witnesses"))
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
        checks=tuple(checks),
    )


def strong_duality_counterexample(
    ring: RingId, a: RingElement, box: Optional[BoxSpec] = None
) -> CounterexampleBundle:
    """Gap program on a ring whose smallest positive is 1: both sides
    attain optima (x*=0, y*=1) with different values, gap exactly 1."""
    if a.ring is not ring:
        raise NotAPositiveNonUnit(f"element {to_text(a)} is not in ring {ring.value}")
    _require_positive_nonunit(a)
    if descriptor(ring).smallest_positive is None:
        raise NoSmallestPositive(f"{ring.value} has no smallest positive element")
    P = _one_by_one_program(a)
    box = box or BoxSpec(10)
    x_star = zero_vector(ring, 1)
    y_star = vector(ring, [one(ring)])
    primal_note = (
        f"{to_text(a)}*x <= 1 with x >= 0: any x >= 1 gives "
        f"{to_text(a)}*x >= {to_text(a)} > 1, so x = 0 is the only feasible point"
    )
    dual_note = (
        f"y*{to_text(a)} >= 1 with y >= 0 rules out y = 0; the objective equals y, "
        "so y = 1 is optimal"
    )
    primal_status = enumerate_primal(P, box, primal_note)
    dual_status = enumerate_dual(P, box, dual_note)
    cert = certify_optimal_pair(P, box, x_star, y_star)
    gap_value = gap(P, x_star, y_star)
    status_check = CheckReport(
        "optima_attained",
        primal_status.witness == x_star and dual_status.witness == y_star,
        True,
        (
            f"primal {primal_status.kind.value} at "
            f"{[to_text(e) for e in primal_status.witness]}, "
            f"f = {to_text(primal_status.value)}",
            f"dual {dual_status.kind.value} at "
            f"{[to_text(e) for e in dual_status.witness]}, "
            f"g = {to_text(dual_status.value)}",
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
        gap_value=gap_value,
        notes=(primal_note, dual_note),
        checks=(status_check, cert),
    )


def _no_right_inverse_note(a: RingElement) -> str:
    base = f"feasibility forces {to_text(a)}*x = 1 exactly, a right inverse of a non-unit"
    ring = a.ring
    if ring is RingId.INT:
        return base + "; the only integer units are 1 and -1"
    if ring is RingId.ODDRAT:
        return base + "; the would-be inverse has an even denominator"
    if ring in (RingId.POLY, RingId.SKEW):
        return base + "; multiplying a nonzero element by a non-constant never yields the constant 1"
    return base


def infeasible_optimal_program(
    ring: RingId, a: RingElement, side: InfeasibleSide
) -> CounterexampleBundle:
    """One side infeasible, the other attaining an optimum at 0.

    PRIMAL_INFEASIBLE: A = [[a], [-a]], b = [1, -1], c = [0]; the primal
    needs a*x = 1 exactly (impossible for a non-unit) while y = (0, 0) is
    dual-optimal with value 0. DUAL_INFEASIBLE transposes A and swaps b
    and c to reverse the roles.
    """
    if a.ring is not ring:
        raise NotAPositiveNonUnit(f"element {to_text(a)} is not in ring {ring.value}")
    _require_positive_nonunit(a)
    o = one(ring)
    z = zero(ring)
    if side is InfeasibleSide.PRIMAL_INFEASIBLE:
        P = ProgramData(
            ring,
            matrix(ring, [[a], [neg(a)]]),
            vector(ring, [o, neg(o)]),
            vector(ring, [z]),
            z,
        )
        kind = BundleKind.INFEASIBLE_OPTIMAL_PRIMAL
        sign_note = (
            "g(y) = y1 - y2 and dual feasibility forces (y1 - y2)*a >= 0, hence "
            "y1 - y2 >= 0 since a > 0; the value 0 at y = (0, 0) is optimal"
        )
    else:
        P = ProgramData(
            ring,
            matrix(ring, [[a, neg(a)]]),
            vector(ring, [z]),
            vector(ring, [o, neg(o)]),
            z,
        )
        kind = BundleKind.INFEASIBLE_OPTIMAL_DUAL
        sign_note = (
            "f(x) = x1 - x2 and primal feasibility forces a*(x1 - x2) <= 0, hence "
            "x1 - x2 <= 0 since a > 0; the value 0 at x = (0, 0) is optimal"
        )
    primal_optimal = side is InfeasibleSide.DUAL_INFEASIBLE
    optimal, infeasible = ("primal", "dual") if primal_optimal else ("dual", "primal")
    objective, letter = (eval_f, "f") if primal_optimal else (eval_g, "g")
    optimum = zero_vector(ring, 2)
    infeasible_note = _no_right_inverse_note(a)
    checks = [
        _feasibility_check(P, [optimum], primal_optimal, f"{optimal}_optimum"),
        CheckReport(
            "optimum_value_zero",
            objective(P, optimum) == z,
            True,
            (f"{letter}(0, 0) = {to_text(objective(P, optimum))}",),
        ),
    ]
    if ring in (RingId.INT, RingId.ODDRAT):
        box = BoxSpec(10)
        scan = enumerate_dual if primal_optimal else enumerate_primal
        status = scan(P, box, infeasible_note)
        checks.append(
            CheckReport(
                "infeasible_side",
                status.kind.value == "INFEASIBLE",
                True,
                (f"{infeasible}: {status.kind.value} ({status.scope.value})",),
            )
        )
        candidates = (optimum, None) if primal_optimal else (None, optimum)
        checks.append(certify_optimal_pair(P, box, *candidates))
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
            f"the {infeasible} side is infeasible while the {optimal} side attains "
            f"an optimum; classically the {optimal} would have to be infeasible or "
            "unbounded"
        ),
        primal_witnesses=(optimum,) if primal_optimal else (),
        dual_witnesses=() if primal_optimal else (optimum,),
        primal_optimum=optimum if primal_optimal else None,
        dual_optimum=None if primal_optimal else optimum,
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
    tests = (
        ("sign(z) = +1", sign(z) == 1, z),
        ("sign(1 - a*z) = +1", sign(sub(o, mul(a, z))) == 1, sub(o, mul(a, z))),
        ("sign(x) >= 0", sign(x) >= 0, x),
        ("sign(1 - a*x) = +1", sign(sub(o, mul(a, x))) == 1, sub(o, mul(a, x))),
    )
    for label, ok, witness in tests:
        if not ok:
            raise PreconditionViolated(f"{label} failed (value {to_text(witness)})")
    return add(x, mul(z, sub(o, mul(a, x))))


def dual_decreasing_step(P: ProgramData, y: RVector, p: RingElement) -> RVector:
    """Scale a strictly positive dual-feasible y to y' with y'_j = y_j * p.

    Requires 0 < p < 1. Dual feasibility of y' is re-validated exactly and
    the step fails with StepLosesFeasibility when it breaks (scaling below
    the constraint threshold is possible on some rings); the strict
    decrease of g is also checked exactly.
    """
    o = one(P.ring)
    if sign(p) != 1:
        raise PreconditionViolated(f"sign(p) = +1 failed (value {to_text(p)})")
    if sign(sub(o, p)) != 1:
        raise PreconditionViolated(f"sign(1 - p) = +1 failed (value {to_text(p)})")
    verdict = is_dual_feasible(P, y)
    if not verdict.feasible:
        raise PreconditionViolated(
            f"y must be dual-feasible ({verdict.violation_kind.value} at "
            f"index {verdict.violated_row})"
        )
    if any(sign(e) != 1 for e in y):
        raise PreconditionViolated("every entry of y must be strictly positive")
    scaled = scale_right(y, p)
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


def primal_improving_sequence(
    ring: RingId, a: RingElement, z: RingElement, steps: int = 21
) -> CounterexampleBundle:
    """Strictly improving feasible points for the gap program.

    Starts at x = 0 and applies the improvement step; the bundle's claim is
    that the primal side is feasible and bounded yet attains no optimum.
    """
    _require_no_smallest_positive(ring, "z with 0 < a*z < 1")
    if a.ring is not ring or z.ring is not ring:
        raise NotAPositiveNonUnit(f"witnesses must live in ring {ring.value}")
    _require_positive_nonunit(a)
    P = _one_by_one_program(a)
    x = zero(ring)
    points = [vector(ring, [x])]
    for _ in range(steps):
        x = primal_improving_step(a, z, x)
        points.append(vector(ring, [x]))
    values = tuple(eval_f(P, pt) for pt in points)
    seq = WitnessSequence(ring, SequenceRole.PRIMAL_IMPROVING, tuple(points), values)
    check = _validate_sequence(P, seq)
    return CounterexampleBundle(
        kind=BundleKind.NON_ACHIEVING,
        program=P,
        claim=(
            "the primal side is feasible and bounded above yet attains no optimum: "
            "the recorded points improve strictly forever"
        ),
        primal_witnesses=tuple(points),
        sequence=seq,
        notes=(
            f"step x <- x + {to_text(z)}*(1 - {to_text(a)}*x) keeps "
            f"1 - {to_text(a)}*x positive by the factorization "
            "(1 - a*z)*(1 - a*x)",
        ),
        checks=(check,),
    )


def dual_decreasing_sequence(
    ring: RingId, a: RingElement, p: RingElement, steps: int = 21
) -> CounterexampleBundle:
    """Strictly decreasing feasible dual values for the gap program.

    Starts at y = [1] and rescales by p each step, re-validating dual
    feasibility exactly every time.
    """
    _require_no_smallest_positive(ring, "p with 0 < p < 1")
    if a.ring is not ring or p.ring is not ring:
        raise NotAPositiveNonUnit(f"witnesses must live in ring {ring.value}")
    _require_positive_nonunit(a)
    P = _one_by_one_program(a)
    y = vector(ring, [one(ring)])
    verdict = is_dual_feasible(P, y)
    if not verdict.feasible:
        raise PreconditionViolated("y = [1] is not dual-feasible for this program")
    points = [y]
    for _ in range(steps):
        y = dual_decreasing_step(P, y, p)
        points.append(y)
    values = tuple(eval_g(P, pt) for pt in points)
    seq = WitnessSequence(ring, SequenceRole.DUAL_DECREASING, tuple(points), values)
    check = _validate_sequence(P, seq)
    return CounterexampleBundle(
        kind=BundleKind.NON_ACHIEVING,
        program=P,
        claim=(
            "the dual side is feasible and bounded below yet attains no optimum: "
            "the recorded values decrease strictly forever"
        ),
        dual_witnesses=tuple(points),
        sequence=seq,
        notes=(f"each step rescales y by {to_text(p)} and re-validates feasibility",),
        checks=(check,),
    )


def _validate_sequence(P: ProgramData, seq: WitnessSequence) -> CheckReport:
    """Re-verify feasibility of every point and strict monotonicity."""
    problems: list[str] = []
    primal_side = seq.role is SequenceRole.PRIMAL_IMPROVING
    for k, pt in enumerate(seq.points):
        verdict = is_primal_feasible(P, pt) if primal_side else is_dual_feasible(P, pt)
        if not verdict.feasible:
            problems.append(f"point {k} infeasible: {verdict.violation_kind.value}")
    expected = Ordering.GT if primal_side else Ordering.LT
    for k in range(1, len(seq.objective_values)):
        if compare(seq.objective_values[k], seq.objective_values[k - 1]) is not expected:
            problems.append(
                f"objective not strictly "
                f"{'increasing' if primal_side else 'decreasing'} at step {k}"
            )
    details = tuple(problems) or (
        f"{len(seq.points)} feasible points, strictly "
        f"{'increasing' if primal_side else 'decreasing'} objective",
    )
    return CheckReport("witness_sequence", not problems, True, details)


def no_central_between_check(
    a: RingElement, b: RingElement, z: RingElement
) -> CheckReport:
    """No central z lies strictly between a*b and b*a for positive a, b.

    Orients the pair so ab <= ba, then asserts NOT (ab < z and z < ba). A
    violation would be an implementation bug: z central would give
    aba < za = az < aba.
    """
    if sign(a) != 1:
        raise PreconditionViolated(f"sign(a) = +1 failed (value {to_text(a)})")
    if sign(b) != 1:
        raise PreconditionViolated(f"sign(b) = +1 failed (value {to_text(b)})")
    if not is_central(z):
        raise PreconditionViolated(f"z = {to_text(z)} is not central")
    ab = mul(a, b)
    ba = mul(b, a)
    if compare(ab, ba) is Ordering.GT:
        ab, ba = ba, ab
    below = compare(ab, z) is Ordering.LT
    above = compare(z, ba) is Ordering.LT
    passed = not (below and above)
    details = (
        f"ab = {to_text(ab)}, ba = {to_text(ba)} (oriented ab <= ba)",
        f"ab < z: {below}",
        f"z < ba: {above}",
    )
    return CheckReport("no_central_between", passed, True, details)


def magnitude_gap_check(a: RingElement, b: RingElement) -> CheckReport:
    """If a*b is finite (a, b positive), then ba - ab is zero or infinitesimal."""
    if sign(a) != 1:
        raise PreconditionViolated(f"sign(a) = +1 failed (value {to_text(a)})")
    if sign(b) != 1:
        raise PreconditionViolated(f"sign(b) = +1 failed (value {to_text(b)})")
    ab = mul(a, b)
    ba = mul(b, a)
    if compare(ab, ba) is Ordering.GT:
        ab, ba = ba, ab
    if classify_magnitude(ab) is not Magnitude.FINITE:
        return CheckReport(
            "magnitude_gap",
            passed=True,
            applicable=False,
            details=(
                f"hypothesis not met: a*b = {to_text(ab)} is "
                f"{classify_magnitude(ab).value}",
            ),
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
    reports: list[CheckReport] = []
    if bundle.primal_witnesses:
        reports.append(
            _feasibility_check(P, list(bundle.primal_witnesses), True, "primal_witnesses")
        )
    if bundle.dual_witnesses:
        reports.append(
            _feasibility_check(P, list(bundle.dual_witnesses), False, "dual_witnesses")
        )
    if bundle.kind is BundleKind.GAP:
        reports.append(
            _pair_gap_check(
                P,
                list(bundle.primal_witnesses),
                list(bundle.dual_witnesses),
                "recorded witnesses",
            )
        )
    if bundle.primal_optimum is not None or bundle.dual_optimum is not None:
        if P.ring in _ENUMERABLE:
            reports.append(
                certify_optimal_pair(
                    P,
                    box or BoxSpec(10),
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
    from .progfile import serialize_program

    def vecs(points: tuple[RVector, ...]) -> list[list[str]]:
        return [[to_text(e) for e in p] for p in points]

    return {
        "kind": bundle.kind.value,
        "ring": bundle.program.ring.value,
        "program": serialize_program(bundle.program),
        "claim": bundle.claim,
        "primal_witnesses": vecs(bundle.primal_witnesses),
        "dual_witnesses": vecs(bundle.dual_witnesses),
        "primal_optimum": None
        if bundle.primal_optimum is None
        else [to_text(e) for e in bundle.primal_optimum],
        "dual_optimum": None
        if bundle.dual_optimum is None
        else [to_text(e) for e in bundle.dual_optimum],
        "gap": None if bundle.gap_value is None else to_text(bundle.gap_value),
        "sequence": None
        if bundle.sequence is None
        else {
            "role": bundle.sequence.role.value,
            "points": vecs(bundle.sequence.points),
            "objective_values": [to_text(v) for v in bundle.sequence.objective_values],
        },
        "notes": list(bundle.notes),
        "checks": [c.as_dict() for c in bundle.checks],
    }
