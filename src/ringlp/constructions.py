"""Counterexample generators and their certificates.

Every generator returns a :class:`CounterexampleBundle` whose claims are
re-checkable: witnesses pass the feasibility checkers, integer optima are
certified by box enumeration, and improving/decreasing sequences are
validated point by point with exact sign tests: a sequence is one side's
witnesses with the objective value recorded at each. Claims that cannot be
machine-certified on a given ring are recorded in ``notes`` as
"claimed (not machine-certified)" together with the supporting argument.
A bundle renders itself, as JSON-able data, with ``as_dict``. The step and
check helpers (``primal_improving_step``, ``dual_decreasing_step``,
``no_central_between_check``) are public here but not exported from ringlp.

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

Each program is built over the ring of its non-unit ``a``: an ``a`` that is
not a ``RingElement`` raises ``TypeError``, and a failed hypothesis (``a``
not a positive non-unit, a witness outside ``a``'s ring, a ring without
the elements the construction needs) raises ``PreconditionError`` with a
message that names it.
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
from .errors import PreconditionError
from .linalg import RVector, matrix, vec_text, vector
from .progfile import serialize_program
from .reports import CheckReport, TrialSummary, run_trials
from .rings import (
    Magnitude,
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
    "CounterexampleBundle",
    "gap_program",
    "strong_duality_counterexample",
    "infeasible_optimal_program",
    "primal_improving_sequence",
    "dual_decreasing_sequence",
    "no_central_between_trials",
    "magnitude_gap_check",
    "verify_bundle",
]

NOT_CERTIFIED = "claimed (not machine-certified)"

# the box that constructions scan and bundles are re-verified in
_BOX = BoxSpec(10)
# the dual witnesses gap_program samples, and their seed, where no box checks it
_DUAL_SAMPLES, _SAMPLE_SEED = 10, 7
# the strict steps of a non-achieving sequence
_STEPS = 21


@unique
class BundleKind(Enum):
    GAP = "GAP"
    STRONG_DUALITY_GAP = "STRONG_DUALITY_GAP"
    INFEASIBLE_OPTIMAL_PRIMAL = "INFEASIBLE_OPTIMAL_PRIMAL"
    INFEASIBLE_OPTIMAL_DUAL = "INFEASIBLE_OPTIMAL_DUAL"
    NON_ACHIEVING = "NON_ACHIEVING"


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
    # recorded at each witness of the one side that has any: a sequence
    objective_values: tuple[RingElement, ...] = ()
    notes: tuple[str, ...] = ()
    checks: tuple[CheckReport, ...] = ()

    def __post_init__(self):
        sides = [w for w in (self.primal_witnesses, self.dual_witnesses) if w]
        if self.objective_values and [len(w) for w in sides] != [len(self.objective_values)]:
            raise ValueError("objective values need one side's witnesses, one value per witness")

    def as_dict(self) -> dict:
        """JSON-able certificate sidecar: kind, witnesses, verification results."""
        return {
            "kind": self.kind.value,
            "ring": self.program.ring.value,
            "program": serialize_program(self.program),
            "claim": self.claim,
            "primal_witnesses": [vec_text(p) for p in self.primal_witnesses],
            "dual_witnesses": [vec_text(p) for p in self.dual_witnesses],
            "primal_optimum": None if self.primal_optimum is None else vec_text(self.primal_optimum),
            "dual_optimum": None if self.dual_optimum is None else vec_text(self.dual_optimum),
            "gap": None if self.gap_value is None else to_text(self.gap_value),
            "sequence": None
            if not self.objective_values
            else {
                "role": "PRIMAL_IMPROVING" if self.primal_witnesses else "DUAL_DECREASING",
                "points": [vec_text(p) for p in self.primal_witnesses or self.dual_witnesses],
                "objective_values": [to_text(v) for v in self.objective_values],
            },
            "notes": list(self.notes),
            "checks": [c.as_dict() for c in self.checks],
        }


def _ring_of(a: RingElement) -> RingId:
    """The ring a construction is built over: that of its non-unit ``a``."""
    if not isinstance(a, RingElement):
        raise TypeError(f"a must be a RingElement, got {a!r}")
    return a.ring


def _require_witnesses(a: RingElement, *others: RingElement) -> RingId:
    """The ring of ``a``, once the other witnesses are in it and ``a`` is a
    positive non-unit."""
    ring = _ring_of(a)
    for e in others:
        if not isinstance(e, RingElement) or e.ring is not ring:
            raise PreconditionError(f"element {e} is not in ring {ring.value}")
    if sign(a) != 1:
        raise PreconditionError(f"{to_text(a)} is not positive")
    if try_invert(a) is not None:
        raise PreconditionError(
            f"{to_text(a)} is invertible in {ring.value}; a non-unit is required"
        )
    return ring


def _require_sign(label: str, value: RingElement, least: int = 1) -> None:
    """sign(value) is at least ``least``; otherwise the failed test
    ``label`` and the value it tested are named."""
    if sign(value) < least:
        raise PreconditionError(f"{label} failed (value {to_text(value)})")


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


def gap_program(a: RingElement) -> CounterexampleBundle:
    """The 1x1 program A=[a], b=[1], c=[1], d=0 over the ring of a positive
    non-unit a.

    Claim: both sides are feasible and every feasible pair has a strictly
    positive gap. Spot verification uses box enumeration where the ring has
    a smallest positive element (INT) and a sampled family of dual
    witnesses k + (nonnegative sample) elsewhere, where k is the least
    positive integer with k*a >= 1 (so y = [k] is dual-feasible): 10
    samples from seed 7.
    """
    ring = _require_witnesses(a)
    P = _one_by_one_program(a)
    claim = "every feasible pair (x, y) has sign(g(y) - f(x)) = +1"
    primal_witnesses = [vector(ring, [zero(ring)])]
    k = from_int(ring, _least_covering_integer(a))
    dual_witnesses = [vector(ring, [k])]
    by_box = descriptor(ring).smallest_positive is not None
    if not by_box:
        sampler = Sampler(_SAMPLE_SEED)
        for _ in range(_DUAL_SAMPLES):
            w = add(k, sampler.sample_nonneg(ring))
            dual_witnesses.append(vector(ring, [w]))
    reports, feasible, problems = _feasibility_checks(P, primal_witnesses, dual_witnesses, "witnesses")
    if by_box:
        box_points = [feasible_points(P, _BOX, primal) for primal in (True, False)]
        gap_check = _pair_gap_check(P, *box_points, f"box enumeration on [0,{_BOX.bound}]")
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
        return compare(mul(from_int(ring, k), a), one(ring)) >= 0

    high = 1
    while not covers(high):
        high *= 2
    low = high // 2  # 0, or a k that does not cover
    return low + 1 + bisect_left(range(low + 1, high + 1), True, key=covers)


def strong_duality_counterexample(a: RingElement) -> CounterexampleBundle:
    """The gap program of a positive non-unit a whose ring's smallest
    positive element is 1: both sides attain optima (x*=0, y*=1) with
    different values, gap exactly 1."""
    ring = _require_witnesses(a)
    if descriptor(ring).smallest_positive is None:
        raise PreconditionError(f"{ring.value} has no smallest positive element")
    P = _one_by_one_program(a)
    x_star = vector(ring, [zero(ring)])
    y_star = vector(ring, [one(ring)])
    notes = (
        f"{to_text(a)}*x <= 1 with x >= 0: any x >= 1 gives "
        f"{to_text(a)}*x >= {to_text(a)} > 1, so x = 0 is the only feasible point",
        f"y*{to_text(a)} >= 1 with y >= 0 rules out y = 0; the objective equals y, "
        "so y = 1 is optimal",
    )
    statuses = _argued_statuses(P, _BOX, notes)
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
        checks=(
            status_check,
            judge_optimal_pair(P, lambda primal: statuses[0 if primal else 1], x_star, y_star),
        ),
    )


# why a positive non-unit has no right inverse, on the rings that have one
_NON_CONSTANT = "; multiplying a nonzero element by a non-constant never yields the constant 1"
_NO_RIGHT_INVERSE = {
    RingId.INT: "; the only integer units are 1 and -1",
    RingId.ODDRAT: "; the would-be inverse has an even denominator",
    RingId.POLY: _NON_CONSTANT,
    RingId.SKEW: _NON_CONSTANT,
}


def infeasible_optimal_program(a: RingElement, kind: BundleKind) -> CounterexampleBundle:
    """One side infeasible, the other attaining an optimum at 0, over the
    ring of a positive non-unit a.

    INFEASIBLE_OPTIMAL_PRIMAL: A = [[a], [-a]], b = [1, -1], c = [0]; the
    primal needs a*x = 1 exactly (impossible for a non-unit) while y = (0, 0)
    is dual-optimal with value 0. INFEASIBLE_OPTIMAL_DUAL transposes A and
    swaps b and c to reverse the roles. Any other ``kind`` is a ValueError.
    """
    kinds = (BundleKind.INFEASIBLE_OPTIMAL_PRIMAL, BundleKind.INFEASIBLE_OPTIMAL_DUAL)
    if kind not in kinds:
        raise ValueError(f"kind must be {kinds[0].value} or {kinds[1].value}, got {kind!r}")
    primal_optimal = kind is BundleKind.INFEASIBLE_OPTIMAL_DUAL
    ring = _require_witnesses(a)
    z = zero(ring)
    column, rhs = [a, neg(a)], vector(ring, [one(ring), neg(one(ring))])
    if primal_optimal:
        P = ProgramData(ring, matrix(ring, [column]), vector(ring, [z]), rhs, z)
        sign_note = (
            "f(x) = x1 - x2 and primal feasibility forces a*(x1 - x2) <= 0, hence "
            "x1 - x2 <= 0 since a > 0; the value 0 at x = (0, 0) is optimal"
        )
    else:
        P = ProgramData(ring, matrix(ring, [[e] for e in column]), rhs, vector(ring, [z]), z)
        sign_note = (
            "g(y) = y1 - y2 and dual feasibility forces (y1 - y2)*a >= 0, hence "
            "y1 - y2 >= 0 since a > 0; the value 0 at y = (0, 0) is optimal"
        )
    optimal, infeasible = Side.of(primal_optimal), Side.of(not primal_optimal)
    optimum = vector(ring, [z, z])
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
        statuses = _argued_statuses(P, _BOX, argued)
        status = statuses[1] if primal_optimal else statuses[0]
        detail = f"{infeasible.name}: {status.kind.value} ({status.scope.value})"
        checks += [
            CheckReport("infeasible_side", status.kind is StatusKind.INFEASIBLE, True, (detail,)),
            judge_optimal_pair(P, lambda primal: statuses[0 if primal else 1], *candidates),
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
    the step fails with PreconditionError when it breaks (scaling below
    the constraint threshold is possible on some rings); the strict
    decrease of g is also checked exactly.
    """
    _require_sign("sign(p) = +1", p)
    _require_sign("sign(1 - p) = +1", sub(one(P.ring), p))
    verdict = is_dual_feasible(P, y)
    if not verdict.feasible:
        raise PreconditionError(f"y must be dual-feasible {verdict.violation_text()}")
    if any(sign(e) != 1 for e in y):
        raise PreconditionError("every entry of y must be strictly positive")
    scaled = vector(P.ring, (mul(e, p) for e in y))
    after = is_dual_feasible(P, scaled)
    if not after.feasible:
        raise PreconditionError(
            f"scaling by {to_text(p)} breaks dual feasibility at row "
            f"{after.violated_row} ({after.violation_kind.value})"
        )
    if compare(eval_g(P, scaled), eval_g(P, y)) >= 0:
        raise PreconditionError(
            "objective value did not strictly decrease under the scaling"
        )
    return scaled


def _non_achieving_sequence(
    primal: bool, a: RingElement, w: Optional[RingElement]
) -> CounterexampleBundle:
    """The gap program walked 21 strict steps from x = 0 with witness z
    (primal) or from y = [1] with witness p (dual)."""
    ring = _ring_of(a)
    # nothing lies strictly between 0 and a smallest positive element, so
    # there is no witness to read
    smallest = descriptor(ring).smallest_positive
    if smallest is not None:
        raise PreconditionError(
            f"{ring.value} has smallest positive element {to_text(smallest)}; "
            f"no {'z with 0 < a*z < 1' if primal else 'p with 0 < p < 1'} exists"
        )
    _require_witnesses(a, w)
    P = _one_by_one_program(a)
    points = [vector(ring, [zero(ring) if primal else one(ring)])]
    for _ in range(_STEPS):
        last = points[-1]
        if primal:
            points.append(vector(ring, [primal_improving_step(a, w, last[0])]))
        else:
            points.append(dual_decreasing_step(P, last, w))
    points = tuple(points)
    values = tuple(Side.of(primal).objective(P, pt) for pt in points)
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
        primal_witnesses=points if primal else (),
        dual_witnesses=() if primal else points,
        objective_values=values,
        notes=(note,),
        checks=(_validate_sequence(P, primal, points, values),),
    )


def primal_improving_sequence(a: RingElement, z: RingElement) -> CounterexampleBundle:
    """Strictly improving feasible points for the gap program of a, with a
    witness z of a's ring, 0 < a*z < 1.

    Starts at x = 0 and applies the improvement step 21 times; the claim is
    that the primal side is feasible and bounded yet attains no optimum.
    """
    return _non_achieving_sequence(True, a, z)


def dual_decreasing_sequence(a: RingElement, p: RingElement) -> CounterexampleBundle:
    """Strictly decreasing feasible dual values for the gap program of a,
    with a witness p of a's ring, 0 < p < 1.

    Starts at y = [1] and rescales by p 21 times, re-validating dual
    feasibility exactly every time.
    """
    return _non_achieving_sequence(False, a, p)


def _validate_sequence(P: ProgramData, primal: bool, points, values) -> CheckReport:
    """Re-verify each point's feasibility on its side and its recorded
    objective value, and strict monotonicity."""
    side = Side.of(primal)
    trend = "increasing" if side.better > 0 else "decreasing"
    problems = _point_problems(P, points, side, values)[1]
    if len(values) < 2:
        problems.append("fewer than two points: no step to check")
    for k in range(1, len(values)):
        if compare(values[k], values[k - 1]) != side.better:
            problems.append(f"objective not strictly {trend} at step {k}")
    details = tuple(problems) or (
        f"{len(points)} feasible points, strictly {trend} objective",
    )
    return CheckReport("witness_sequence", not problems, True, details)


def _oriented_products(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement]:
    """a*b and b*a for positive a and b, ordered so that the first is <= the
    second."""
    _require_sign("sign(a) = +1", a)
    _require_sign("sign(b) = +1", b)
    ab, ba = mul(a, b), mul(b, a)
    return (ba, ab) if compare(ab, ba) > 0 else (ab, ba)


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
        raise PreconditionError(f"z = {to_text(z)} is not central")
    below = compare(ab, z) < 0
    above = compare(z, ba) < 0
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


def verify_bundle(bundle: CounterexampleBundle) -> tuple[CheckReport, ...]:
    """Re-run the bundle's certificates from scratch."""
    P = bundle.program
    reports, feasible, problems = _feasibility_checks(
        P, bundle.primal_witnesses, bundle.dual_witnesses, "witnesses"
    )
    if bundle.kind is BundleKind.GAP:
        reports.append(_pair_gap_check(P, *feasible, "recorded witnesses", problems))
    has_optimum = bundle.primal_optimum is not None or bundle.dual_optimum is not None
    if has_optimum and not descriptor(P.ring).is_enumerable:
        detail = f"the box oracle cannot walk {P.ring.value}; the optimum was not re-checked"
        reports.append(CheckReport("certify_optimal_pair", True, False, (detail,)))
    elif has_optimum:
        reports.append(certify_optimal_pair(P, _BOX, bundle.primal_optimum, bundle.dual_optimum))
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
    if bundle.objective_values:
        points = bundle.primal_witnesses or bundle.dual_witnesses
        primal = bool(bundle.primal_witnesses)
        reports.append(_validate_sequence(P, primal, points, bundle.objective_values))
    return tuple(reports)
