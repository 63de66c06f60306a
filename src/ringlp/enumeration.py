"""Brute-force exact certification over bounded boxes.

Variables range over a finite grid starting at 0 (the sign constraint
already rules out negatives), on the rings whose descriptor says
``is_enumerable``. On a ring with a smallest positive element (INT) each
variable takes values 0..N. Otherwise the grid is every numerator 0..N*D
over every denominator d in 1..D that is a unit of the ring (every d for
RAT, odd d for ODDRAT), deduplicated and sorted on the integer keys
``num * D*D // den``: two distinct values with
denominators at most D differ by at least 1/D^2, so the key is exact and
float-free. One ``Fraction`` is built per distinct value, by
``rings.reduced`` from its integer pair, once the whole
grid has passed the 5,000,000-point cap check. The rule puts values up to
N*D, not N, in the grid; it is kept as it is.

The oracle never claims more than it checked: every status it returns is
BOX_LIMITED. A feasible best point touching the box's upper face is
reported as FEASIBLE_UNBOUNDED_IN_BOX since a larger box might improve it.
Only a construction, which argues its box suffices, marks a status
EXHAUSTIVE.

Each scan builds and caps its own grid and passes it to its walk; a scan
pair (``classify_edt``, ``certify_optimal_pair``) passes one grid, capped
for the side with more variables, to both walks. The scan is sequential.
The grid ascends and the points are walked in lexicographic order
(``linalg.grid_points``, which checks the ring of the grid once instead of
per point). Feasible points are ranked by integer keys, not ring elements:
with each grid value k/G over the grid's common denominator G and the
side's objective weights (c, or b) w/L over the program's denominator L,
a point's key is ``w . k`` and its objective is ``key / (L G) - d``, so
comparing keys compares objectives exactly. Keeping only strict improvements makes the
witness the lexicographically smallest point that attains the best
value, and one objective element is built per side scan, for that point.
"""

from __future__ import annotations

from enum import Enum, unique
from itertools import product
from operator import gt, lt, mul as _times
from typing import Optional

from ._records import record
from .affine import ProgramData, Side, gap, scaled_ints
from .errors import UnsupportedRing, require_int
from .linalg import RVector, grid_points, vec_text
from .reports import CheckReport
from .rings import (
    Ordering,
    RingElement,
    RingId,
    all_descriptors,
    compare,
    descriptor,
    from_int,
    reduced,
    sub,
    to_text,
    try_invert,
)

__all__ = [
    "BoxSpec",
    "StatusKind",
    "Scope",
    "ProgramStatus",
    "EdtReport",
    "candidate_values",
    "enumerate_primal",
    "enumerate_dual",
    "feasible_points",
    "certify_optimal_pair",
    "judge_optimal_pair",
    "classify_edt",
]

_MAX_POINTS = 5_000_000
_TOO_LARGE = "search box too large for exhaustive scan"


@record
class BoxSpec:
    """Finite search box: bound N, and denominator bound D for rationals."""

    bound: int
    denominator_bound: Optional[int] = None

    def __post_init__(self):
        require_int("box bound", self.bound, 1)
        if self.denominator_bound is not None:
            require_int("denominator bound", self.denominator_bound, 1)


@unique
class StatusKind(Enum):
    INFEASIBLE = "INFEASIBLE"
    FEASIBLE_UNBOUNDED_IN_BOX = "FEASIBLE_UNBOUNDED_IN_BOX"
    OPTIMAL = "OPTIMAL"


@unique
class Scope(Enum):
    EXHAUSTIVE = "EXHAUSTIVE"
    BOX_LIMITED = "BOX_LIMITED"


@record
class ProgramStatus:
    kind: StatusKind
    scope: Scope
    witness: Optional[RVector] = None
    value: Optional[RingElement] = None
    note: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "scope": self.scope.value,
            "witness": None if self.witness is None else vec_text(self.witness),
            "value": None if self.value is None else to_text(self.value),
            "note": self.note,
        }


@record
class EdtReport:
    """Joint primal/dual outcome against the four classical cases."""

    case: Optional[int]
    violation: bool
    primal: ProgramStatus
    dual: ProgramStatus
    gap_value: Optional[RingElement]
    details: str

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "violation": self.violation,
            "primal": self.primal.as_dict(),
            "dual": self.dual.as_dict(),
            "gap": None if self.gap_value is None else to_text(self.gap_value),
            "details": self.details,
        }


def _grid_values(ring: RingId, box: BoxSpec, nvars: int) -> tuple[RingElement, ...]:
    """The per-variable grid, ascending.

    Raises before any value is built when the values of denominator 1
    alone, raised to the number of variables, exceed the point cap, and
    otherwise as soon as the distinct values found so far do.
    """
    facts = descriptor(ring)
    if not facts.is_enumerable:
        enumerable = ", ".join(d.ring.value for d in all_descriptors() if d.is_enumerable)
        raise UnsupportedRing(
            f"{ring.value} is not exhaustively enumerable (only {enumerable})"
        )
    # the smallest positive element of an ordered ring is 1 (0 < s < 1 would
    # give 0 < s*s < s), so the grid is its multiples 0..N
    if facts.smallest_positive is not None:
        if (box.bound + 1) ** nvars > _MAX_POINTS:
            raise ValueError(_TOO_LARGE)
        return tuple(from_int(ring, v) for v in range(box.bound + 1))
    d_bound = box.denominator_bound or 1
    # denominator 1 alone gives the N*D + 1 distinct values 0..N*D
    if (box.bound * d_bound + 1) ** nvars > _MAX_POINTS:
        raise ValueError(_TOO_LARGE)
    scale = d_bound * d_bound
    # distinct p/q and p'/q' with q, q' <= D differ by at least 1/(q q') >=
    # 1/D^2 (Farey spacing), so floor(value * D^2) tells the values apart and
    # sorts them; a Fraction is built only for each distinct key's first pair
    pairs: dict[int, tuple[int, int]] = {}
    for den in range(1, d_bound + 1):
        if try_invert(from_int(ring, den)) is None:
            continue
        for num in range(box.bound * d_bound + 1):
            key = num * scale // den
            if key not in pairs:
                pairs[key] = (num, den)
                if len(pairs) ** nvars > _MAX_POINTS:
                    raise ValueError(_TOO_LARGE)
    # each den is a unit of the ring, so every value is in it by construction
    return tuple(RingElement(ring, reduced(*pairs[key])) for key in sorted(pairs))


def candidate_values(ring: RingId, box: BoxSpec) -> tuple[RingElement, ...]:
    """The per-variable grid, ascending."""
    return _grid_values(ring, box, 1)


def _feasible_walk(P: ProgramData, side: Side, values: tuple[RingElement, ...]):
    """Yield every feasible grid point of one side, in lexicographic order,
    with its coordinates' integer keys over the grid's common denominator."""
    feasible = side.feasible
    n = side.nvars(P)
    for vec, keys in zip(grid_points(P.ring, values, n), product(scaled_ints(values)[1], repeat=n)):
        if feasible(P, vec).feasible:
            yield vec, keys


def _enumerate(P: ProgramData, side: Side, values: tuple[RingElement, ...]) -> ProgramStatus:
    """One side's in-box status on ``values``, a grid already capped for it.

    Points are ranked by the integer key ``w . k``, with w = L c (or L b)
    from the program's integer form, L its common denominator, and k the
    coordinates over the grid's, G. Since L, G > 0 it orders the points
    exactly as the objective ``key / (L G) - d`` does, so the objective
    element is built once, for the best point.
    """
    weights = side.weights(P)
    improves = gt if side.better is Ordering.GT else lt
    best_key = best_witness = None
    # strict improvement only: the walk is lexicographic, so the first point
    # reaching the best value is the lexicographically smallest witness
    for vec, keys in _feasible_walk(P, side, values):
        key = sum(map(_times, weights, keys))
        if best_witness is None or improves(key, best_key):
            best_key = key
            best_witness = vec
    if best_witness is None:
        return ProgramStatus(
            StatusKind.INFEASIBLE, Scope.BOX_LIMITED, note="no feasible point in box"
        )
    best_value = side.objective(P, best_witness)
    face = values[-1]
    if any(e == face for e in best_witness.entries):
        return ProgramStatus(
            StatusKind.FEASIBLE_UNBOUNDED_IN_BOX,
            Scope.BOX_LIMITED,
            best_witness,
            best_value,
            note="best in-box point lies on the box face; a larger box may improve it",
        )
    return ProgramStatus(StatusKind.OPTIMAL, Scope.BOX_LIMITED, best_witness, best_value)


def enumerate_primal(P: ProgramData, box: BoxSpec) -> ProgramStatus:
    """Exhaustive in-box maximization of f over feasible points."""
    side = Side.of(True)
    return _enumerate(P, side, _grid_values(P.ring, box, side.nvars(P)))


def enumerate_dual(P: ProgramData, box: BoxSpec) -> ProgramStatus:
    """Exhaustive in-box minimization of g over feasible points."""
    side = Side.of(False)
    return _enumerate(P, side, _grid_values(P.ring, box, side.nvars(P)))


def feasible_points(P: ProgramData, box: BoxSpec, primal: bool) -> list[RVector]:
    """Every feasible grid point of the primal side (x) or the dual side (y)."""
    side = Side.of(primal)
    values = _grid_values(P.ring, box, side.nvars(P))
    return [vec for vec, _ in _feasible_walk(P, side, values)]


def _scan_pair(P: ProgramData, box: BoxSpec) -> tuple[ProgramStatus, ProgramStatus]:
    """(primal, dual) statuses on one grid, passed to both walks and capped
    for the side with more variables before either walk starts."""
    values = _grid_values(P.ring, box, max(P.rows, P.cols))
    return _enumerate(P, Side.of(True), values), _enumerate(P, Side.of(False), values)


def certify_optimal_pair(
    P: ProgramData,
    box: BoxSpec,
    x_star: Optional[RVector] = None,
    y_star: Optional[RVector] = None,
) -> CheckReport:
    """Confirm the given points are feasible and unbeaten inside the box:
    scan both sides, then :func:`judge_optimal_pair`."""
    if x_star is None and y_star is None:
        raise ValueError("at least one candidate point is required")
    return judge_optimal_pair(P, _scan_pair(P, box), x_star, y_star)


def judge_optimal_pair(
    P: ProgramData,
    statuses: tuple[ProgramStatus, ProgramStatus],
    x_star: Optional[RVector] = None,
    y_star: Optional[RVector] = None,
) -> CheckReport:
    """Judge the candidates against the (primal, dual) statuses of box scans
    already made: each given point must be feasible and unbeaten by its side's
    in-box best. An omitted side's status is reported; with both, their gap."""
    if x_star is None and y_star is None:
        raise ValueError("at least one candidate point is required")
    ok = True
    details: list[str] = []
    for primal, candidate, status in zip((True, False), (x_star, y_star), statuses):
        side = Side.of(primal)
        if candidate is None:
            details.append(f"{side.name} side: {status.kind.value}")
            continue
        verdict = side.feasible(P, candidate)
        if not verdict.feasible:
            ok = False
            details.append(f"{side.name} candidate infeasible {verdict.violation_text()}")
            continue
        value = side.objective(P, candidate)
        if status.value is not None and compare(status.value, value) is side.better:
            ok = False
            details.append(
                f"in-box point {vec_text(status.witness)} beats the "
                f"{side.name} candidate: {side.letter} = {to_text(status.value)} "
                f"{'>' if side.better is Ordering.GT else '<'} {to_text(value)}"
            )
        else:
            details.append(
                f"{side.name} candidate unbeaten in box, {side.letter} = {to_text(value)}"
            )
    if x_star is not None and y_star is not None:
        details.append(f"gap = {to_text(gap(P, x_star, y_star))}")
    return CheckReport("certify_optimal_pair", ok, True, tuple(details))


_INFEASIBLE, _UNBOUNDED, _OPTIMAL = (
    StatusKind.INFEASIBLE,
    StatusKind.FEASIBLE_UNBOUNDED_IN_BOX,
    StatusKind.OPTIMAL,
)
# (primal kind, dual kind) -> (classical case, its text)
_CASES = {
    (_INFEASIBLE, _INFEASIBLE): (1, "case 1: both sides infeasible"),
    (_INFEASIBLE, _UNBOUNDED): (2, "case 2: primal infeasible, dual improves up to the box face"),
    (_UNBOUNDED, _INFEASIBLE): (3, "case 3: dual infeasible, primal improves up to the box face"),
    (_OPTIMAL, _OPTIMAL): (4, "case 4: both sides attain an in-box optimum"),
}


def classify_edt(P: ProgramData, box: BoxSpec) -> EdtReport:
    """Map the joint in-box outcome onto the classical four-way split.

    Combinations outside the four cases (e.g. one side infeasible while
    the other attains an optimum) are reported as a VIOLATION, which is
    exactly the expected finding on non-division rings.
    """
    primal, dual = _scan_pair(P, box)
    kinds = (primal.kind, dual.kind)
    if kinds not in _CASES:
        details = (
            f"VIOLATION: primal {kinds[0].value} with dual {kinds[1].value} matches "
            "none of the four classical cases"
        )
        return EdtReport(None, True, primal, dual, None, details)
    case, details = _CASES[kinds]
    gap_value = None
    if case == 4:
        gap_value = sub(dual.value, primal.value)
        details += f"; gap = {to_text(gap_value)}"
    return EdtReport(case, False, primal, dual, gap_value, details)
