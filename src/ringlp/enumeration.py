"""Brute-force exact certification over bounded boxes.

Variables range over a finite grid starting at 0 (the sign constraint
already rules out negatives), on the rings whose descriptor says
``is_enumerable``. On a ring with a smallest positive element (INT) each
variable takes values 0..N. Otherwise the grid is every numerator 0..N*D
over every denominator d in 1..D that is a unit of the ring (every d for
RAT, odd d for ODDRAT). Each value is k/G, its exact int key k over G, the
lcm of those denominators (G = 1 on INT); the scan builds, walks, judges
and ranks the grid on those keys alone. A rational grid is counted before
it is built: each unit denominator's values in lowest terms, in closed
form, against the point cap and the key-bit budget, so a refused grid
builds no key; a grid within both builds each denominator's keys in one
pass and sorts them once. Its one key->element function
builds only what leaves the scan: witness and listed coordinates, and
``candidate_values``. The rule puts values up to N*D, not N, in the grid;
it is kept as it is.

The oracle never claims more than it checked: every status it returns is
BOX_LIMITED. A feasible best point touching the box's upper face is
reported as FEASIBLE_UNBOUNDED_IN_BOX since a larger box might improve it.
Only a construction, which argues its box suffices, marks a status
EXHAUSTIVE.

Each scan builds and caps its own grid and the program's integer form
(``integer_form``) and passes both to its walk; a scan pair
(``classify_edt``, ``certify_optimal_pair``) builds one grid, capped for
the side with more variables before any verdict or walk, and one form,
and passes both to each walk it makes: ``classify_edt`` walks both sides,
``certify_optimal_pair`` only a side with no candidate or a feasible one,
since the judgement never reads the status behind an infeasible
candidate. Nothing is kept on the program, and the scan is sequential.
The walk scales its side's lines of the form once by G and yields, in
lexicographic order, each tuple of keys that meets them, taking each
line's int residual once per prefix of n - 1 keys, so a last key costs one
int product per line. Keys are never negative, so no sign is tested and no
verdict, slack, element or vector is built per point; the scan calls no
feasibility test (the checks still do). Both sides maximize: the dual's
min g is max -g on the lines of (-A^T, -c, -b). With the weights w = L c,
or -L b, from the integer form over its denominator L, a point's rank
``w . k`` is ``(f + d) L G`` or ``-(g + d) L G``, so comparing ranks compares
objectives exactly. Keeping only strict improvements makes the witness the
lexicographically smallest best point. A side scan builds an element per
distinct witness key, one vector and one objective element; the witness
lies on the box's upper face when it holds the top key.
"""

from __future__ import annotations

from enum import Enum, unique
from functools import cache
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul as _times
from typing import Callable, Optional

from ._records import record
from .affine import ProgramData, Side, entries, gap
from .errors import PreconditionError, require_int
from .linalg import RVector, vec_text
from .reports import CheckReport
from .rings import (
    RingElement,
    RingId,
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
    "classify_edt",
]

_MAX_POINTS = 5_000_000
_MAX_LISTED = 1_000_000
_TOO_LARGE = "search box too large for exhaustive scan"
# per-variable grid values times the bit length of their G: 16 MiB of keys
_MAX_GRID_BITS = 1 << 27


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


def _coprime_count(den: int, top: int) -> int:
    """How many of the numerators 0..top are coprime to ``den``: by
    inclusion-exclusion over the distinct primes of ``den``, the sum of
    ``mu(d) (top // d + 1)`` over the square-free divisors d of ``den``
    (``top + 1`` for ``den = 1``)."""
    terms, rest = [(1, 1)], den
    for p in range(2, isqrt(den) + 1):
        if rest % p == 0:
            terms += [(d * p, -sign) for d, sign in terms]
            while rest % p == 0:
                rest //= p
    if rest > 1:  # one prime above the square root is left
        terms += [(d * rest, -sign) for d, sign in terms]
    return sum(sign * (top // d + 1) for d, sign in terms)


def _grid_values(ring: RingId, box: BoxSpec, nvars: int, cap: int = _MAX_POINTS) -> tuple:
    """The per-variable grid ``(keys, G, value)``: the int keys k over G, the
    lcm of the grid's denominators, ascending, and ``value``, the one
    function that builds a key's element k/G; no element is built here.

    A rational grid is counted before it is built. The count walks the unit
    denominators in order, growing G and adding each one's lowest-terms
    numerators by ``_coprime_count``, and raises at the first denominator
    whose values, raised to the number of variables, exceed ``cap`` points,
    or whose count times the bit length of the G so far exceeds
    ``_MAX_GRID_BITS``; where one denominator crosses both, the text is that
    of the limit a value-by-value count would cross first. Denominator 1
    alone is checked against ``cap`` before the count. Only a grid within
    both limits is built, each denominator's keys in one pass, then sorted."""
    if not isinstance(box, BoxSpec):
        raise TypeError(f"box must be a BoxSpec, got {box!r}")
    facts = descriptor(ring)
    if not facts.is_enumerable:
        enumerable = ", ".join(r.value for r in RingId if descriptor(r).is_enumerable)
        raise PreconditionError(
            f"{ring.value} is not exhaustively enumerable (only {enumerable})"
        )
    # the smallest positive element of an ordered ring is 1 (0 < s < 1 would
    # give 0 < s*s < s), so the grid is its multiples 0..N
    if facts.smallest_positive is not None:
        if (box.bound + 1) ** nvars > cap:
            raise ValueError(_TOO_LARGE)

        def value(k: int) -> RingElement:
            return RingElement(ring, k)

        return tuple(range(box.bound + 1)), 1, value
    top = box.bound * (box.denominator_bound or 1)
    # denominator 1 alone gives the N*D + 1 distinct values 0..N*D
    if (top + 1) ** nvars > cap:
        raise ValueError(_TOO_LARGE)
    dens, count, G = [], 0, 1
    for den in range(1, (box.denominator_bound or 1) + 1):
        if try_invert(from_int(ring, den)) is None:
            continue
        G = lcm(G, den)
        bits = G.bit_length()
        # a pair not in lowest terms repeats the value of its lowest terms,
        # whose denominator divides den, so is a unit and was counted before
        total = count + _coprime_count(den, top)
        if total * bits > _MAX_GRID_BITS:
            # the value the budget refuses, unless the cap refused one before
            if max(count + 1, _MAX_GRID_BITS // bits + 1) ** nvars <= cap:
                raise ValueError(f"{_TOO_LARGE}: keys over {_MAX_GRID_BITS} bits per variable")
            raise ValueError(_TOO_LARGE)
        if total**nvars > cap:
            raise ValueError(_TOO_LARGE)
        dens.append(den)
        count = total
    keys = list(range(0, (top + 1) * G, G))
    for den in dens[1:]:
        step = G // den
        keys += [num * step for num in range(top + 1) if gcd(num, den) == 1]
    keys.sort()

    # each den is a unit of the ring, so every value is in it by construction
    def value(k: int) -> RingElement:
        return RingElement(ring, reduced(k, G))

    return tuple(keys), G, value


def candidate_values(ring: RingId, box: BoxSpec) -> tuple[RingElement, ...]:
    """The per-variable grid, ascending: the element of every key."""
    keys, _, value = _grid_values(ring, box, 1)
    return tuple(map(value, keys))


def integer_form(P: ProgramData) -> tuple[tuple, tuple]:
    """``P``'s integer form ``(rows, cols)`` of lines ``(a, k)``, each read
    ``a . v <= k``: ``(L A_j, L b_j)`` per row and ``(-L A^i, -L c_i)`` per
    column, L the lcm of the denominators of A, b and c. ``P``'s ring is
    one whose grid was built, so its payloads are ints or ``Fraction``s."""
    payloads = [e.payload for e in P.A.entries + P.b.entries + P.c.entries]
    L = lcm(*[p.denominator for p in payloads])
    ints = [p.numerator * (L // p.denominator) for p in payloads]
    m, n = P.rows, P.cols
    A, b, c = tuple(ints[: m * n]), ints[m * n : m * n + m], ints[m * n + m :]
    negated = tuple(-a for a in A)
    rows = tuple((A[j * n : j * n + n], b[j]) for j in range(m))
    return rows, tuple((negated[i::n], -c[i]) for i in range(n))


def _feasible_walk(P: ProgramData, primal: bool, grid: tuple, form: tuple):
    """Yield the int keys of every feasible point of ``grid`` on the primal
    (x) or dual (y) side in lexicographic order. Per prefix of n - 1 keys,
    each side line ``a . v <= k``, scaled by G, gives its int residual
    ``r = k G - a[:-1] . prefix`` once; a last key z, ascending, passes
    when ``a[-1] z <= r`` on every line, the first broken line ending its
    test. No vector, element or ``Fraction`` is built."""
    keys, G, _ = grid
    lines, n = (form[0], P.cols) if primal else (form[1], P.rows)
    lines = tuple((a[:-1], a[-1], k * G) for a, k in lines)
    for prefix in product(keys, repeat=n - 1):
        tests = [(last, k - sum(map(_times, head, prefix))) for head, last, k in lines]
        for z in keys:
            for last, r in tests:
                if r < last * z:
                    break
            else:
                yield prefix + (z,)


def _vectors(P: ProgramData, grid: tuple, points) -> list[RVector]:
    """Each key tuple of ``points`` as a checked ``RVector`` of grid values,
    each distinct key's element built once per call and shared."""
    value = cache(grid[2])
    return [RVector(P.ring, tuple(map(value, point))) for point in points]


def _enumerate(P: ProgramData, primal: bool, grid: tuple, form: tuple) -> ProgramStatus:
    """One side's in-box status on ``grid``, already capped for it, and
    ``form``, ``P``'s integer form. Points are ranked by the int ``w . k``,
    w the negated right-hand sides of the other side's lines (L c, or -L b)
    and k the point's keys; the largest rank has the best objective, so the
    witness vector and its objective element are built once, at the end."""
    side = Side.of(primal)
    rows, cols = form
    weights = [-k for _, k in (cols if primal else rows)]
    best_rank = best_point = None
    # strict improvement only: the walk is lexicographic, so the first point
    # reaching the best value is the lexicographically smallest witness
    for point in _feasible_walk(P, primal, grid, form):
        rank = sum(map(_times, weights, point))
        if best_point is None or rank > best_rank:
            best_rank, best_point = rank, point
    if best_point is None:
        return ProgramStatus(
            StatusKind.INFEASIBLE, Scope.BOX_LIMITED, note="no feasible point in box"
        )
    (best_witness,) = _vectors(P, grid, [best_point])
    best_value = side.objective(P, best_witness)
    if grid[0][-1] in best_point:
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
    return _enumerate(P, True, _grid_values(P.ring, box, P.cols), integer_form(P))


def enumerate_dual(P: ProgramData, box: BoxSpec) -> ProgramStatus:
    """Exhaustive in-box minimization of g over feasible points."""
    return _enumerate(P, False, _grid_values(P.ring, box, P.rows), integer_form(P))


def feasible_points(P: ProgramData, box: BoxSpec, primal: bool) -> list[RVector]:
    """Every feasible grid point of the primal side (x) or the dual side (y),
    on a side grid of at most 1,000,000 points, a cap checked before any key
    is built."""
    if not isinstance(primal, bool):
        raise TypeError(f"primal must be a bool, got {primal!r}")
    grid = _grid_values(P.ring, box, P.cols if primal else P.rows, _MAX_LISTED)
    return _vectors(P, grid, _feasible_walk(P, primal, grid, integer_form(P)))


def _side_scans(P: ProgramData, box: BoxSpec) -> Callable[[bool], ProgramStatus]:
    """The scan of either side, ``primal -> status``, on one grid and one
    integer form shared by both walks; the grid is capped for the side with
    more variables before any walk, so a side that is never asked for is
    never walked."""
    grid = _grid_values(P.ring, box, max(P.rows, P.cols))
    form = integer_form(P)
    return lambda primal: _enumerate(P, primal, grid, form)


def certify_optimal_pair(
    P: ProgramData,
    box: BoxSpec,
    x_star: Optional[RVector] = None,
    y_star: Optional[RVector] = None,
) -> CheckReport:
    """Confirm the given points are feasible and unbeaten inside the box:
    check each given point's ring and length, build and cap the grid for
    both sides, then :func:`judge_optimal_pair`, which walks a side only
    when it has no candidate or a feasible one; a side whose candidate is
    infeasible is reported from its verdict alone, with no walk."""
    if x_star is None and y_star is None:
        raise ValueError("at least one candidate point is required")
    for candidate, n in ((x_star, P.cols), (y_star, P.rows)):
        if candidate is not None:
            entries(P, candidate, n)
    return judge_optimal_pair(P, _side_scans(P, box), x_star, y_star)


def judge_optimal_pair(
    P: ProgramData,
    status_of: Callable[[bool], ProgramStatus],
    x_star: Optional[RVector] = None,
    y_star: Optional[RVector] = None,
) -> CheckReport:
    """Judge the candidates against their sides' in-box statuses: each given
    point must be feasible and unbeaten by its side's in-box best. An omitted
    side's status is reported; with both candidates, their gap. A side's
    status is taken from ``status_of(primal)`` only where it is read: for a
    side with no candidate, and for a feasible candidate, never for an
    infeasible one."""
    if x_star is None and y_star is None:
        raise ValueError("at least one candidate point is required")
    ok = True
    details: list[str] = []
    for primal, candidate in ((True, x_star), (False, y_star)):
        side = Side.of(primal)
        if candidate is None:
            details.append(f"{side.name} side: {status_of(primal).kind.value}")
            continue
        verdict = side.feasible(P, candidate)
        if not verdict.feasible:
            ok = False
            details.append(f"{side.name} candidate infeasible {verdict.violation_text()}")
            continue
        value = side.objective(P, candidate)
        status = status_of(primal)
        if status.value is not None and compare(status.value, value) == side.better:
            ok = False
            details.append(
                f"in-box point {vec_text(status.witness)} beats the "
                f"{side.name} candidate: {side.letter} = {to_text(status.value)} "
                f"{'>' if side.better > 0 else '<'} {to_text(value)}"
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
    scan = _side_scans(P, box)
    primal, dual = scan(True), scan(False)
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
