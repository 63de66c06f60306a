"""The primal-dual affine program model and its exact identities.

A program over a ring R is the data (A, b, c, d) with A an m x n matrix.
The primal side maximizes f(x) = c.x - d subject to A x <= b, x >= 0; the
dual side minimizes g(y) = y.b - d subject to y A >= c, y >= 0. Slacks are
t = b - A x and s = y A - c.

Two identities hold for ALL x, y (feasible or not), in every instance
including the non-commutative one, because every product keeps the
structural coefficient on the LEFT: (A x)_j sums A[j,i] x_i, (y A)_i sums
y_j A[j,i], and u.v sums u_i v_i. Each such sum is one
``rings.sum_of_products`` call, which keeps that order; in SKEW, u.v and
v.u genuinely differ.

* key equation:      s.x - g(y) = y.(-t) - f(x)
* duality equation:  g(y) - f(x) = s.x + y.t   (Tucker's duality equation)

Weak duality (g >= f on feasible pairs) follows because every summand of
s.x + y.t is a product of nonnegatives.
"""

from __future__ import annotations

from enum import Enum, unique
from functools import lru_cache
from math import lcm
from operator import attrgetter, gt, lt, mul as _times
from typing import Callable, Iterable, NamedTuple, Optional

from ._records import record, setfield
from .errors import DimensionMismatch, RingMismatch
from .linalg import RMatrix, RVector, matrix, vec_text, vector
from .reports import CheckReport, TrialSummary, run_trials
from .rings import (
    Ordering,
    RingElement,
    RingId,
    is_zero,
    neg,
    one,
    sign,
    sub,
    sum_of_products,
    to_text,
)
from .sampling import Sampler

__all__ = [
    "ProgramData",
    "ViolationKind",
    "FeasibilityVerdict",
    "primal_slack",
    "dual_slack",
    "is_primal_feasible",
    "is_dual_feasible",
    "eval_f",
    "eval_g",
    "key_equation_residual",
    "duality_equation_residual",
    "gap",
    "assert_weak_duality",
    "random_program",
    "identity_trials",
    "identity_program_trials",
    "weak_duality_trials",
]


@record
class ProgramData:
    """The tuple (A, b, c, d) over one ring; A is rows x cols."""

    ring: RingId
    A: RMatrix
    b: RVector
    c: RVector
    d: RingElement
    __slots__ = ("_form",)  # the integer form, built by ``_form_of``

    def __post_init__(self):
        for part_ring in (self.A.ring, self.b.ring, self.c.ring, self.d.ring):
            if part_ring is not self.ring:
                raise RingMismatch("program components must share one ring")
        if len(self.b) != self.A.rows:
            raise DimensionMismatch(
                f"b has length {len(self.b)}, expected {self.A.rows}"
            )
        if len(self.c) != self.A.cols:
            raise DimensionMismatch(
                f"c has length {len(self.c)}, expected {self.A.cols}"
            )
        if self.A.rows < 1 or self.A.cols < 1:
            raise DimensionMismatch("program needs at least one row and one column")

    @property
    def rows(self) -> int:
        return self.A.rows

    @property
    def cols(self) -> int:
        return self.A.cols


@unique
class ViolationKind(Enum):
    NEGATIVE_VARIABLE = "NEGATIVE_VARIABLE"
    SLACK_NEGATIVE = "SLACK_NEGATIVE"


@record
class FeasibilityVerdict:
    """Feasible, or the first violation found (indices are 0-based)."""

    feasible: bool
    violated_row: Optional[int] = None
    violation_kind: Optional[ViolationKind] = None

    def violation_text(self) -> str:
        """A violated verdict in words: ``({kind} at index {row})``."""
        return f"({self.violation_kind.value} at index {self.violated_row})"

    def as_dict(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if not self.feasible:
            out["violated_row"] = self.violated_row
            out["violation_kind"] = self.violation_kind.value
        return out


def _entries(P: ProgramData, v: RVector, n: int) -> tuple[RingElement, ...]:
    """The entries of ``v``, a point of length ``n`` over ``P``'s ring."""
    if v.ring is not P.ring:
        raise RingMismatch(f"mixed rings {P.ring.value} and {v.ring.value}")
    entries = v.entries
    if len(entries) != n:
        raise DimensionMismatch(f"point has length {len(entries)}, expected {n}")
    return entries


def primal_slack(P: ProgramData, x: RVector) -> RVector:
    """t = b - A x, exact; one kernel call per entry."""
    xs, A, b = _entries(P, x, P.cols), P.A, P.b.entries
    return RVector(
        P.ring,
        tuple(
            sum_of_products(P.ring, A.row(j), xs, b[j], negate=True) for j in range(A.rows)
        ),
    )


def dual_slack(P: ProgramData, y: RVector) -> RVector:
    """s = y A - c componentwise, exact; one kernel call per entry."""
    ys, A, c = _entries(P, y, P.rows), P.A.entries, P.c.entries
    n = P.cols
    return RVector(
        P.ring, tuple(sum_of_products(P.ring, ys, A[i::n], c[i]) for i in range(n))
    )


# records are immutable, so every feasible verdict can be this one, and the
# infeasible verdicts of one (index, kind) one shared record; the cache is
# bounded, so a verdict that has dropped out of it is built afresh
_FEASIBLE = FeasibilityVerdict(True)


@lru_cache(maxsize=256)
def _infeasible(index: int, kind: ViolationKind) -> FeasibilityVerdict:
    return FeasibilityVerdict(False, index, kind)


def _first_negative(signs: Iterable[int]) -> Optional[int]:
    for i, s in enumerate(signs):
        if s < 0:
            return i
    return None


def _verdict(
    P: ProgramData,
    point: RVector,
    n: int,
    slack_of: Callable[[ProgramData, RVector], RVector],
) -> tuple[FeasibilityVerdict, Optional[RVector]]:
    """Verdict on ``point >= 0`` and ``slack_of(P, point) >= 0``, and the slack.

    The point's ring and length ``n`` are checked first, as the feasibility
    tests do. The slack is built only for a nonnegative point (``None``
    otherwise), so a caller that needs it again reuses it instead of
    building it twice.
    """
    i = _first_negative(map(sign, _entries(P, point, n)))
    if i is not None:
        return _infeasible(i, ViolationKind.NEGATIVE_VARIABLE), None
    slack = slack_of(P, point)
    j = _first_negative(map(sign, slack))
    if j is not None:
        return _infeasible(j, ViolationKind.SLACK_NEGATIVE), slack
    return _FEASIBLE, slack


def scaled_ints(elements: Iterable[RingElement]) -> tuple[int, list[int]]:
    """``(L, [L e, ...])``: scalar ``elements`` over L, the lcm of their denominators."""
    payloads = [e.payload for e in elements]
    scale = lcm(*[p.denominator for p in payloads])
    return scale, [p.numerator * (scale // p.denominator) for p in payloads]


def _build_form(P: ProgramData) -> Optional[tuple[tuple, tuple]]:
    """``P``'s integer form ``(rows, cols)``: ``(L A_j, L b_j)`` per row and
    ``(L A^i, L c_i)`` per column in ints, L the lcm of the denominators of
    A, b and c, or ``None`` on POLY and SKEW."""
    if type(P.d.payload) is tuple:
        return None
    ints = scaled_ints(P.A.entries + P.b.entries + P.c.entries)[1]
    m, n = P.rows, P.cols
    A, b, c = tuple(ints[: m * n]), ints[m * n : m * n + m], ints[m * n + m :]
    rows = tuple((A[j * n : j * n + n], b[j]) for j in range(m))
    return rows, tuple((A[i::n], c[i]) for i in range(n))


def _form_of(P: ProgramData) -> Optional[tuple[tuple, tuple]]:
    """``P``'s integer form, built on first use and kept on ``P``."""
    try:
        return P._form
    except AttributeError:
        setfield(P, "_form", _build_form(P))
        return P._form


def _table_verdict(lines: tuple, breaks: Callable, entries: tuple) -> FeasibilityVerdict:
    """A point's verdict on its side's lines ``(L a, L k)``, with the point
    as ints v over the lcm Q of its denominators (Q = 1 on INT): the first
    v_i < 0, else the first line with ``breaks(L k Q, L a . v)``."""
    if type(entries[0].payload) is int:
        q, v = 1, [e.payload for e in entries]
    else:
        q = 1
        for e in entries:
            q = lcm(q, e.payload.denominator)
        v = [e.payload.numerator * (q // e.payload.denominator) for e in entries]
    if min(v) < 0:
        return _infeasible(_first_negative(v), ViolationKind.NEGATIVE_VARIABLE)
    for line in lines:
        if breaks(line[1] * q, sum(map(_times, line[0], v))):
            # an equal line before this one would have broken first
            return _infeasible(lines.index(line), ViolationKind.SLACK_NEGATIVE)
    return _FEASIBLE


def is_primal_feasible(P: ProgramData, x: RVector) -> FeasibilityVerdict:
    """x >= 0 and A x <= b, both non-strict.

    The first negative coordinate is reported before any row, then the
    first row whose slack ``b_j - A_j x`` is negative. On INT, RAT and
    ODDRAT row j is ``L b_j Q >= L A_j . Q x`` in ints, on the rows of the
    program's integer form, built on its first verdict and kept with it,
    so no slack, no ``Fraction`` and no element is built; on POLY and
    SKEW the verdict builds the slack once and reads its signs.
    """
    form = _form_of(P)
    if form is None:
        return _verdict(P, x, P.cols, primal_slack)[0]
    return _table_verdict(form[0], lt, _entries(P, x, P.cols))


def is_dual_feasible(P: ProgramData, y: RVector) -> FeasibilityVerdict:
    """y >= 0 and y A >= c, both non-strict.

    The first negative coordinate is reported before any column, then the
    first column whose slack ``y A^i - c_i`` is negative, each tested as the
    rows of :func:`is_primal_feasible` are (``Q y . L A^i >= L c_i Q``).
    """
    form = _form_of(P)
    if form is None:
        return _verdict(P, y, P.rows, dual_slack)[0]
    return _table_verdict(form[1], gt, _entries(P, y, P.rows))


def eval_f(P: ProgramData, x: RVector) -> RingElement:
    """Primal objective c.x - d."""
    return sum_of_products(P.ring, P.c.entries, _entries(P, x, P.cols), P.d)


def eval_g(P: ProgramData, y: RVector) -> RingElement:
    """Dual objective y.b - d."""
    return sum_of_products(P.ring, _entries(P, y, P.rows), P.b.entries, P.d)


class Side(NamedTuple):
    """One side of a program: the primal maximizes f over x, the dual
    minimizes g over y."""

    name: str
    letter: str  # of the objective
    nvars: Callable[[ProgramData], int]
    feasible: Callable[[ProgramData, RVector], FeasibilityVerdict]
    objective: Callable[[ProgramData, RVector], RingElement]
    weights: Callable[[ProgramData], list[int]]  # L c or L b, from the integer form
    better: Ordering  # how a strictly better objective value compares

    @classmethod
    def of(cls, primal: bool) -> Side:
        # read from the module globals on every call, so a function patched
        # onto this module is the one every scan and check calls
        if primal:
            return cls(
                "primal", "f", attrgetter("cols"), is_primal_feasible, eval_f,
                lambda P: [k for _, k in _form_of(P)[1]], Ordering.GT,  # L c
            )
        return cls(
            "dual", "g", attrgetter("rows"), is_dual_feasible, eval_g,
            lambda P: [k for _, k in _form_of(P)[0]], Ordering.LT,  # L b
        )


def _residuals(P: ProgramData, x: RVector, y: RVector) -> tuple[RingElement, RingElement]:
    """(key equation residual, duality equation residual), sharing s, t,
    f(x) and g(y). Each side of each identity is computed on its own, and
    the residual is their difference."""
    ring = P.ring
    s = dual_slack(P, y).entries
    t = primal_slack(P, x)
    f = eval_f(P, x)
    g = eval_g(P, y)
    xs, ys = x.entries, y.entries
    key = sub(sum_of_products(ring, s, xs, g), sum_of_products(ring, ys, tuple(map(neg, t)), f))
    duality = sub(sub(g, f), sum_of_products(ring, s + ys, xs + t.entries))
    return key, duality


def key_equation_residual(P: ProgramData, x: RVector, y: RVector) -> RingElement:
    """[s.x - g(y)] - [y.(-t) - f(x)]; exactly zero for every x, y."""
    return _residuals(P, x, y)[0]


def duality_equation_residual(P: ProgramData, x: RVector, y: RVector) -> RingElement:
    """[g(y) - f(x)] - [s.x + y.t]; exactly zero for every x, y."""
    return _residuals(P, x, y)[1]


def gap(P: ProgramData, x: RVector, y: RVector) -> RingElement:
    """g(y) - f(x), which is y.b - c.x since d cancels: two kernel calls,
    c.x and then y.b with ``minus=c.x``, each c_i left of x_i and each y_j
    left of b_j."""
    ys, xs = _entries(P, y, P.rows), _entries(P, x, P.cols)
    cx = sum_of_products(P.ring, P.c.entries, xs)
    return sum_of_products(P.ring, ys, P.b.entries, cx)


def assert_weak_duality(P: ProgramData, x: RVector, y: RVector) -> CheckReport:
    """For a feasible pair: sign(gap) >= 0 and gap = s.x + y.t, exactly.

    A failure flags an implementation bug (the inequality is a theorem for
    ordered rings); infeasible inputs make the check not applicable.
    """
    pv, t = _verdict(P, x, P.cols, primal_slack)
    dv, s = _verdict(P, y, P.rows, dual_slack)
    if not (pv.feasible and dv.feasible):
        which = []
        if not pv.feasible:
            which.append("x is not primal-feasible")
        if not dv.feasible:
            which.append("y is not dual-feasible")
        return CheckReport(
            "weak_duality",
            passed=True,
            applicable=False,
            details=("not applicable: " + "; ".join(which),),
        )
    g_val = gap(P, x, y)
    # s.x + y.t with s_i left of x_i and y_j left of t_j
    cross = sum_of_products(P.ring, s.entries + y.entries, x.entries + t.entries)
    sign_ok = sign(g_val) >= 0
    cross_ok = g_val == cross
    details = [f"gap = {to_text(g_val)}", f"s.x + y.t = {to_text(cross)}"]
    if not sign_ok:
        details.append("IMPLEMENTATION BUG: negative gap on a feasible pair")
    if not cross_ok:
        details.append("IMPLEMENTATION BUG: gap differs from s.x + y.t")
    return CheckReport("weak_duality", sign_ok and cross_ok, True, tuple(details))


# ---------------------------------------------------------------------------
# randomized trial loops (documented samplers; deterministic given the seed)


def _sample_vector(sampler: Sampler, ring: RingId, n: int, nonneg: bool = False) -> RVector:
    draw = sampler.sample_nonneg if nonneg else sampler.sample
    return vector(ring, (draw(ring) for _ in range(n)))


def random_program(
    sampler: Sampler, ring: RingId, max_rows: int = 3, max_cols: int = 3
) -> ProgramData:
    """A random program with 1..max_rows x 1..max_cols sampled entries."""
    return _random_program(sampler, ring, sampler.shape_draw(max_rows, max_cols))


def _random_program(
    sampler: Sampler, ring: RingId, shape: Callable[[], tuple[int, int]]
) -> ProgramData:
    m, n = shape()
    A = matrix(ring, ((sampler.sample(ring) for _ in range(n)) for _ in range(m)))
    b = _sample_vector(sampler, ring, m)
    c = _sample_vector(sampler, ring, n)
    return ProgramData(ring, A, b, c, sampler.sample(ring))


def _identity_trials(trials: int, sampler: Sampler, draw_program, show_points: bool) -> TrialSummary:
    def trial(sampler: Sampler) -> Optional[str]:
        P = draw_program(sampler)
        x = _sample_vector(sampler, P.ring, P.cols)
        y = _sample_vector(sampler, P.ring, P.rows)
        kr, dr = _residuals(P, x, y)
        if is_zero(kr) and is_zero(dr):
            return None
        failure = f"key={to_text(kr)} duality={to_text(dr)}"
        if show_points:
            failure = f"x={vec_text(x)} y={vec_text(y)} {failure}"
        return failure

    return run_trials("identity_residuals", trials, sampler, trial)


def identity_trials(P: ProgramData, trials: int, seed: int) -> TrialSummary:
    """Check both residuals vanish on random (x, y), feasible or not."""
    return _identity_trials(trials, Sampler(seed), lambda sampler: P, True)


def identity_program_trials(
    ring: RingId, trials: int, seed: int, max_rows: int = 3, max_cols: int = 3
) -> TrialSummary:
    """Like identity_trials but with a fresh random program per trial."""
    sampler = Sampler(seed)
    shape = sampler.shape_draw(max_rows, max_cols)
    return _identity_trials(
        trials, sampler, lambda sampler: _random_program(sampler, ring, shape), False
    )


def weak_duality_trials(
    ring: RingId, trials: int, seed: int, max_rows: int = 3, max_cols: int = 3
) -> TrialSummary:
    """sign(gap) >= 0 on pairs that are feasible by construction.

    Feasibility is forced, not searched for: draw x >= 0 and set
    b := A x + nonnegative noise, draw y >= 0 and set
    c := y A - nonnegative noise, one kernel call per entry.
    """
    sampler = Sampler(seed)
    shape = sampler.shape_draw(max_rows, max_cols)
    unit = (one(ring),)

    def trial(sampler: Sampler) -> Optional[str]:
        m, n = shape()
        A = matrix(ring, ((sampler.sample(ring) for _ in range(n)) for _ in range(m)))
        x = _sample_vector(sampler, ring, n, nonneg=True)
        y = _sample_vector(sampler, ring, m, nonneg=True)
        t_noise = _sample_vector(sampler, ring, m, nonneg=True)
        s_noise = _sample_vector(sampler, ring, n, nonneg=True)
        # b_j = A_j.x + t_j * 1 and c_i = y.A^i - s_i
        xs, entries = x.entries + unit, A.entries
        b = tuple(sum_of_products(ring, A.row(j) + (t_noise[j],), xs) for j in range(m))
        c = tuple(sum_of_products(ring, y, entries[i::n], s_noise[i]) for i in range(n))
        P = ProgramData(ring, A, RVector(ring, b), RVector(ring, c), sampler.sample(ring))
        report = assert_weak_duality(P, x, y)
        if report.applicable and report.passed:
            return None
        return "; ".join(report.details)

    return run_trials("weak_duality", trials, sampler, trial)
