"""The ``scan`` workload: exhaustive box scans over int, rat and oddrat.

A pass holds the same mix of jobs for every seed; the seed changes only the
programs, the box and denominator draws and the order. Per pass:

* the two ROADMAP baseline jobs (box-200 dual scan of ``edt_fail``,
  ``classify_edt(edt_fail_rat, box 10, den 6)``);
* each of the six enumerable fixtures under each of the four job kinds;
* seeded 1-2 x 1-2 programs with small integer entries: for every ring and
  job kind, LADDER_STEPS sizes spread evenly in log scale from 10^2 to
  10^3.5 grid points per side, plus one 10^4 job per ring and one 10^5 job
  over int.

Outputs are checked against an independent scan written here with plain
integers: a grid value k/L is kept as its numerator k over the common
denominator L, and the grid is walked in reverse so that the
lexicographic tie-break is decided by comparison, not by scan order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import ringlp

from jobs import Job, Workload, expect_equal, frac_text, library_call, program_text, read_fixture, rng_for

RINGS = ("int", "rat", "oddrat")
KINDS = ("enumerate_primal", "enumerate_dual", "classify_edt", "certify_optimal_pair")
ENUMERABLE_FIXTURES = (
    "ce_sd.prog",
    "ce_sd_rat.prog",
    "edt_fail.prog",
    "edt_fail_rat.prog",
    "edt_fail_transposed.prog",
    "gap_oddrat.prog",
)
FIXTURE_DEN = {"int": None, "rat": 2, "oddrat": 3}
DENS = {"int": (None,), "rat": (1, 2, 3, 4), "oddrat": (1, 3, 5)}
# Every ring x kind pair gets LADDER_STEPS jobs whose sizes are spread evenly
# over log10 points per side in LADDER_SPAN, each pair offset a little so the
# sizes of all pairs interleave; shapes (rows, cols) cycle through SHAPES.
LADDER_SPAN = (2.0, 3.5)
LADDER_STEPS = 14
SHAPES = ((1, 1), (2, 2), (1, 2), (2, 1))
# ... and these few large jobs complete the range up to 10^5.
LARGE_JOBS = (
    ("int", "classify_edt", (4.0, 2, 2)),
    ("rat", "enumerate_dual", (4.0, 2, 1)),
    ("oddrat", "certify_optimal_pair", (4.0, 1, 2)),
    ("int", "enumerate_primal", (5.0, 1, 2)),
)
# Generated programs are redrawn until a coarse sample of each scanned side
# is between these shares feasible. The cost of a grid point depends on
# whether it is feasible, so this keeps the work per point alike across seeds.
FEASIBLE_SHARE = (0.3, 0.7)
# Every other certify job takes each side's in-box optimum as its candidate,
# so that the certificate is also seen to pass. Finding the optimum is set-up
# work, so generated programs get it only up to this size (log10 points).
OPTIMUM_MAX_LOG = 2.75
COARSE = 5
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Plain:
    """A program as plain Fractions, read without ringlp."""

    ring: str
    A: tuple
    b: tuple
    c: tuple
    d: Fraction

    @property
    def rows(self) -> int:
        return len(self.b)

    @property
    def cols(self) -> int:
        return len(self.c)


def read_plain(text: str) -> Plain:
    """Parse an int/rat/oddrat program file (the format of ``fixtures/``)."""
    tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
    pos = {word: i for i, word in enumerate(tokens) if word in ("ring", "rows", "cols", "A", "b", "c", "d")}
    rows, cols = int(tokens[pos["rows"] + 1]), int(tokens[pos["cols"] + 1])

    def values(key, count):
        return [Fraction(t) for t in tokens[pos[key] + 1 : pos[key] + 1 + count]]

    flat = values("A", rows * cols)
    A = tuple(tuple(flat[j * cols : (j + 1) * cols]) for j in range(rows))
    return Plain(tokens[pos["ring"] + 1], A, tuple(values("b", rows)), tuple(values("c", cols)), values("d", 1)[0])


# ---------------------------------------------------------------------------
# the grid, counted and walked independently of ringlp


def allowed_dens(ring: str, den) -> list[int]:
    d_bound = den or 1
    return [d for d in range(1, d_bound + 1) if ring != "oddrat" or d % 2 == 1]


def grid_size(ring: str, box: int, den) -> int:
    """Number of grid values per variable.

    The grid is every numerator 0..box*D over every allowed denominator
    d <= D. A reduced p/q is in it exactly when p <= box*D, so the count is
    1 + sum over allowed q of #{1 <= p <= box*D : gcd(p, q) = 1}.
    """
    if ring == "int":
        return box + 1
    top = box * (den or 1)
    total = 1
    for q in allowed_dens(ring, den):
        phi = sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)
        total += (top // q) * phi + sum(1 for p in range(1, top % q + 1) if math.gcd(p, q) == 1)
    return total


def grid_numerators(ring: str, box: int, den) -> tuple[int, list[int]]:
    """(L, sorted k) such that the grid values are exactly k / L."""
    if ring == "int":
        return 1, list(range(box + 1))
    dens = allowed_dens(ring, den)
    L = math.lcm(*dens)
    top = box * (den or 1)
    return L, sorted({num * (L // d) for d in dens for num in range(top + 1)})


def box_for(ring: str, den, nvars: int, log_points: float) -> int:
    """Smallest box whose grid has at least 10**log_points points."""
    need = 10 ** (log_points / nvars)
    if ring == "int":
        return max(1, math.ceil(need) - 1)
    per_unit = (grid_size(ring, 10, den) - 1) / 10
    box = max(1, int((need - 1) / per_unit))
    while box > 1 and grid_size(ring, box - 1, den) >= need:
        box -= 1
    while grid_size(ring, box, den) < need:
        box += 1
    return box


def oracle_side(P: Plain, box: int, den, primal: bool):
    """(kind, witness texts, value text) of one side's in-box optimum."""
    L, ks = grid_numerators(P.ring, box, den)
    m, n = P.rows, P.cols
    entries = [e for row in P.A for e in row] + list(P.b) + list(P.c)
    if any(e.denominator != 1 for e in entries):
        raise ValueError("the independent scan needs integer program entries")
    A = [[int(e) for e in row] for row in P.A]
    b, c = [int(e) for e in P.b], [int(e) for e in P.c]
    best = None
    best_point = None
    for point in itertools.product(reversed(ks), repeat=n if primal else m):
        if primal:
            if any(sum(A[j][i] * point[i] for i in range(n)) > b[j] * L for j in range(m)):
                continue
            key = sum(c[i] * point[i] for i in range(n))
            better = best is None or key > best
        else:
            if any(sum(point[j] * A[j][i] for j in range(m)) < c[i] * L for i in range(n)):
                continue
            key = sum(point[j] * b[j] for j in range(m))
            better = best is None or key < best
        if better or (key == best and point < best_point):
            best, best_point = key, point
    if best is None:
        return "INFEASIBLE", None, None
    value = Fraction(best, L) - P.d
    kind = "FEASIBLE_UNBOUNDED_IN_BOX" if ks[-1] in best_point else "OPTIMAL"
    return kind, [frac_text(Fraction(k, L)) for k in best_point], frac_text(value)


def _check_status(problems: list, label: str, status: dict, expected) -> None:
    kind, witness, value = expected
    expect_equal(problems, f"{label} kind", status["kind"], kind)
    expect_equal(problems, f"{label} witness", status["witness"], witness)
    expect_equal(problems, f"{label} value", status["value"], value)
    expect_equal(problems, f"{label} scope", status["scope"], "BOX_LIMITED")


def _first_violation(P: Plain, point, primal: bool):
    """Index of the first constraint a non-negative point breaks, or None."""
    if primal:
        rows = (sum(P.A[j][i] * point[i] for i in range(P.cols)) > P.b[j] for j in range(P.rows))
    else:
        rows = (sum(point[j] * P.A[j][i] for j in range(P.rows)) < P.c[i] for i in range(P.cols))
    return next((index for index, broken in enumerate(rows) if broken), None)


def coarse_feasible_share(P: Plain, top: int, primal: bool) -> float:
    """Share of a COARSE^nvars lattice spanning [0, top] that is feasible.

    Lattice value i * top / (COARSE - 1) is kept as i, with the right-hand
    side scaled by (COARSE - 1) / top, so the test stays in integers.
    """
    scale = COARSE - 1
    m, n = P.rows, P.cols
    A = P.A
    hits = 0
    if primal:
        limits = [P.b[j] * scale for j in range(m)]
        points = list(itertools.product(range(COARSE), repeat=n))
        for x in points:
            hits += all(sum(A[j][i] * x[i] for i in range(n)) * top <= limits[j] for j in range(m))
    else:
        limits = [P.c[i] * scale for i in range(n)]
        points = list(itertools.product(range(COARSE), repeat=m))
        for y in points:
            hits += all(sum(y[j] * A[j][i] for j in range(m)) * top >= limits[i] for i in range(n))
    return hits / len(points)


def _objective(P: Plain, point, primal: bool) -> Fraction:
    weights = P.c if primal else P.b
    return sum(w * v for w, v in zip(weights, point)) - P.d


def certify_expected(P: Plain, sides, x, y) -> tuple[bool, list[str]]:
    """The verdict and details ``certify_optimal_pair`` gives for x and y.

    ``sides`` is the independent scan of (primal, dual). The candidates are
    non-negative grid points, so only a constraint can be broken.
    """
    ok = True
    details = []
    for point, side, primal in ((x, sides[0], True), (y, sides[1], False)):
        name, letter, beats = ("primal", "f", ">") if primal else ("dual", "g", "<")
        row = _first_violation(P, point, primal)
        if row is not None:
            ok = False
            details.append(f"{name} candidate infeasible (SLACK_NEGATIVE at index {row})")
            continue
        mine = _objective(P, point, primal)
        _, witness, value = side
        if value is not None and (mine < Fraction(value) if primal else mine > Fraction(value)):
            ok = False
            details.append(
                f"in-box point {witness} beats the {name} candidate: "
                f"{letter} = {value} {beats} {frac_text(mine)}"
            )
        else:
            details.append(f"{name} candidate unbeaten in box, {letter} = {frac_text(mine)}")
    details.append(f"gap = {frac_text(_objective(P, y, False) - _objective(P, x, True))}")
    return ok, details


def check_output(kind: str, P: Plain, box: int, den, result, candidates=None) -> list:
    problems: list = []
    if kind in ("enumerate_primal", "enumerate_dual"):
        primal = kind == "enumerate_primal"
        _check_status(problems, kind, result.as_dict(), oracle_side(P, box, den, primal))
        return problems
    primal = oracle_side(P, box, den, True)
    dual = oracle_side(P, box, den, False)
    if kind == "classify_edt":
        report = result.as_dict()
        _check_status(problems, "primal", report["primal"], primal)
        _check_status(problems, "dual", report["dual"], dual)
        kinds = (primal[0], dual[0])
        case = {
            ("INFEASIBLE", "INFEASIBLE"): 1,
            ("INFEASIBLE", "FEASIBLE_UNBOUNDED_IN_BOX"): 2,
            ("FEASIBLE_UNBOUNDED_IN_BOX", "INFEASIBLE"): 3,
            ("OPTIMAL", "OPTIMAL"): 4,
        }.get(kinds)
        expect_equal(problems, "case", report["case"], case)
        expect_equal(problems, "violation", report["violation"], case is None)
        gap = frac_text(Fraction(dual[2]) - Fraction(primal[2])) if case == 4 else None
        expect_equal(problems, "gap", report["gap"], gap)
        return problems
    ok, details = certify_expected(P, (primal, dual), *candidates)
    report = result.as_dict()
    expect_equal(problems, "certify passed", report["passed"], ok)
    expect_equal(problems, "certify details", report["details"], details)
    return problems


# ---------------------------------------------------------------------------
# the job list


def ladder(steps: int) -> list:
    """(ring, kind, (log10 points, rows, cols)) for the generated programs."""
    pairs = [(ring, kind) for ring in RINGS for kind in KINDS]
    lo, hi = LADDER_SPAN
    out = []
    for p, (ring, kind) in enumerate(pairs):
        for i in range(steps):
            size = lo + (hi - lo) * (i + (p + 0.5) / len(pairs)) / steps
            out.append((ring, kind, (size, *SHAPES[(p + i) % len(SHAPES)])))
    return out


class ScanWorkload(Workload):
    name = "scan"

    def __init__(self, seed: int, tiny: bool = False):
        self.fixtures = {name: read_fixture(name) for name in ENUMERABLE_FIXTURES}
        super().__init__(seed, tiny)

    def build_pass(self, index: int) -> list[Job]:
        rng = rng_for(self.name, self.seed, index)
        jobs: list[Job] = []
        programs = {name: (ringlp.parse_program(t), read_plain(t)) for name, t in self.fixtures.items()}
        if not self.tiny:
            P, plain = programs["edt_fail.prog"]
            jobs.append(self._job(rng, "baseline edt_fail", "enumerate_dual", P, plain, 200, None))
            P, plain = programs["edt_fail_rat.prog"]
            jobs.append(self._job(rng, "baseline edt_fail_rat", "classify_edt", P, plain, 10, 6))
        for number, (name, (P, plain)) in enumerate(programs.items()):
            for kind in KINDS:
                jobs.append(self._job(rng, name, kind, P, plain, 10, FIXTURE_DEN[plain.ring], number % 2 == 0))
        sized = ladder(1 if self.tiny else LADDER_STEPS)
        if not self.tiny:
            sized += LARGE_JOBS
        for slot, (ring, kind, (size, rows, cols)) in enumerate(sized):
            den = DENS[ring][slot % len(DENS[ring])]
            sides = {"enumerate_primal": (True,), "enumerate_dual": (False,)}.get(kind, (True, False))
            nvars = max(cols if primal else rows for primal in sides)
            box = box_for(ring, den, nvars, size)
            text = self._random_program(rng, ring, rows, cols, box * (den or 1), sides)
            P, plain = ringlp.parse_program(text), read_plain(text)
            jobs.append(self._job(rng, f"{ring} 1e{size:.2f}", kind, P, plain, box, den, slot % 2 == 0 and size <= OPTIMUM_MAX_LOG))
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _random_program(rng, ring: str, rows: int, cols: int, top: int, sides) -> str:
        """Small integer A; each constraint passes through a random point inside the box."""
        lo, hi = FEASIBLE_SHARE
        for _ in range(MAX_DRAWS):
            A = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            x = [rng.uniform(0.2, 0.8) * top for _ in range(cols)]
            y = [rng.uniform(0.2, 0.8) * top for _ in range(rows)]
            b = [round(sum(A[j][i] * x[i] for i in range(cols))) for j in range(rows)]
            c = [round(sum(y[j] * A[j][i] for j in range(rows))) for i in range(cols)]
            P = Plain(ring, A, b, c, Fraction(0))
            if all(lo <= coarse_feasible_share(P, top, primal) <= hi for primal in sides):
                break
        rendered = [[str(e) for e in row] for row in A]
        return program_text(ring, rendered, map(str, b), map(str, c), str(rng.randint(-2, 2)))

    @staticmethod
    def _job(rng, label: str, kind: str, P, plain: Plain, box: int, den, optimum: bool = False) -> Job:
        """One job. A certify job's candidates are random grid points, or with
        ``optimum`` each side's in-box optimum where the side has one."""
        spec = ringlp.BoxSpec(box, den)
        per_var = grid_size(plain.ring, box, den)
        primal_points, dual_points = per_var**plain.cols, per_var**plain.rows
        items = {"enumerate_primal": primal_points, "enumerate_dual": dual_points}.get(
            kind, primal_points + dual_points
        )
        label = f"{label} {kind} box={box} den={den}"
        if kind != "certify_optimal_pair":
            call = library_call(kind, P, spec)
            return Job(label, call, items, lambda r: check_output(kind, plain, box, den, r))
        dens = allowed_dens(plain.ring, den)

        def grid_point(nvars):
            return [Fraction(rng.randint(0, box * (den or 1)), rng.choice(dens)) for _ in range(nvars)]

        x, y = grid_point(plain.cols), grid_point(plain.rows)
        if optimum:
            best = [oracle_side(plain, box, den, primal)[1] for primal in (True, False)]
            x, y = [[Fraction(v) for v in w] if w else point for w, point in zip(best, (x, y))]
        ring = P.ring

        def vec(point):
            return ringlp.vector(ring, [ringlp.from_rational(ring, q) for q in point])

        call = library_call(kind, P, spec, x_star=vec(x), y_star=vec(y))
        return Job(label, call, items, lambda r: check_output(kind, plain, box, den, r, (x, y)))
