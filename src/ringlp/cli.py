"""Command-line driver.

Subcommands: rings, axioms, check, identities, enumerate, edt, demo.
Exit codes: 0 success / all checks pass; 1 a checked property reports a
violation; 2 parse or usage error; 3 precondition error (for example a
demo on a ring lacking the required capability).

Reports are deterministic given argv: ``--json`` emits one JSON object
with every ring element in the canonical text grammar.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .affine import (
    assert_weak_duality,
    dual_slack,
    eval_f,
    eval_g,
    gap,
    identity_trials,
    is_dual_feasible,
    is_primal_feasible,
    primal_slack,
)
from .constructions import (
    InfeasibleSide,
    _require_no_smallest_positive,
    certificate_dict,
    dual_decreasing_sequence,
    gap_program,
    infeasible_optimal_program,
    magnitude_gap_check,
    no_central_between_check,
    primal_improving_sequence,
    strong_duality_counterexample,
)
from .enumeration import BoxSpec, classify_edt, enumerate_dual, enumerate_primal
from .errors import (
    DimensionMismatch,
    NoSmallestPositive,
    NotAPositiveNonUnit,
    ParseError,
    PreconditionViolated,
    RingMismatch,
    StepLosesFeasibility,
    UnsupportedRing,
)
from .linalg import RVector, vec_text, vector
from .progfile import load_program, serialize_program
from .reports import TrialSummary
from .rings import (
    RingId,
    all_descriptors,
    from_int,
    from_rational,
    parse_element,
    pretty,
    to_text,
    SKEW_X,
    SKEW_Y,
)
from .sampling import Sampler, verify_order_axioms

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

DEMO_STEPS = 21
DEMO_BOX = 10
DEMO_SAMPLES = 500
DEMO_SEED = 7

_DEFAULT_A_TEXT = {
    RingId.INT: "2",
    RingId.RAT: "2",
    RingId.ODDRAT: "2",
    RingId.POLY: "poly:0,1",
    RingId.SKEW: "skew:0,1=1",
}


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _check_lines(checks) -> list[str]:
    lines = []
    for c in checks:
        if not c.applicable:
            mark = "SKIP"
        else:
            mark = "ok" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name}")
        for d in c.details:
            lines.append(f"         {d}")
    return lines


def _parse_vector(ring: RingId, text: str, expect: int, flag: str) -> RVector:
    tokens = text.split()
    if len(tokens) != expect:
        raise DimensionMismatch(
            f"{flag} needs {expect} element(s), got {len(tokens)}"
        )
    return vector(ring, (parse_element(ring, tok) for tok in tokens))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_rings(args) -> int:
    rows = []
    for d in all_descriptors():
        rows.append(
            {
                "ring": d.ring.value,
                "is_commutative": d.is_commutative,
                "is_division": d.is_division,
                "smallest_positive": None
                if d.smallest_positive is None
                else to_text(d.smallest_positive),
            }
        )
    human = [f"{'ring':<8} {'commutative':<12} {'division':<9} smallest positive"]
    for r in rows:
        human.append(
            f"{r['ring']:<8} {str(r['is_commutative']).lower():<12} "
            f"{str(r['is_division']).lower():<9} "
            f"{r['smallest_positive'] if r['smallest_positive'] is not None else '-'}"
        )
    _emit(args, {"command": "rings", "rings": rows}, human)
    return EXIT_OK


def _cmd_axioms(args) -> int:
    ring = RingId(args.ring)
    report = verify_order_axioms(ring, args.samples, args.seed)
    human = [
        f"axiom suite for {ring.value}: {args.samples} sampled pairs, seed {args.seed}",
        f"  trichotomy checks: {report.trichotomy_checks}",
        f"  closure checks:    {report.closure_checks}",
        f"  violations:        {len(report.violations)}",
    ]
    for v in report.violations:
        human.append(f"  VIOLATION {v.kind}: {', '.join(v.witnesses)}")
    human.append("PASS" if report.passed else "FAIL")
    _emit(args, {"command": "axioms", "report": report.as_dict()}, human)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_check(args) -> int:
    P = load_program(args.file)
    x = _parse_vector(P.ring, args.x, P.cols, "--x")
    y = _parse_vector(P.ring, args.y, P.rows, "--y")
    pv = is_primal_feasible(P, x)
    dv = is_dual_feasible(P, y)
    t = primal_slack(P, x)
    s = dual_slack(P, y)
    f_val = eval_f(P, x)
    g_val = eval_g(P, y)
    gap_val = gap(P, x, y)
    weak = assert_weak_duality(P, x, y)
    report = {
        "command": "check",
        "file": args.file,
        "x": vec_text(x),
        "y": vec_text(y),
        "primal": pv.as_dict(),
        "dual": dv.as_dict(),
        "t": vec_text(t),
        "s": vec_text(s),
        "f": to_text(f_val),
        "g": to_text(g_val),
        "gap": to_text(gap_val),
        "weak_duality": weak.as_dict(),
    }
    human = [
        f"program {args.file} over {P.ring.value} ({P.rows}x{P.cols})",
        f"x = {vec_text(x)}  primal feasible: {pv.feasible}"
        + (
            ""
            if pv.feasible
            else f" ({pv.violation_kind.value} at index {pv.violated_row})"
        ),
        f"y = {vec_text(y)}  dual feasible:   {dv.feasible}"
        + (
            ""
            if dv.feasible
            else f" ({dv.violation_kind.value} at index {dv.violated_row})"
        ),
        f"t = b - A.x = {vec_text(t)}",
        f"s = y.A - c = {vec_text(s)}",
        f"f(x) = {pretty(f_val)}   g(y) = {pretty(g_val)}   gap = {pretty(gap_val)}",
    ]
    human.extend(_check_lines([weak]))
    _emit(args, report, human)
    if weak.applicable and not weak.passed:
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_identities(args) -> int:
    P = load_program(args.file)
    summary = identity_trials(P, args.trials, args.seed)
    report = {
        "command": "identities",
        "file": args.file,
        "trials": args.trials,
        "seed": args.seed,
        "report": summary.as_dict(),
    }
    human = [
        f"identity residuals on {args.file}: {args.trials} random (x, y) pairs, "
        f"seed {args.seed}",
        f"  failures: {summary.failures}",
        "PASS" if summary.passed else f"FAIL: {summary.first_failure}",
    ]
    _emit(args, report, human)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


def _status_lines(label: str, status) -> list[str]:
    line = f"{label}: {status.kind.value} ({status.scope.value})"
    if status.witness is not None:
        line += f" witness {status.as_dict()['witness']} value {status.as_dict()['value']}"
    out = [line]
    if status.note:
        out.append(f"  note: {status.note}")
    return out


def _cmd_enumerate(args) -> int:
    P = load_program(args.file)
    box = BoxSpec(args.box, args.den)
    report: dict = {
        "command": "enumerate",
        "file": args.file,
        "box": args.box,
        "den": args.den,
    }
    human: list[str] = [f"program {args.file} over {P.ring.value}, box bound {args.box}"]
    for side, scan in (("primal", enumerate_primal), ("dual", enumerate_dual)):
        if args.side in (None, side):
            status = scan(P, box, workers=args.workers)
            report[side] = status.as_dict()
            human.extend(_status_lines(side, status))
    _emit(args, report, human)
    return EXIT_OK


def _cmd_edt(args) -> int:
    P = load_program(args.file)
    box = BoxSpec(args.box, args.den)
    edt = classify_edt(P, box, workers=args.workers)
    report = {
        "command": "edt",
        "file": args.file,
        "box": args.box,
        "den": args.den,
        "report": edt.as_dict(),
    }
    human = [f"joint classification of {args.file}, box bound {args.box}"]
    human.extend(_status_lines("primal", edt.primal))
    human.extend(_status_lines("dual", edt.dual))
    human.append(edt.details)
    _emit(args, report, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# demos (fixed witnesses: a per ring, z = 1/3, p = 1/2, 21 steps, box 10)


def _bundle_output(args, name: str, exhibits: str, bundle) -> int:
    cert = certificate_dict(bundle)
    report = {"command": "demo", "name": name, "exhibits": exhibits, "certificate": cert}
    human = [
        f"demo {name}",
        f"exhibits: {exhibits}",
        "",
        serialize_program(bundle.program).rstrip(),
        "",
        f"claim: {bundle.claim}",
    ]
    for note in bundle.notes:
        human.append(f"note: {note}")
    if bundle.gap_value is not None:
        human.append(f"gap = {pretty(bundle.gap_value)}")
    if bundle.sequence is not None:
        values = [pretty(v) for v in bundle.sequence.objective_values]
        shown = values if len(values) <= 6 else values[:4] + ["..."] + values[-2:]
        human.append(f"objective values ({len(values)} points): {', '.join(shown)}")
    human.extend(_check_lines(bundle.checks))
    _emit(args, report, human)
    ok = all(c.passed for c in bundle.checks if c.applicable)
    return EXIT_OK if ok else EXIT_VIOLATION


def _fraction_below_one(ring: RingId, den: int, witness: str):
    """1/den in a ring that has elements strictly between 0 and 1."""
    _require_no_smallest_positive(ring, witness)
    return from_rational(ring, 1, den)


# name -> (default ring, what it exhibits, builder of its bundle from (ring, a));
# center-betweenness reports sampled checks instead of a bundle
_DEMOS = {
    "strong-duality-gap": (
        RingId.INT,
        "no strong duality over a ring whose smallest positive element is 1",
        lambda ring, a: strong_duality_counterexample(ring, a, BoxSpec(DEMO_BOX)),
    ),
    "edt-infeasible-optimal": (
        RingId.INT,
        "existence-duality failure: infeasible primal with an optimal dual",
        lambda ring, a: infeasible_optimal_program(
            ring, a, InfeasibleSide.PRIMAL_INFEASIBLE
        ),
    ),
    "edt-infeasible-optimal-transposed": (
        RingId.INT,
        "existence-duality failure: infeasible dual with an optimal primal",
        lambda ring, a: infeasible_optimal_program(
            ring, a, InfeasibleSide.DUAL_INFEASIBLE
        ),
    ),
    "primal-no-optimum": (
        RingId.ODDRAT,
        "a feasible bounded primal that attains no optimum",
        lambda ring, a: primal_improving_sequence(
            ring, a, _fraction_below_one(ring, 3, "z with 0 < a*z < 1"), DEMO_STEPS
        ),
    ),
    "dual-no-optimum": (
        RingId.POLY,
        "a feasible bounded dual that attains no optimum",
        lambda ring, a: dual_decreasing_sequence(
            ring,
            a,
            _fraction_below_one(
                ring, 3 if ring is RingId.ODDRAT else 2, "p with 0 < p < 1"
            ),
            DEMO_STEPS,
        ),
    ),
    "noncommutative-gap": (
        RingId.SKEW,
        "a strict duality gap on every feasible pair, non-commutative instance",
        lambda ring, a: gap_program(ring, a),
    ),
    "center-betweenness": (
        RingId.SKEW,
        "no central element lies strictly between a*b and b*a",
        None,
    ),
}


def _cmd_demo(args) -> int:
    name = args.name
    default_ring, exhibits, build = _DEMOS[name]
    ring = RingId(args.ring) if args.ring else default_ring
    a = parse_element(ring, args.a if args.a else _DEFAULT_A_TEXT[ring])
    if build is not None:
        return _bundle_output(args, name, exhibits, build(ring, a))
    # center-betweenness
    b = SKEW_Y if ring is RingId.SKEW else from_int(ring, 3)
    if ring is RingId.SKEW and args.a is None:
        a = SKEW_X
    sampler = Sampler(DEMO_SEED)
    failures = 0
    first: Optional[str] = None
    for _ in range(DEMO_SAMPLES):
        z = sampler.sample_central(ring)
        result = no_central_between_check(a, b, z)
        if not result.passed:
            failures += 1
            if first is None:
                first = "; ".join(result.details)
    summary = TrialSummary("no_central_between", DEMO_SAMPLES, failures, first)
    magnitude = magnitude_gap_check(a, b)
    report = {
        "command": "demo",
        "name": name,
        "exhibits": exhibits,
        "ring": ring.value,
        "a": to_text(a),
        "b": to_text(b),
        "seed": DEMO_SEED,
        "betweenness": summary.as_dict(),
        "magnitude_gap": magnitude.as_dict(),
    }
    human = [
        f"demo {name}",
        f"exhibits: {exhibits}",
        f"ring {ring.value}, a = {pretty(a)}, b = {pretty(b)}, "
        f"{DEMO_SAMPLES} sampled central elements (seed {DEMO_SEED})",
        f"  betweenness violations: {failures}",
    ]
    human.extend(_check_lines([magnitude]))
    human.append("PASS" if summary.passed else "FAIL")
    _emit(args, report, human)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit one machine-readable JSON report"
    )
    parser = argparse.ArgumentParser(
        prog="ringlp",
        description=(
            "Exact primal-dual affine programs over ordered rings: "
            "identity checks, duality-gap counterexamples, box enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rings", parents=[shared], help="ring capability table")
    p.set_defaults(func=_cmd_rings)

    p = sub.add_parser("axioms", parents=[shared], help="seeded ordered-ring axiom suite")
    p.add_argument("--ring", required=True, choices=[r.value for r in RingId])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser(
        "check", parents=[shared], help="feasibility, slacks and gap at given (x, y)"
    )
    p.add_argument("file")
    p.add_argument("--x", required=True, help="whitespace-separated element literals")
    p.add_argument("--y", required=True, help="whitespace-separated element literals")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "identities",
        parents=[shared],
        help="key and duality equation residuals on random points",
    )
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser(
        "enumerate", parents=[shared], help="exhaustive in-box optimization"
    )
    p.add_argument("file")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--den", type=int, default=None)
    p.add_argument("--side", choices=["primal", "dual"], default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "edt", parents=[shared], help="joint classification against the classical cases"
    )
    p.add_argument("file")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--den", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_edt)

    p = sub.add_parser("demo", parents=[shared], help="one construction per claim")
    p.add_argument("name", choices=list(_DEMOS))
    p.add_argument("--ring", choices=[r.value for r in RingId], default=None)
    p.add_argument("--a", default=None, help="element literal for the non-unit a")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionMismatch, RingMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        NotAPositiveNonUnit,
        NoSmallestPositive,
        PreconditionViolated,
        StepLosesFeasibility,
        UnsupportedRing,
    ) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
