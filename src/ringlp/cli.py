"""Command-line driver.

Subcommands: rings, axioms, check, identities, enumerate, edt, demo.
Exit codes: 0 success / all checks pass; 1 a checked property reports a
violation; 2 an unknown or missing option, a parse error, a dimension or
ring mismatch, an unreadable file or a bad argument value; 3 any
``errors.PreconditionError``, for example a demo on a ring lacking the
required capability.

Reports are deterministic given argv: ``--json`` emits one JSON object
with every ring element in the canonical text grammar.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    certificate_dict,
    dual_decreasing_sequence,
    gap_program,
    infeasible_optimal_program,
    magnitude_gap_check,
    no_central_between_trials,
    primal_improving_sequence,
    strong_duality_counterexample,
)
from .enumeration import BoxSpec, classify_edt, enumerate_dual, enumerate_primal
from .errors import DimensionMismatch, ParseError, PreconditionError, RingLpError
from .linalg import RVector, vec_text, vector
from .progfile import load_program, serialize_program
from .rings import (
    RingId,
    all_descriptors,
    descriptor,
    from_int,
    parse_element,
    pretty,
    to_text,
    try_invert,
    SKEW_Y,
)
from .sampling import verify_order_axioms

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

DEMO_SAMPLES = 500
DEMO_SEED = 7

_DEFAULT_A_TEXT = {
    RingId.INT: "2",
    RingId.RAT: "2",
    RingId.ODDRAT: "2",
    RingId.POLY: "poly:0,1",
    RingId.SKEW: "skew:0,1=1",
}

# what a handler returns: its report (main adds the "command" key), its
# human-readable lines, and whether every checked property held
_Outcome = tuple[dict, list[str], bool]


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


def _cmd_rings(args) -> _Outcome:
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
    return {"rings": rows}, human, True


def _cmd_axioms(args) -> _Outcome:
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
    return {"report": report.as_dict()}, human, report.passed


def _feasible_text(verdict) -> str:
    if verdict.feasible:
        return "True"
    return f"False {verdict.violation_text()}"


def _cmd_check(args) -> _Outcome:
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
        f"x = {vec_text(x)}  primal feasible: {_feasible_text(pv)}",
        f"y = {vec_text(y)}  dual feasible:   {_feasible_text(dv)}",
        f"t = b - A.x = {vec_text(t)}",
        f"s = y.A - c = {vec_text(s)}",
        f"f(x) = {pretty(f_val)}   g(y) = {pretty(g_val)}   gap = {pretty(gap_val)}",
    ]
    human.extend(_check_lines([weak]))
    return report, human, weak.passed or not weak.applicable


def _cmd_identities(args) -> _Outcome:
    P = load_program(args.file)
    summary = identity_trials(P, args.trials, args.seed)
    report = {
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
    return report, human, summary.passed


def _status_lines(label: str, status) -> list[str]:
    line = f"{label}: {status.kind.value} ({status.scope.value})"
    if status.witness is not None:
        shown = status.as_dict()
        line += f" witness {shown['witness']} value {shown['value']}"
    out = [line]
    if status.note:
        out.append(f"  note: {status.note}")
    return out


def _scan_input(args) -> tuple:
    """The program of ``file``, the scan box of ``--box``/``--den`` and the
    report fields that echo them. ``--den`` above 1 is refused on a ring
    whose grid is the integers 0..N, where a report echoing it would claim
    a bound that was never used."""
    P = load_program(args.file)
    if args.den is not None and args.den > 1 and descriptor(P.ring).smallest_positive is not None:
        raise ValueError(
            f"--den {args.den} has no effect on {P.ring.value}: its grid is the integers 0..N"
        )
    return P, BoxSpec(args.box, args.den), {"file": args.file, "box": args.box, "den": args.den}


def _cmd_enumerate(args) -> _Outcome:
    P, box, report = _scan_input(args)
    human: list[str] = [f"program {args.file} over {P.ring.value}, box bound {args.box}"]
    for side, scan in (("primal", enumerate_primal), ("dual", enumerate_dual)):
        if args.side in (None, side):
            status = scan(P, box)
            report[side] = status.as_dict()
            human.extend(_status_lines(side, status))
    return report, human, True


def _cmd_edt(args) -> _Outcome:
    P, box, report = _scan_input(args)
    edt = classify_edt(P, box)
    report["report"] = edt.as_dict()
    human = [f"joint classification of {args.file}, box bound {args.box}"]
    human.extend(_status_lines("primal", edt.primal))
    human.extend(_status_lines("dual", edt.dual))
    human.append(edt.details)
    return report, human, True


# ---------------------------------------------------------------------------
# demos (fixed witnesses: a per ring, z = 1/3, p = 1/2 where 2 is a unit and
# 1/3 otherwise, b = 3 or y; the constructions' default 21 steps and box 10).
# A demo's outcome holds what follows its name and what it exhibits.


def _bundle_output(bundle) -> _Outcome:
    human = [
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
    ok = all(c.passed for c in bundle.checks if c.applicable)
    return {"certificate": certificate_dict(bundle)}, human, ok


def _center_betweenness(ring: RingId, a) -> _Outcome:
    b = from_int(ring, 3) if descriptor(ring).is_commutative else SKEW_Y
    summary = no_central_between_trials(a, b, DEMO_SAMPLES, DEMO_SEED)
    magnitude = magnitude_gap_check(a, b)
    report = {
        "ring": ring.value,
        "a": to_text(a),
        "b": to_text(b),
        "seed": DEMO_SEED,
        "betweenness": summary.as_dict(),
        "magnitude_gap": magnitude.as_dict(),
    }
    human = [
        f"ring {ring.value}, a = {pretty(a)}, b = {pretty(b)}, "
        f"{DEMO_SAMPLES} sampled central elements (seed {DEMO_SEED})",
        f"  betweenness violations: {summary.failures}",
    ]
    human.extend(_check_lines([magnitude]))
    human.append("PASS" if summary.passed else "FAIL")
    return report, human, summary.passed


# name -> (default ring, what it exhibits, its outcome from (ring, a)). The
# step witnesses z and p are inverses of small integers; on a ring where
# none is a unit (int) they are None, and the construction refuses that
# ring, which has a smallest positive element, before it reads them.
_DEMOS = {
    "strong-duality-gap": (
        RingId.INT,
        "no strong duality over a ring whose smallest positive element is 1",
        lambda ring, a: _bundle_output(strong_duality_counterexample(ring, a)),
    ),
    "edt-infeasible-optimal": (
        RingId.INT,
        "existence-duality failure: infeasible primal with an optimal dual",
        lambda ring, a: _bundle_output(
            infeasible_optimal_program(ring, a, InfeasibleSide.PRIMAL_INFEASIBLE)
        ),
    ),
    "edt-infeasible-optimal-transposed": (
        RingId.INT,
        "existence-duality failure: infeasible dual with an optimal primal",
        lambda ring, a: _bundle_output(
            infeasible_optimal_program(ring, a, InfeasibleSide.DUAL_INFEASIBLE)
        ),
    ),
    "primal-no-optimum": (
        RingId.ODDRAT,
        "a feasible bounded primal that attains no optimum",
        lambda ring, a: _bundle_output(
            primal_improving_sequence(ring, a, try_invert(from_int(ring, 3)))
        ),
    ),
    "dual-no-optimum": (
        RingId.POLY,
        "a feasible bounded dual that attains no optimum",
        lambda ring, a: _bundle_output(
            dual_decreasing_sequence(
                ring, a, try_invert(from_int(ring, 2)) or try_invert(from_int(ring, 3))
            )
        ),
    ),
    "noncommutative-gap": (
        RingId.SKEW,
        "a strict duality gap on every feasible pair, non-commutative instance",
        lambda ring, a: _bundle_output(gap_program(ring, a)),
    ),
    "center-betweenness": (
        RingId.SKEW,
        "no central element lies strictly between a*b and b*a",
        _center_betweenness,
    ),
}


def _cmd_demo(args) -> _Outcome:
    default_ring, exhibits, show = _DEMOS[args.name]
    ring = RingId(args.ring) if args.ring else default_ring
    a = parse_element(ring, args.a if args.a else _DEFAULT_A_TEXT[ring])
    report, human, ok = show(ring, a)
    report = {"name": args.name, "exhibits": exhibits, **report}
    return report, [f"demo {args.name}", f"exhibits: {exhibits}", *human], ok


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit one machine-readable JSON report"
    )
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("file")
    scan.add_argument("--box", type=int, required=True)
    scan.add_argument("--den", type=int, default=None)
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
        "enumerate", parents=[shared, scan], help="exhaustive in-box optimization"
    )
    p.add_argument("--side", choices=["primal", "dual"], default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "edt", parents=[shared, scan], help="joint classification against the classical cases"
    )
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
        report, human, ok = args.func(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RingLpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps({"command": args.command, **report}, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)
    return EXIT_OK if ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
