"""Command-line driver.

Subcommands: rings, axioms, check, identities, enumerate, edt, demo.
Exit codes: 0 success / all checks pass; 1 a checked property reports a
violation; 2 an unknown or missing option, a parse error, a dimension or
ring mismatch, an unreadable file or a bad argument value; 3 any
``errors.PreconditionError``, for example a demo on a ring lacking the
required capability.

Each handler returns one report and whether every checked property held;
``main`` prints that report, deterministic given argv, with every ring
element in the canonical text grammar: with ``--json`` as one JSON
object, otherwise as indented ``key: value`` lines with the same fields.
When the reader of stdout has gone, it ends quietly with the report's
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
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
    BundleKind,
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
from .progfile import load_program
from .rings import (
    RingId,
    all_descriptors,
    descriptor,
    from_int,
    parse_element,
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

# what a handler returns: its report (main adds the "command" key) and
# whether every checked property held
_Outcome = tuple[dict, bool]


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
    rows = [
        {
            "ring": d.ring.value,
            "is_commutative": d.is_commutative,
            "is_division": d.is_division,
            "smallest_positive": None if d.smallest_positive is None else to_text(d.smallest_positive),
        }
        for d in all_descriptors()
    ]
    return {"rings": rows}, True


def _cmd_axioms(args) -> _Outcome:
    ring = RingId(args.ring)
    report = verify_order_axioms(ring, args.samples, args.seed)
    return {"report": report.as_dict()}, report.passed


def _cmd_check(args) -> _Outcome:
    P = load_program(args.file)
    x = _parse_vector(P.ring, args.x, P.cols, "--x")
    y = _parse_vector(P.ring, args.y, P.rows, "--y")
    weak = assert_weak_duality(P, x, y)
    report = {
        "file": args.file,
        "x": vec_text(x),
        "y": vec_text(y),
        "primal": is_primal_feasible(P, x).as_dict(),
        "dual": is_dual_feasible(P, y).as_dict(),
        "t": vec_text(primal_slack(P, x)),
        "s": vec_text(dual_slack(P, y)),
        "f": to_text(eval_f(P, x)),
        "g": to_text(eval_g(P, y)),
        "gap": to_text(gap(P, x, y)),
        "weak_duality": weak.as_dict(),
    }
    return report, weak.passed or not weak.applicable


def _cmd_identities(args) -> _Outcome:
    P = load_program(args.file)
    summary = identity_trials(P, args.trials, args.seed)
    report = {
        "file": args.file,
        "trials": args.trials,
        "seed": args.seed,
        "report": summary.as_dict(),
    }
    return report, summary.passed


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
    for side, scan in (("primal", enumerate_primal), ("dual", enumerate_dual)):
        if args.side in (None, side):
            report[side] = scan(P, box).as_dict()
    return report, True


def _cmd_edt(args) -> _Outcome:
    P, box, report = _scan_input(args)
    report["report"] = classify_edt(P, box).as_dict()
    return report, True


# ---------------------------------------------------------------------------
# demos (fixed witnesses: a = default_a, z = 1/3, p = 1/2 where 2 is a unit and
# 1/3 otherwise, b = 3 or y; the constructions' fixed 21 steps and box 10).
# A demo's outcome holds what follows its name and what it exhibits.


def _bundle_output(bundle) -> _Outcome:
    ok = all(c.passed for c in bundle.checks if c.applicable)
    return {"certificate": certificate_dict(bundle)}, ok


def _center_betweenness(a) -> _Outcome:
    ring = a.ring
    b = from_int(ring, 3) if descriptor(ring).is_commutative else SKEW_Y
    summary = no_central_between_trials(a, b, DEMO_SAMPLES, DEMO_SEED)
    report = {
        "ring": ring.value,
        "a": to_text(a),
        "b": to_text(b),
        "seed": DEMO_SEED,
        "betweenness": summary.as_dict(),
        "magnitude_gap": magnitude_gap_check(a, b).as_dict(),
    }
    return report, summary.passed


# name -> (default ring, what it exhibits, its outcome from a), each built
# over a's ring; the infeasible/optimal pair passes the BundleKind it builds.
# The step witnesses z and p are inverses of small integers there; on a ring
# where none is a unit (int) they are None, and the construction refuses
# that ring, which has a smallest positive element, before it reads them.
_DEMOS = {
    "strong-duality-gap": (
        RingId.INT,
        "no strong duality over a ring whose smallest positive element is 1",
        lambda a: _bundle_output(strong_duality_counterexample(a)),
    ),
    "edt-infeasible-optimal": (
        RingId.INT,
        "existence-duality failure: infeasible primal with an optimal dual",
        lambda a: _bundle_output(infeasible_optimal_program(a, BundleKind.INFEASIBLE_OPTIMAL_PRIMAL)),
    ),
    "edt-infeasible-optimal-transposed": (
        RingId.INT,
        "existence-duality failure: infeasible dual with an optimal primal",
        lambda a: _bundle_output(infeasible_optimal_program(a, BundleKind.INFEASIBLE_OPTIMAL_DUAL)),
    ),
    "primal-no-optimum": (
        RingId.ODDRAT,
        "a feasible bounded primal that attains no optimum",
        lambda a: _bundle_output(primal_improving_sequence(a, try_invert(from_int(a.ring, 3)))),
    ),
    "dual-no-optimum": (
        RingId.POLY,
        "a feasible bounded dual that attains no optimum",
        lambda a: _bundle_output(
            dual_decreasing_sequence(
                a, try_invert(from_int(a.ring, 2)) or try_invert(from_int(a.ring, 3))
            )
        ),
    ),
    "noncommutative-gap": (
        RingId.SKEW,
        "a strict duality gap on every feasible pair, non-commutative instance",
        lambda a: _bundle_output(gap_program(a)),
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
    a = descriptor(ring).default_a if args.a is None else parse_element(ring, args.a)
    report, ok = show(a)
    return {"name": args.name, "exhibits": exhibits, **report}, ok


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


def _text(leaf) -> str:
    return leaf if isinstance(leaf, str) else json.dumps(leaf)


def _is_word(leaf) -> bool:
    return not isinstance(leaf, (dict, list)) and len(_text(leaf).split()) == 1


def _text_lines(value, indent: str = "") -> list[str]:
    """The plain-text form of a report: one ``key: value`` line per field,
    keys sorted as ``--json`` sorts them. A list of one-word scalars, such
    as a vector, stays on its key's line, space-separated; an object, any
    other list and a text of several lines go on indented lines under their
    key, each list item after ``- ``."""
    keyed = isinstance(value, dict)
    lines = []
    for key, item in sorted(value.items()) if keyed else [("-", v) for v in value]:
        head = f"{indent}{key}:" if keyed else f"{indent}-"
        if isinstance(item, dict) and not keyed:  # an object in a list opens on its dash
            nested = _text_lines(item, indent + "  ")
            lines += [f"{head} {nested[0].lstrip()}", *nested[1:]]
        elif isinstance(item, list) and all(map(_is_word, item)):
            lines.append(" ".join([head, *map(_text, item)]) if item else f"{head} []")
        elif isinstance(item, (dict, list)):
            lines += [head, *_text_lines(item, indent + "  ")]
        else:
            text = _text(item).splitlines() or [""]
            lines += [f"{head} {text[0]}"] if len(text) == 1 else [head, *(f"{indent}  {t}" for t in text)]
    return [line.rstrip() for line in lines]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report, ok = args.func(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RingLpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {"command": args.command, **report}
    try:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("\n".join(_text_lines(report)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device, so that the
        # flush at interpreter exit has somewhere to put what is left
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
