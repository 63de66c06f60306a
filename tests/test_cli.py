import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from ringlp.cli import main
from ringlp.reports import AxiomReport, AxiomViolation
from ringlp import DimensionMismatch, ParseError, RingId, RingMismatch

from conftest import FIXTURES

CE_SD = str(FIXTURES / "ce_sd.prog")
CE_SD_RAT = str(FIXTURES / "ce_sd_rat.prog")
EDT_FAIL = str(FIXTURES / "edt_fail.prog")
EDT_FAIL_RAT = str(FIXTURES / "edt_fail_rat.prog")
EDT_FAIL_T = str(FIXTURES / "edt_fail_transposed.prog")
GAP_POLY = str(FIXTURES / "gap_poly.prog")
GAP_SKEW = str(FIXTURES / "gap_skew.prog")
GAP_ODDRAT = str(FIXTURES / "gap_oddrat.prog")

ALL_FIXTURES = [
    CE_SD,
    CE_SD_RAT,
    EDT_FAIL,
    EDT_FAIL_RAT,
    EDT_FAIL_T,
    GAP_POLY,
    GAP_SKEW,
    GAP_ODDRAT,
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def _items(out, key):
    """The list items under ``key:`` of a text report, each as its lines."""
    lines = out.splitlines()
    start = [line.strip() for line in lines].index(f"{key}:") + 1
    depth = len(lines[start]) - len(lines[start].lstrip())
    items = []
    for line in lines[start:]:
        if len(line) - len(line.lstrip()) < depth:
            break
        if line.lstrip().startswith("- "):
            items.append([])
        items[-1].append(line.strip().removeprefix("- "))
    return items


def test_rings_table(capsys):
    code, out = run(capsys, "rings")
    assert code == 0
    assert out.splitlines()[0] == "command: rings"
    by_ring = {item[2]: item for item in _items(out, "rings")}
    assert list(by_ring) == [f"ring: {r.value}" for r in RingId]
    assert by_ring["ring: int"] == [
        "is_commutative: true", "is_division: false", "ring: int", "smallest_positive: 1"
    ]
    assert by_ring["ring: oddrat"][3] == "smallest_positive: null"
    assert by_ring["ring: skew"][0] == "is_commutative: false"


def test_rings_json(capsys):
    code, report = run_json(capsys, "rings")
    assert code == 0
    by_ring = {r["ring"]: r for r in report["rings"]}
    assert by_ring["int"]["smallest_positive"] == "1"
    assert by_ring["rat"]["is_division"] is True
    assert by_ring["skew"]["is_commutative"] is False


@pytest.mark.parametrize("ring", [r.value for r in RingId])
def test_axioms_pass_for_every_ring(capsys, ring):
    code, report = run_json(
        capsys, "axioms", "--ring", ring, "--samples", "200", "--seed", "42"
    )
    assert code == 0
    assert report["report"]["passed"] is True
    assert report["report"]["violations"] == []


def test_check_the_optimal_pair(capsys):
    code, report = run_json(capsys, "check", CE_SD, "--x", "0", "--y", "1")
    assert code == 0
    assert report["primal"]["feasible"] is True
    assert report["dual"]["feasible"] is True
    assert report["gap"] == "1"
    assert report["t"] == ["1"] and report["s"] == ["1"]
    assert report["weak_duality"]["passed"] is True


def test_check_reports_infeasibility_as_content(capsys):
    code, report = run_json(capsys, "check", EDT_FAIL, "--x", "0", "--y", "0 0")
    assert code == 0
    assert report["primal"]["feasible"] is False
    assert report["primal"]["violated_row"] == 1
    assert report["primal"]["violation_kind"] == "SLACK_NEGATIVE"
    assert report["weak_duality"]["applicable"] is False


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_identities_hold_on_every_fixture(capsys, fixture):
    code, report = run_json(
        capsys, "identities", fixture, "--trials", "100", "--seed", "1"
    )
    assert code == 0
    assert report["report"]["failures"] == 0


def test_enumerate_golden_verdict(capsys):
    code, report = run_json(capsys, "enumerate", CE_SD, "--box", "10")
    assert code == 0
    assert report["primal"] == {
        "kind": "OPTIMAL",
        "scope": "BOX_LIMITED",
        "witness": ["0"],
        "value": "0",
        "note": None,
    }
    assert report["dual"] == {
        "kind": "OPTIMAL",
        "scope": "BOX_LIMITED",
        "witness": ["1"],
        "value": "1",
        "note": None,
    }


def test_enumerate_single_side(capsys):
    code, report = run_json(
        capsys, "enumerate", CE_SD, "--box", "10", "--side", "dual"
    )
    assert code == 0
    assert "primal" not in report
    assert report["dual"]["witness"] == ["1"]


def test_enumerate_rational_control(capsys):
    code, report = run_json(
        capsys, "enumerate", CE_SD_RAT, "--box", "2", "--den", "2"
    )
    assert code == 0
    assert report["primal"]["witness"] == ["1/2"]
    assert report["dual"]["witness"] == ["1/2"]


def test_edt_reports_violation_with_exit_zero(capsys):
    code, report = run_json(capsys, "edt", EDT_FAIL, "--box", "10")
    assert code == 0  # the violation is the expected finding
    assert report["report"]["violation"] is True
    assert report["report"]["primal"]["kind"] == "INFEASIBLE"
    assert report["report"]["dual"]["kind"] == "OPTIMAL"
    assert report["report"]["dual"]["witness"] == ["0", "0"]


def test_edt_no_violation_over_rationals(capsys):
    code, report = run_json(capsys, "edt", EDT_FAIL_RAT, "--box", "2", "--den", "2")
    assert code == 0
    assert report["report"]["violation"] is False
    assert report["report"]["case"] == 4
    assert report["report"]["gap"] == "0"


def test_edt_transposed_fixture(capsys):
    code, report = run_json(capsys, "edt", EDT_FAIL_T, "--box", "10")
    assert code == 0
    assert report["report"]["violation"] is True
    assert report["report"]["dual"]["kind"] == "INFEASIBLE"
    assert report["report"]["primal"]["kind"] == "OPTIMAL"


@pytest.mark.parametrize(
    "name",
    [
        "strong-duality-gap",
        "edt-infeasible-optimal",
        "edt-infeasible-optimal-transposed",
        "primal-no-optimum",
        "dual-no-optimum",
        "noncommutative-gap",
        "center-betweenness",
    ],
)
def test_every_demo_runs_clean(capsys, name):
    code, out = run(capsys, "demo", name)
    assert code == 0
    assert f"name: {name}" in out.splitlines()
    assert "passed: false" not in out


def test_demo_json_certificate(capsys):
    code, report = run_json(capsys, "demo", "strong-duality-gap")
    assert code == 0
    assert report["certificate"]["kind"] == "STRONG_DUALITY_GAP"
    assert report["certificate"]["gap"] == "1"
    assert all(c["passed"] for c in report["certificate"]["checks"])


def test_demo_respects_ring_and_witness_flags(capsys):
    code, report = run_json(
        capsys, "demo", "strong-duality-gap", "--ring", "int", "--a", "3"
    )
    assert code == 0
    assert report["certificate"]["dual_optimum"] == ["1"]
    code, report = run_json(capsys, "demo", "noncommutative-gap", "--ring", "poly")
    assert code == 0
    assert report["certificate"]["ring"] == "poly"


@pytest.mark.parametrize("a, first_dual", [("2/3", "2"), ("2/5", "3")])
def test_noncommutative_gap_below_one_starts_at_a_feasible_dual(capsys, a, first_dual):
    # y = [1] is dual-infeasible when a < 1; the family starts at the least
    # positive integer k with k*a >= 1
    code, report = run_json(capsys, "demo", "noncommutative-gap", "--ring", "oddrat", "--a", a)
    assert code == 0
    certificate = report["certificate"]
    assert certificate["dual_witnesses"][0] == [first_dual]
    assert all(c["passed"] and c["applicable"] for c in certificate["checks"])


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_is_exit_two(capsys):
    assert main([]) == 2
    assert main(["enumerate", CE_SD]) == 2  # missing --box
    assert main(["demo", "not-a-demo"]) == 2
    assert main(["identities", CE_SD, "--trials", "0"]) == 2
    assert main(["identities", CE_SD, "--trials", "-3"]) == 2
    # a count past the bound is refused before any trial or sample is drawn
    capsys.readouterr()
    assert main(["identities", CE_SD, "--trials", "100001"]) == 2
    assert capsys.readouterr().err == "error: trials must be at most 100000\n"
    assert main(["axioms", "--ring", "int", "--samples", "100001"]) == 2
    assert capsys.readouterr().err == "error: sample_count must be at most 100000\n"
    # scans are sequential: there is no --workers option
    assert main(["enumerate", CE_SD, "--box", "10", "--workers", "2"]) == 2
    assert main(["edt", CE_SD, "--box", "10", "--workers", "2"]) == 2


@pytest.mark.parametrize("command", ["enumerate", "edt"])
def test_den_on_an_integer_grid_is_a_usage_error(capsys, command):
    # the int grid is 0..N whatever --den says, so no report may echo den 3
    assert main([command, EDT_FAIL, "--box", "2", "--den", "3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--den 3 has no effect on int" in captured.err
    for den in (["--den", "1"], []):
        code, report = run_json(capsys, command, EDT_FAIL, "--box", "2", *den)
        assert code == 0
        assert report["den"] == (1 if den else None)
    code, report = run_json(capsys, command, EDT_FAIL_RAT, "--box", "2", "--den", "3")
    assert (code, report["den"]) == (0, 3)


def test_parse_error_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("ring int\nrows 1\ncols 1\nA 1/2\nb 1\nc 1\nd 0\n")
    assert main(["enumerate", str(bad), "--box", "5"]) == 2
    assert main(["enumerate", str(tmp_path / "missing.prog"), "--box", "5"]) == 2
    # a skew literal degree above 1024 is refused before any product is formed
    assert main(["check", GAP_SKEW, "--x", "skew:0,1025=1", "--y", "skew:0,0=1"]) == 2
    # an empty --a is a malformed literal, not an absent one
    assert main(["demo", "center-betweenness", "--ring", "int", "--a", ""]) == 2


def test_over_long_literal_is_a_parse_error(tmp_path, capsys):
    big = tmp_path / "big.prog"
    big.write_text(f"ring int\nrows 1\ncols 1\nA {'7' * 5000}\nb 1\nc 1\nd 0\n")
    assert main(["enumerate", str(big), "--box", "2"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 4, col 3: A[0]: ")


def test_a_grid_over_the_key_bit_budget_is_exit_two(capsys):
    # one variable on 1000 denominators passes the point cap but not the key bit budget
    assert main(["enumerate", EDT_FAIL_RAT, "--box", "1", "--den", "1000", "--side", "primal"]) == 2
    assert capsys.readouterr().err.endswith("keys over 134217728 bits per variable\n")


def test_dimension_error_is_exit_two(capsys):
    assert main(["check", CE_SD, "--x", "0 0", "--y", "1"]) == 2


def test_precondition_errors_are_exit_three(capsys):
    assert main(["demo", "strong-duality-gap", "--ring", "rat"]) == 3
    assert main(["demo", "dual-no-optimum", "--ring", "int"]) == 3
    assert main(["demo", "primal-no-optimum", "--ring", "rat"]) == 3
    assert main(["demo", "dual-no-optimum", "--ring", "oddrat"]) == 3
    assert main(["enumerate", GAP_POLY, "--box", "5"]) == 3
    # the smallest-positive check runs before the 1/3 witness is built
    assert main(["demo", "primal-no-optimum", "--ring", "int"]) == 3
    assert main(["demo", "dual-no-optimum", "--ring", "int"]) == 3
    # any ring is valid for center-betweenness: its fixed b = 3 embeds in poly
    assert main(["demo", "center-betweenness", "--ring", "poly"]) == 0


# the demo x ring combinations that perfbench/cli_goldens.json leaves out:
# every one but the last exits 3 and prints nothing on stdout
_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize(
    "name,ring,code,sha256",
    [
        *[("strong-duality-gap", r, 3, _EMPTY_SHA256) for r in ("rat", "oddrat", "poly", "skew")],
        ("edt-infeasible-optimal", "rat", 3, _EMPTY_SHA256),
        ("edt-infeasible-optimal-transposed", "rat", 3, _EMPTY_SHA256),
        *[("primal-no-optimum", r, 3, _EMPTY_SHA256) for r in ("int", "rat", "poly", "skew")],
        *[("dual-no-optimum", r, 3, _EMPTY_SHA256) for r in ("int", "rat", "oddrat")],
        ("noncommutative-gap", "rat", 3, _EMPTY_SHA256),
        (
            "center-betweenness",
            "poly",
            0,
            "1d5edf910bec762e84faa69ea99d5643bce9cb378e8d43d4620a3fdc9961d937",
        ),
    ],
)
def test_demo_ring_combinations_outside_the_goldens(capsys, name, ring, code, sha256):
    got, out = run(capsys, "demo", name, "--ring", ring, "--json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_INVERTIBLE_TWO = "2 is invertible in rat; a non-unit is required"
_NOT_ENUMERABLE = "{} is not exhaustively enumerable (only int, rat, oddrat)"


_PRECONDITION_FAILURES = [
    (("demo", "strong-duality-gap", "--ring", "rat"), _INVERTIBLE_TWO),
    *[
        (("demo", "strong-duality-gap", "--ring", r), f"{r} has no smallest positive element")
        for r in ("oddrat", "poly", "skew")
    ],
    (("demo", "edt-infeasible-optimal", "--ring", "rat"), _INVERTIBLE_TWO),
    (("demo", "edt-infeasible-optimal-transposed", "--ring", "rat"), _INVERTIBLE_TWO),
    (
        ("demo", "primal-no-optimum", "--ring", "int"),
        "int has smallest positive element 1; no z with 0 < a*z < 1 exists",
    ),
    (("demo", "primal-no-optimum", "--ring", "rat"), _INVERTIBLE_TWO),
    (
        ("demo", "primal-no-optimum", "--ring", "poly"),
        "sign(1 - a*z) = +1 failed (value poly:1,-1/3)",
    ),
    (
        ("demo", "primal-no-optimum", "--ring", "skew"),
        "sign(1 - a*z) = +1 failed (value skew:0,1=-1/3;0,0=1)",
    ),
    (
        ("demo", "dual-no-optimum", "--ring", "int"),
        "int has smallest positive element 1; no p with 0 < p < 1 exists",
    ),
    (("demo", "dual-no-optimum", "--ring", "rat"), _INVERTIBLE_TWO),
    (
        ("demo", "dual-no-optimum", "--ring", "oddrat"),
        "scaling by 1/3 breaks dual feasibility at row 0 (SLACK_NEGATIVE)",
    ),
    (("demo", "noncommutative-gap", "--ring", "rat"), _INVERTIBLE_TWO),
    *[
        ((command, path, "--box", "3"), _NOT_ENUMERABLE.format(ring))
        for command in ("enumerate", "edt")
        for path, ring in ((GAP_POLY, "poly"), (GAP_SKEW, "skew"))
    ],
]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv, message, id=" ".join(argv).replace(str(FIXTURES) + "/", ""))
        for argv, message in _PRECONDITION_FAILURES
    ],
)
def test_each_precondition_failure_prints_its_one_line(capsys, argv, message):
    """Every command that fails a precondition exits 3 with nothing on
    stdout and one line on stderr that names the failed hypothesis."""
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition error: {message}\n"


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (ParseError("bad literal"), 2, "parse error: "),
        (DimensionMismatch("bad shape"), 2, "error: "),
        (RingMismatch("two rings"), 2, "error: "),
        (FileNotFoundError("no such file"), 2, "error: "),
        (ValueError("bad value"), 2, "error: "),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_each_failure_maps_to_its_exit_code_and_stderr_label(capsys, monkeypatch, error, code, prefix):
    import ringlp.cli as cli_module

    def fail(args):
        raise error

    monkeypatch.setattr(cli_module, "_cmd_rings", fail)
    assert main(["rings"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{error}\n"


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader is gone: each write fails as on a closed pipe,
    and its file descriptor is a scratch file's, so ``main`` may point it
    elsewhere."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


@pytest.mark.parametrize("ok, code", [(True, 0), (False, 1)])
def test_a_closed_stdout_ends_quietly_with_the_reports_exit_code(tmp_path, capsys, monkeypatch, ok, code):
    import ringlp.cli as cli_module

    monkeypatch.setattr(cli_module, "_cmd_rings", lambda args: ({}, ok))
    with open(tmp_path / "stdout", "wb") as scratch:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(scratch.fileno()))
        assert main(["rings"]) == code
        # what the interpreter flushes at exit goes to the null device
        os.write(scratch.fileno(), b"unread")
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_on_stdout_prints_no_traceback(unbuffered):
    """``python -m ringlp rings`` into a pipe whose reader has closed exits 0
    with an empty stderr: no traceback from ``main`` and no "Exception
    ignored" from the flush at exit, with stdout unbuffered or not."""
    root = FIXTURES.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ringlp", "rings"],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=root,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr.decode()) == (0, "")


def test_violation_exit_code_via_forced_report(capsys, monkeypatch):
    import ringlp.cli as cli_module

    fake = AxiomReport(
        ring=RingId.INT,
        sample_count=1,
        seed=1,
        trichotomy_checks=2,
        closure_checks=1,
        violations=(AxiomViolation("trichotomy", ("1",)),),
    )
    monkeypatch.setattr(cli_module, "verify_order_axioms", lambda *a: fake)
    code, out = run(capsys, "axioms", "--ring", "int", "--samples", "1", "--seed", "1")
    assert code == 1
    assert "  passed: false" in out.splitlines()
    assert _items(out, "violations") == [["kind: trichotomy", "witnesses: 1"]]


# ---------------------------------------------------------------------------
# determinism and re-parsing


_REPEATED = [
    ("rings",),
    ("axioms", "--ring", "skew", "--samples", "150", "--seed", "9"),
    ("identities", CE_SD, "--trials", "50", "--seed", "3"),
    ("enumerate", CE_SD, "--box", "10"),
    ("edt", EDT_FAIL, "--box", "10"),
    ("check", CE_SD, "--x", "0", "--y", "1"),
    ("demo", "strong-duality-gap"),
    ("demo", "center-betweenness"),
]


# each command with --json, then each in the text form
@pytest.mark.parametrize("argv", [(*argv, "--json") for argv in _REPEATED] + _REPEATED)
def test_repeated_json_reports_are_byte_identical(capsys, argv):
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_json_reports_reparse_to_the_same_verdicts(capsys):
    _, report = run_json(capsys, "edt", EDT_FAIL, "--box", "10")
    again = json.loads(json.dumps(report))
    assert again == report
    assert again["report"]["violation"] is True
