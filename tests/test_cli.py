import json

import pytest

from ringlp.cli import main
from ringlp.reports import AxiomReport, AxiomViolation
from ringlp import RingId

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


def test_rings_table(capsys):
    code, out = run(capsys, "rings")
    assert code == 0
    assert "oddrat" in out and "smallest positive" in out


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
    assert "FAIL" not in out


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


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_is_exit_two(capsys):
    assert main([]) == 2
    assert main(["enumerate", CE_SD]) == 2  # missing --box
    assert main(["demo", "not-a-demo"]) == 2
    assert main(["identities", CE_SD, "--trials", "0"]) == 2
    assert main(["identities", CE_SD, "--trials", "-3"]) == 2
    for workers in ("0", "-2", "65"):  # rejected before any thread starts
        assert main(["enumerate", CE_SD, "--box", "10", "--workers", workers]) == 2
        assert main(["edt", CE_SD, "--box", "10", "--workers", workers]) == 2


def test_parse_error_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("ring int\nrows 1\ncols 1\nA 1/2\nb 1\nc 1\nd 0\n")
    assert main(["enumerate", str(bad), "--box", "5"]) == 2
    assert main(["enumerate", str(tmp_path / "missing.prog"), "--box", "5"]) == 2
    # a skew literal degree above 1024 is refused before any product is formed
    assert main(["check", GAP_SKEW, "--x", "skew:0,1025=1", "--y", "skew:0,0=1"]) == 2


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
    assert "VIOLATION" in out


# ---------------------------------------------------------------------------
# determinism and re-parsing


@pytest.mark.parametrize(
    "argv",
    [
        ("rings",),
        ("axioms", "--ring", "skew", "--samples", "150", "--seed", "9"),
        ("identities", CE_SD, "--trials", "50", "--seed", "3"),
        ("enumerate", CE_SD, "--box", "10"),
        ("edt", EDT_FAIL, "--box", "10"),
        ("check", CE_SD, "--x", "0", "--y", "1"),
        ("demo", "strong-duality-gap"),
        ("demo", "center-betweenness"),
    ],
)
def test_repeated_json_reports_are_byte_identical(capsys, argv):
    _, first = run(capsys, *argv, "--json")
    _, second = run(capsys, *argv, "--json")
    assert first == second


def test_json_reports_reparse_to_the_same_verdicts(capsys):
    _, report = run_json(capsys, "edt", EDT_FAIL, "--box", "10")
    again = json.loads(json.dumps(report))
    assert again == report
    assert again["report"]["violation"] is True
