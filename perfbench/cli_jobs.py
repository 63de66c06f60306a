"""The ``cli`` workload: one ``python -m ringlp ... --json`` process at a time.

A pass runs every command below once, in a seeded order:

* every demo with its default ring, and with each ``--ring`` it accepts;
* ``rings``, and ``axioms`` for each ring;
* ``check``, ``identities``, ``enumerate --box 10`` and ``edt --box 10``
  on every fixture the command accepts (enumerate and edt need an
  enumerable ring).

Each command's exit code and the sha256 of its stdout are compared with
``cli_goldens.json``, recorded from the library as it stood when the
benchmark was defined (``record_goldens.py`` rewrites it). The goldens pin
today's output, including the VIOLATION that ``edt`` reports for
``edt_fail_rat.prog`` at box 10.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import ringlp

from jobs import FIXTURES, ROOT, Job, Workload, expect_equal, read_fixture, rng_for

GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"
# The rings each demo accepts besides its default: the others are
# precondition errors (exit 3) or, for center-betweenness on poly, a parse
# error of its fixed second element.
DEMO_RINGS = {
    "strong-duality-gap": ("int",),
    "edt-infeasible-optimal": ("int", "oddrat", "poly", "skew"),
    "edt-infeasible-optimal-transposed": ("int", "oddrat", "poly", "skew"),
    "primal-no-optimum": ("oddrat",),
    "dual-no-optimum": ("poly", "skew"),
    "noncommutative-gap": ("int", "oddrat", "poly", "skew"),
    "center-betweenness": ("int", "rat", "oddrat", "skew"),
}
RINGS = ("int", "rat", "oddrat", "poly", "skew")
ZERO = {"int": "0", "rat": "0", "oddrat": "0", "poly": "poly:0", "skew": "skew:"}
ONE = {"int": "1", "rat": "1", "oddrat": "1", "poly": "poly:1", "skew": "skew:0,0=1"}
ENUMERABLE = ("int", "rat", "oddrat")
TINY_COMMANDS = (["rings"], ["axioms", "--ring", "int"], ["edt", "fixtures/edt_fail_rat.prog", "--box", "10"])


def commands(programs: dict) -> list[list[str]]:
    """Every command of a pass, as argv lists without ``--json``."""
    out: list[list[str]] = []
    for demo, rings in DEMO_RINGS.items():
        out.append(["demo", demo])
        out += [["demo", demo, "--ring", ring] for ring in rings]
    out.append(["rings"])
    out += [["axioms", "--ring", ring] for ring in RINGS]
    for name, P in programs.items():
        path = f"fixtures/{name}"
        ring = P.ring.value
        x, y = " ".join([ZERO[ring]] * P.cols), " ".join([ONE[ring]] * P.rows)
        out.append(["check", path, "--x", x, "--y", y])
        out.append(["identities", path])
        if ring in ENUMERABLE:
            out.append(["enumerate", path, "--box", "10"])
            out.append(["edt", path, "--box", "10"])
    return out


def key(argv: list[str]) -> str:
    return json.dumps(argv)


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_process(argv: list[str], env: dict) -> tuple[int, str, int]:
    """(exit code, sha256 of stdout, peak RSS in KiB) of one CLI process."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringlp", *argv, "--json"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """``ringlp.cli.main`` in this interpreter, stdout captured."""
    import ringlp.cli

    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = ringlp.cli.main([*argv, "--json"])
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def check_golden(result, golden: dict) -> list:
    problems: list = []
    code, sha = result
    expect_equal(problems, "exit code", code, golden["exit"])
    expect_equal(problems, "stdout sha256", sha, golden["sha256"])
    return problems


def fixture_programs() -> dict:
    return {
        path.name: ringlp.parse_program(read_fixture(path.name))
        for path in sorted(FIXTURES.glob("*.prog"))
    }


class CliWorkload(Workload):
    name = "cli"

    def __init__(self, seed: int, tiny: bool = False):
        self.env = child_env()
        self.goldens = json.loads(GOLDENS.read_text())
        self.argvs = TINY_COMMANDS if tiny else commands(fixture_programs())
        self.peak_child_rss_kb = 0  # the largest ringlp child so far
        super().__init__(seed, tiny)

    def build_pass(self, index: int, in_process: bool = False) -> list[Job]:
        rng = rng_for(self.name, self.seed, index)
        order = list(self.argvs)
        rng.shuffle(order)
        jobs = []
        for argv in order:
            golden = self.goldens[key(argv)]
            if in_process:
                call = lambda argv=argv: run_in_process(argv)
            else:
                call = lambda argv=argv: self._run_process(argv)
            jobs.append(Job(" ".join(argv), call, 1, lambda r, g=golden: check_golden(r, g)))
        return jobs

    def _run_process(self, argv: list[str]) -> tuple[int, str]:
        code, sha, rss_kb = run_process(argv, self.env)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
        return code, sha

    def trace_jobs(self) -> list[Job]:
        """The first pass, run through ``ringlp.cli.main`` in this process."""
        return self.build_pass(0, in_process=True)
