"""What every workload shares: the job record, seeded randomness, paths."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ringlp

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Job:
    """One call into the library (or one CLI command) with fixed inputs.

    ``items`` is the work the job stands for (grid points, trials or one
    command). ``check`` looks at the job's output outside the timed region
    and returns what it found wrong; an empty list means correct.
    """

    label: str
    call: Callable[[], object]
    items: int
    check: Callable[[object], list]


class Workload:
    """A workload's passes of jobs; subclasses define ``build_pass(index)``.

    Pass 0 is built by the constructor, which is the benchmark's set-up.
    Later passes are built when first asked for, with fresh inputs.
    """

    name: str

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self._pass = (0, self.build_pass(0))

    def build_pass(self, index: int) -> list[Job]:
        raise NotImplementedError

    def pass_jobs(self, index: int) -> list[Job]:
        if self._pass[0] != index:
            self._pass = (index, self.build_pass(index))
        return self._pass[1]

    def trace_jobs(self) -> list[Job]:
        """The jobs a traced run times: the first pass."""
        return self.pass_jobs(0)


def library_call(name: str, *args, **kwargs) -> Callable[[], object]:
    """Call ``ringlp.<name>``, looked up at call time so tracing can wrap it."""
    return lambda: getattr(ringlp, name)(*args, **kwargs)


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    """The input stream of one pass; string seeding is stable across runs."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def digest(result) -> str:
    """A canonical text of a job's output, for comparing two runs."""
    if hasattr(result, "as_dict"):
        return json.dumps(result.as_dict(), sort_keys=True)
    return repr(result)


def frac_text(q) -> str:
    """Canonical literal of an integer or rational, as the program files use."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def program_text(ring: str, A, b, c, d) -> str:
    """A program file for already rendered element literals."""
    lines = [f"ring {ring}", f"rows {len(A)}", f"cols {len(A[0])}", "A"]
    lines += [" ".join(row) for row in A]
    lines += ["b " + " ".join(b), "c " + " ".join(c), f"d {d}"]
    return "\n".join(lines) + "\n"


def expect_equal(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")
