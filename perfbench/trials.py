"""The ``trials`` workload: seeded trial loops and the axiom suite, all rings.

A pass is a fixed number of rounds. Each round gives every one of the five
rings the same three jobs:

* ``weak_duality_trials(ring, T, seed_k)``;
* ``identity_trials(P_k, T, seed_k)``, where ``P_k`` is a seeded program;
  over poly and skew every other round uses ``gap_poly`` / ``gap_skew``;
* ``verify_order_axioms(ring, S, seed_k)``.

The seed picks the programs, the per-job seeds and the order; T and S are
fixed, so every seed does the same amount of sampling.
"""

from __future__ import annotations

from fractions import Fraction

import ringlp

from jobs import Job, Workload, expect_equal, frac_text, library_call, program_text, read_fixture, rng_for

RINGS = ("int", "rat", "oddrat", "poly", "skew")
GAP_FIXTURES = {"poly": "gap_poly.prog", "skew": "gap_skew.prog"}
TRIALS = 16
SAMPLES = 200
ROUNDS = 40
TINY_ROUNDS = 1
TINY_TRIALS = 2
TINY_SAMPLES = 10


def random_literal(rng, ring: str) -> str:
    """A small element of ``ring`` in the program-file grammar."""

    def rational(odd: bool = False) -> Fraction:
        den = rng.choice((1, 3, 5, 7, 9) if odd else (1, 2, 3, 4, 5, 6))
        return Fraction(rng.randint(-12, 12), den)

    if ring == "int":
        return str(rng.randint(-12, 12))
    if ring in ("rat", "oddrat"):
        return frac_text(rational(ring == "oddrat"))
    if ring == "poly":
        return "poly:" + ",".join(frac_text(rational()) for _ in range(rng.randint(1, 3)))
    monomials = rng.sample([(n, m) for n in range(3) for m in range(3)], rng.randint(1, 3))
    return "skew:" + ";".join(f"{n},{m}={frac_text(rational() or 1)}" for n, m in monomials)


def random_program(rng, ring: str) -> str:
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    A = [[random_literal(rng, ring) for _ in range(n)] for _ in range(m)]
    b = [random_literal(rng, ring) for _ in range(m)]
    c = [random_literal(rng, ring) for _ in range(n)]
    return program_text(ring, A, b, c, random_literal(rng, ring))


def check_summary(summary, name: str, trials: int) -> list:
    problems: list = []
    expect_equal(problems, "name", summary.name, name)
    expect_equal(problems, "trials echoed", summary.trials, trials)
    expect_equal(problems, "failures", summary.failures, 0)
    return problems


def check_axioms(report, ring, samples: int, seed: int) -> list:
    problems: list = []
    expect_equal(problems, "ring", report.ring, ring)
    expect_equal(problems, "samples echoed", report.sample_count, samples)
    expect_equal(problems, "seed echoed", report.seed, seed)
    expect_equal(problems, "trichotomy checks", report.trichotomy_checks, 2 * samples)
    expect_equal(problems, "violations", report.violations, ())
    return problems


class TrialsWorkload(Workload):
    name = "trials"

    def __init__(self, seed: int, tiny: bool = False):
        self.rounds = TINY_ROUNDS if tiny else ROUNDS
        self.trials = TINY_TRIALS if tiny else TRIALS
        self.samples = TINY_SAMPLES if tiny else SAMPLES
        self.fixtures = {ring: read_fixture(name) for ring, name in GAP_FIXTURES.items()}
        super().__init__(seed, tiny)

    def build_pass(self, index: int) -> list[Job]:
        rng = rng_for(self.name, self.seed, index)
        gap_programs = {ring: ringlp.parse_program(t) for ring, t in self.fixtures.items()}
        T, S = self.trials, self.samples
        jobs: list[Job] = []
        for round_index in range(self.rounds):
            for ring_name in RINGS:
                ring = ringlp.RingId(ring_name)
                k = rng.getrandbits(32)
                jobs.append(
                    Job(
                        f"weak_duality_trials {ring_name}",
                        library_call("weak_duality_trials", ring, T, k),
                        T,
                        lambda r, T=T: check_summary(r, "weak_duality", T),
                    )
                )
                if ring_name in gap_programs and round_index % 2:
                    P, source = gap_programs[ring_name], GAP_FIXTURES[ring_name]
                else:
                    P, source = ringlp.parse_program(random_program(rng, ring_name)), "seeded"
                k = rng.getrandbits(32)
                jobs.append(
                    Job(
                        f"identity_trials {ring_name} {source}",
                        library_call("identity_trials", P, T, k),
                        T,
                        lambda r, T=T: check_summary(r, "identity_residuals", T),
                    )
                )
                k = rng.getrandbits(32)
                jobs.append(
                    Job(
                        f"verify_order_axioms {ring_name}",
                        library_call("verify_order_axioms", ring, S, k),
                        S,
                        lambda r, ring=ring, S=S, k=k: check_axioms(r, ring, S, k),
                    )
                )
        rng.shuffle(jobs)
        return jobs
