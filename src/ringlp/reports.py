"""Report records returned by checkers and verification suites.

Reports carry verdicts, never raise: a failed check is content. All ring
elements inside reports are rendered in the canonical text grammar so the
records are JSON-able and re-parseable.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._records import record
from .rings import RingId


@record
class CheckReport:
    """Outcome of one named check.

    ``passed`` is meaningful only when ``applicable`` is true; checks whose
    hypothesis is not met report ``applicable=False`` and pass vacuously.
    """

    name: str
    passed: bool
    applicable: bool = True
    details: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "applicable": self.applicable,
            "details": list(self.details),
        }


@record
class AxiomViolation:
    kind: str
    witnesses: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"kind": self.kind, "witnesses": list(self.witnesses)}


@record
class AxiomReport:
    """Result of the seeded ordered-ring axiom suite."""

    ring: RingId
    sample_count: int
    seed: int
    trichotomy_checks: int
    closure_checks: int
    violations: tuple[AxiomViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ring": self.ring.value,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "trichotomy_checks": self.trichotomy_checks,
            "closure_checks": self.closure_checks,
            "violations": [v.as_dict() for v in self.violations],
            "passed": self.passed,
        }


@record
class TrialSummary:
    """Aggregate of a randomized trial loop (identities, weak duality, ...)."""

    name: str
    trials: int
    failures: int
    first_failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "first_failure": self.first_failure,
            "passed": self.passed,
        }


def run_trials(
    name: str, trials: int, sampler, trial: Callable[..., Optional[str]]
) -> TrialSummary:
    """Run ``trial(sampler)`` ``trials`` times on one seeded sampler.

    ``trial`` returns ``None`` when it passes and the failure's text when it
    fails; the summary counts the failures and keeps the first text. The
    caller builds the ``sampling.Sampler``, because ``sampling`` imports
    this module. ``trials`` must be an ``int`` (``TypeError`` otherwise,
    ``bool`` included) of at least 1 (``ValueError``).
    """
    if type(trials) is bool or not isinstance(trials, int):
        raise TypeError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    failures = 0
    first = None
    for _ in range(trials):
        failure = trial(sampler)
        if failure is not None:
            failures += 1
            if first is None:
                first = failure
    return TrialSummary(name, trials, failures, first)
