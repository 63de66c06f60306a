"""Exception types shared across the library, :func:`require_int`, the one
check of every count, bound and seed, and :func:`require_count`, which also
bounds a trial or sample count from above.

A ``PreconditionError`` (CLI exit code 3) means an operation was asked
for outside its documented hypotheses; its message names the hypothesis
that failed.
"""

from __future__ import annotations

__all__ = [
    "RingLpError",
    "RingMismatch",
    "DimensionMismatch",
    "ParseError",
    "PreconditionError",
]


class RingLpError(Exception):
    """Base class for all library errors."""


class RingMismatch(RingLpError):
    """Operands belong to different rings."""


class DimensionMismatch(RingLpError):
    """Vector or matrix dimensions are inconsistent."""


class ParseError(RingLpError):
    """Malformed element literal or program file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}, col {self.col}: {base}"
        return base


class PreconditionError(RingLpError):
    """A documented precondition of the operation does not hold."""


def require_int(name: str, value: int, least: int | None = None) -> None:
    """``value`` is an ``int`` and not a ``bool`` (``TypeError``), and at
    least ``least``, 0 or 1, when given (``ValueError``)."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}")


# the most trials or sampled pairs one call runs: far above the CLI's defaults
# (500 trials, 1,000 pairs), so a mistyped count is refused, not run for hours
_MAX_COUNT = 100_000


def require_count(name: str, value: int) -> None:
    """``value`` is an ``int`` (``TypeError``) from 1 to 100,000
    (``ValueError``), checked before any trial or sample is drawn."""
    require_int(name, value, 1)
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be at most {_MAX_COUNT}")
