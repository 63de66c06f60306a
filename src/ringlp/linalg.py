"""Vectors and matrices over one ring: containers only.

An ``RVector`` or ``RMatrix`` checks that every entry is a ``RingElement``
of its ring, the box scan's vectors too, and that a matrix is rectangular;
it does no arithmetic. The products a program needs (the slacks t = b - A x
and s = y A - c and the objectives) are computed in :mod:`ringlp.affine`,
each entry one ``rings.sum_of_products`` call that keeps the structural
coefficient on the left of every product.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._records import record, setfield
from .errors import DimensionMismatch, RingMismatch
from .rings import RingElement, RingId, to_text

__all__ = [
    "RVector",
    "RMatrix",
    "vector",
    "matrix",
    "vec_text",
]


def _require_entries_in(ring: RingId, entries: Iterable[RingElement], what: str = "vector") -> None:
    for e in entries:
        if not isinstance(e, RingElement):
            raise TypeError(f"{what} entry {e!r} is not a RingElement")
        if e.ring is not ring:
            raise RingMismatch(f"{what} over {ring.value} contains {e.ring.value} entry")


@record
class RVector:
    ring: RingId
    entries: tuple[RingElement, ...]

    def __init__(self, ring: RingId, entries: tuple[RingElement, ...]):
        _require_entries_in(ring, entries)
        setfield(self, "ring", ring)
        setfield(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RingElement]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> RingElement:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"RVector({self.ring.value}, [{', '.join(to_text(e) for e in self)}])"


@record
class RMatrix:
    ring: RingId
    rows: int
    cols: int
    entries: tuple[RingElement, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        _require_entries_in(self.ring, self.entries, "matrix")

    def entry(self, j: int, i: int) -> RingElement:
        return self.entries[j * self.cols + i]

    def row(self, j: int) -> tuple[RingElement, ...]:
        return self.entries[j * self.cols : (j + 1) * self.cols]

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(to_text(e) for e in self.row(j)) for j in range(self.rows)
        )
        return f"RMatrix({self.ring.value}, {self.rows}x{self.cols}, [{body}])"


def vector(ring: RingId, entries: Iterable[RingElement]) -> RVector:
    return RVector(ring, tuple(entries))


def matrix(ring: RingId, rows: Iterable[Iterable[RingElement]]) -> RMatrix:
    rows = [tuple(r) for r in rows]
    if not rows:
        raise DimensionMismatch("matrix needs at least one row")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise DimensionMismatch("matrix rows have unequal lengths")
    flat = tuple(e for r in rows for e in r)
    return RMatrix(ring, len(rows), cols, flat)


def vec_text(v: RVector) -> list[str]:
    return [to_text(e) for e in v]
