"""Vectors and matrices over one ring, with order-sensitive products.

One global convention makes every identity in this library hold in the
non-commutative instance: the structural coefficient multiplies from the
LEFT. Concretely, ``mat_apply`` puts the matrix entry left of the vector
entry, ``covec_apply`` puts the row-vector entry left of the matrix entry,
and ``dot_left(u, v)`` sums ``u[i]*v[i]``. In SKEW ``dot_left(u, v)`` and
``dot_left(v, u)`` genuinely differ.

Each output entry of the three products is one call of
``rings.sum_of_products``, which keeps that left-multiplication order and
normalizes the sum once, instead of building an element per product and
per partial sum.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from ._records import record, setfield
from .errors import DimensionMismatch, RingMismatch
from .rings import (
    RingElement,
    RingId,
    add,
    from_int,
    mul,
    neg,
    sub,
    sum_of_products,
    to_text,
    zero,
)

__all__ = [
    "RVector",
    "RMatrix",
    "vector",
    "matrix",
    "int_vector",
    "int_matrix",
    "zero_vector",
    "grid_points",
    "mat_apply",
    "covec_apply",
    "dot_left",
    "vec_add",
    "vec_sub",
    "vec_neg",
    "scale_right",
    "vec_text",
]


def _require_entries_in(ring: RingId, entries: Iterable[RingElement]) -> None:
    for e in entries:
        if e.ring is not ring:
            raise RingMismatch(f"vector over {ring.value} contains {e.ring.value} entry")


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
        for e in self.entries:
            if e.ring is not self.ring:
                raise RingMismatch(
                    f"matrix over {self.ring.value} contains {e.ring.value} entry"
                )

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


def int_vector(ring: RingId, values: Iterable[int]) -> RVector:
    return vector(ring, (from_int(ring, v) for v in values))


def int_matrix(ring: RingId, rows: Iterable[Iterable[int]]) -> RMatrix:
    return matrix(ring, ((from_int(ring, v) for v in r) for r in rows))


def zero_vector(ring: RingId, n: int) -> RVector:
    return RVector(ring, (zero(ring),) * n)


def grid_points(ring: RingId, values: tuple[RingElement, ...], n: int) -> Iterator[RVector]:
    """Every vector of length ``n`` with entries from ``values``, in
    lexicographic order of the entries (``itertools.product``).

    The values are checked to be in ``ring`` once, here (``RingMismatch``),
    so each point is built without ``RVector``'s per-entry check.
    """
    _require_entries_in(ring, values)
    return _unchecked_points(ring, values, n)


def _unchecked_points(ring: RingId, values: tuple[RingElement, ...], n: int) -> Iterator[RVector]:
    new = object.__new__
    for entries in product(values, repeat=n):
        v = new(RVector)
        setfield(v, "ring", ring)
        setfield(v, "entries", entries)
        yield v


def _require_same_ring(a_ring: RingId, b_ring: RingId) -> None:
    if a_ring is not b_ring:
        raise RingMismatch(f"mixed rings {a_ring.value} and {b_ring.value}")


def mat_apply(A: RMatrix, x: RVector) -> RVector:
    """(A x)_j = sum_i A[j,i] * x[i], matrix entry on the left."""
    _require_same_ring(A.ring, x.ring)
    if A.cols != len(x):
        raise DimensionMismatch(f"matrix has {A.cols} columns, vector length {len(x)}")
    return RVector(
        A.ring,
        tuple(sum_of_products(A.ring, A.row(j), x.entries) for j in range(A.rows)),
    )


def covec_apply(y: RVector, A: RMatrix) -> RVector:
    """(y A)_i = sum_j y[j] * A[j,i], row-vector entry on the left."""
    _require_same_ring(y.ring, A.ring)
    if len(y) != A.rows:
        raise DimensionMismatch(f"matrix has {A.rows} rows, vector length {len(y)}")
    n = A.cols
    return RVector(
        A.ring,
        tuple(sum_of_products(A.ring, y.entries, A.entries[i::n]) for i in range(n)),
    )


def dot_left(u: RVector, v: RVector) -> RingElement:
    """sum_i u[i] * v[i] with u's entry on the left of each product."""
    _require_same_ring(u.ring, v.ring)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum_of_products(u.ring, u.entries, v.entries)


def vec_add(u: RVector, v: RVector) -> RVector:
    _require_same_ring(u.ring, v.ring)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return RVector(u.ring, tuple(add(a, b) for a, b in zip(u, v)))


def vec_sub(u: RVector, v: RVector) -> RVector:
    _require_same_ring(u.ring, v.ring)
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return RVector(u.ring, tuple(sub(a, b) for a, b in zip(u, v)))


def vec_neg(v: RVector) -> RVector:
    return RVector(v.ring, tuple(neg(e) for e in v))


def scale_right(v: RVector, k: RingElement) -> RVector:
    """Entries v[i] * k with the scalar on the right."""
    _require_same_ring(v.ring, k.ring)
    return RVector(v.ring, tuple(mul(e, k) for e in v))


def vec_text(v: RVector) -> list[str]:
    return [to_text(e) for e in v]
