"""Line-oriented program file format.

    # comments run to end of line
    ring int|rat|oddrat|poly|skew
    rows M
    cols N
    A   followed by M*N whitespace-separated element literals (row-major)
    b   M literals
    c   N literals
    d   one literal

Element literals use the ring grammar of :mod:`ringlp.rings`. Whitespace is
free-form (the A block may span lines). ``parse_program`` reads the file as
one stream of ``(text, line, col)`` tokens, taking each with ``next()``.
Parsing is exact and each error carries the line and column of the token
it names; at the end of the file, of the last token read (1, 1 when there
is none). Serialization re-emits the canonical form, so
parse(serialize(P)) == P.
"""

from __future__ import annotations

from typing import Iterator

from .affine import ProgramData
from .errors import ParseError
from .linalg import matrix, vector
from .rings import RingId, parse_element, to_text

__all__ = ["parse_program", "serialize_program", "load_program"]


def _tokens(text: str) -> Iterator[tuple[str, int, int]]:
    """Each whitespace-separated token outside the comments, with its
    1-based line and column."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        col = 0
        for piece in body.split():
            col = body.index(piece, col)
            yield piece, lineno, col + 1
            col += len(piece)


def parse_program(text: str) -> ProgramData:
    """Parse a program file; raises ParseError with line/column."""
    tokens = _tokens(text)
    at = (1, 1)  # line and column of the last token read

    def take(what: str) -> str:
        nonlocal at
        token = next(tokens, None)
        if token is None:
            raise ParseError(f"unexpected end of file, expected {what}", *at)
        found, at = token[0], token[1:]
        return found

    def expect(keyword: str) -> None:
        found = take(f"keyword {keyword!r}")
        if found != keyword:
            raise ParseError(f"expected keyword {keyword!r}, found {found!r}", *at)

    expect("ring")
    found = take("ring id")
    try:
        ring = RingId(found)
    except ValueError:
        raise ParseError(f"unknown ring id {found!r}", *at) from None
    counts = []
    for name in ("rows", "cols"):
        expect(name)
        found = take(name)
        try:
            value = int(found) if found.isascii() and found.isdigit() else 0
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ParseError(
                f"{name} {found[:20]!r}... has {len(found)} digits, more than int() converts", *at
            ) from None
        if value < 1:
            raise ParseError(f"{name} must be a positive integer, found {found!r}", *at)
        counts.append(value)
    rows, cols = counts
    blocks = []
    for name, size in (("A", rows * cols), ("b", rows), ("c", cols), ("d", 1)):
        expect(name)
        block = []
        for i in range(size):
            found = take(f"element {i} of {name}")
            try:
                block.append(parse_element(ring, found))
            except ParseError as exc:
                raise ParseError(f"{name}[{i}]: {exc.args[0]}", *at) from None
        blocks.append(block)
    extra = next(tokens, None)
    if extra is not None:
        raise ParseError(f"unexpected trailing content {extra[0]!r}", *extra[1:])
    flat, b, c, (d,) = blocks
    A = matrix(ring, (flat[j * cols : (j + 1) * cols] for j in range(rows)))
    return ProgramData(ring, A, vector(ring, b), vector(ring, c), d)


def serialize_program(P: ProgramData) -> str:
    """Canonical text of a program; parse_program inverts it exactly."""
    lines = [
        f"ring {P.ring.value}",
        f"rows {P.rows}",
        f"cols {P.cols}",
        "A",
    ]
    for j in range(P.rows):
        lines.append(" ".join(to_text(e) for e in P.A.row(j)))
    lines.append("b " + " ".join(to_text(e) for e in P.b))
    lines.append("c " + " ".join(to_text(e) for e in P.c))
    lines.append("d " + to_text(P.d))
    return "\n".join(lines) + "\n"


def load_program(path) -> ProgramData:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())
