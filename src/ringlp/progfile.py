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
free-form (the A block may span lines). Parsing is exact and errors carry
line/column positions; serialization re-emits the canonical form, so
parse(serialize(P)) == P.
"""

from __future__ import annotations

from ._records import record
from .affine import ProgramData
from .errors import ParseError
from .linalg import matrix, vector
from .rings import RingId, parse_element, to_text

__all__ = ["parse_program", "serialize_program", "load_program"]


@record
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        col = 1
        for piece in body.split():
            col = body.index(piece, col - 1) + 1
            tokens.append(_Token(piece, lineno, col))
            col += len(piece)
    return tokens


class _Reader:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def next(self, what: str) -> _Token:
        if self._pos >= len(self._tokens):
            last = self._tokens[-1] if self._tokens else None
            raise ParseError(
                f"unexpected end of file, expected {what}",
                line=last.line if last else 1,
                col=last.col if last else 1,
            )
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect_keyword(self, keyword: str) -> None:
        tok = self.next(f"keyword {keyword!r}")
        if tok.text != keyword:
            raise ParseError(
                f"expected keyword {keyword!r}, found {tok.text!r}",
                line=tok.line,
                col=tok.col,
            )

    def leftover(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None


def _read_positive_int(reader: _Reader, what: str) -> int:
    tok = reader.next(what)
    try:
        value = int(tok.text) if tok.text.isascii() and tok.text.isdigit() else 0
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ParseError(
            f"{what} {tok.text[:20]!r}... has {len(tok.text)} digits, more than int() converts",
            line=tok.line,
            col=tok.col,
        ) from None
    if value < 1:
        raise ParseError(
            f"{what} must be a positive integer, found {tok.text!r}",
            line=tok.line,
            col=tok.col,
        )
    return value


def _read_elements(reader: _Reader, ring: RingId, count: int, what: str) -> list:
    out = []
    for i in range(count):
        tok = reader.next(f"element {i} of {what}")
        try:
            out.append(parse_element(ring, tok.text))
        except ParseError as exc:
            raise ParseError(
                f"{what}[{i}]: {exc.args[0]}", line=tok.line, col=tok.col
            ) from None
    return out


def parse_program(text: str) -> ProgramData:
    """Parse a program file; raises ParseError with line/column."""
    reader = _Reader(_tokenize(text))
    reader.expect_keyword("ring")
    ring_tok = reader.next("ring id")
    try:
        ring = RingId(ring_tok.text)
    except ValueError:
        raise ParseError(
            f"unknown ring id {ring_tok.text!r}", line=ring_tok.line, col=ring_tok.col
        ) from None
    reader.expect_keyword("rows")
    rows = _read_positive_int(reader, "rows")
    reader.expect_keyword("cols")
    cols = _read_positive_int(reader, "cols")
    reader.expect_keyword("A")
    flat = _read_elements(reader, ring, rows * cols, "A")
    A = matrix(ring, (flat[j * cols : (j + 1) * cols] for j in range(rows)))
    reader.expect_keyword("b")
    b = vector(ring, _read_elements(reader, ring, rows, "b"))
    reader.expect_keyword("c")
    c = vector(ring, _read_elements(reader, ring, cols, "c"))
    reader.expect_keyword("d")
    d = _read_elements(reader, ring, 1, "d")[0]
    extra = reader.leftover()
    if extra is not None:
        raise ParseError(
            f"unexpected trailing content {extra.text!r}",
            line=extra.line,
            col=extra.col,
        )
    return ProgramData(ring, A, b, c, d)


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
