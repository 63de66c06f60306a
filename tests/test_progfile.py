import pytest

from ringlp import (
    POLY_X,
    ParseError,
    load_program,
    parse_program,
    serialize_program,
)

from conftest import FIXTURES, make_edt_program


def test_parse_the_gap_fixture(gap_int):
    P = load_program(FIXTURES / "ce_sd.prog")
    assert P == gap_int


def test_parse_the_edt_fixture(edt_int):
    P = load_program(FIXTURES / "edt_fail.prog")
    assert P == edt_int


def test_poly_matrix_entry():
    text = "ring poly\nrows 1\ncols 1\nA poly:0,1\nb poly:1\nc poly:1\nd poly:0\n"
    P = parse_program(text)
    assert P.A.entry(0, 0) == POLY_X


def test_comments_and_free_whitespace():
    text = """
    # free-form layout
    ring int
    rows 2   cols 1
    A 2
      -2    # row two
    b 1 -1
    c 0
    d 0
    """
    P = parse_program(text)
    assert P == make_edt_program()


@pytest.mark.parametrize(
    "fixture",
    [
        "ce_sd.prog",
        "ce_sd_rat.prog",
        "edt_fail.prog",
        "edt_fail_rat.prog",
        "edt_fail_transposed.prog",
        "gap_oddrat.prog",
        "gap_poly.prog",
        "gap_skew.prog",
    ],
)
def test_every_shipped_fixture_round_trips(fixture):
    P = load_program(FIXTURES / fixture)
    assert parse_program(serialize_program(P)) == P
    # serialization is a fixed point of its own parse
    assert serialize_program(parse_program(serialize_program(P))) == serialize_program(P)


def test_dimension_error_carries_position():
    text = "ring int\nrows 3\ncols 1\nA 2 -2 4\nb 1 -1\nc 0\nd 0\n"
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    assert excinfo.value.line is not None
    assert "b[2]" in str(excinfo.value)


def test_unknown_ring_id():
    with pytest.raises(ParseError) as excinfo:
        parse_program("ring gauss\nrows 1\ncols 1\nA 1\nb 1\nc 1\nd 0\n")
    assert "unknown ring id" in str(excinfo.value)


def test_malformed_literal_with_position():
    with pytest.raises(ParseError) as excinfo:
        parse_program("ring int\nrows 1\ncols 1\nA 1/2\nb 1\nc 1\nd 0\n")
    assert excinfo.value.line == 4


@pytest.mark.parametrize(
    "text, position, where",
    [
        (f"ring int\nrows 1\ncols 1\nA   {'7' * 5000}\nb 1\nc 1\nd 0\n", (4, 5), "A[0]"),
        (f"ring int\nrows {'7' * 5000}\ncols 1\nA 1\nb 1\nc 1\nd 0\n", (2, 6), "rows"),
    ],
    ids=["A-entry", "rows"],
)
def test_over_long_integer_is_a_parse_error_with_position(text, position, where):
    """More digits than int() converts (4,300 by default) is a ParseError
    at the token, not a bare ValueError."""
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    assert (excinfo.value.line, excinfo.value.col) == position
    assert where in str(excinfo.value) and "5000 digits" in str(excinfo.value)


def test_even_oddrat_denominator_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_program("ring oddrat\nrows 1\ncols 1\nA 1/2\nb 1\nc 1\nd 0\n")
    assert "even" in str(excinfo.value)


def test_trailing_content_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_program("ring int\nrows 1\ncols 1\nA 1\nb 1\nc 1\nd 0\nextra\n")
    assert "trailing" in str(excinfo.value)


def test_missing_section_rejected():
    with pytest.raises(ParseError):
        parse_program("ring int\nrows 1\ncols 1\nA 1\nb 1\nd 0\n")


@pytest.mark.parametrize("count", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_counts_rejected_with_position(count):
    with pytest.raises(ParseError) as excinfo:
        parse_program(f"ring int\nrows {count}\ncols 1\nA 1\nb 1\nc 1\nd 0\n")
    assert (excinfo.value.line, excinfo.value.col) == (2, 6)


def test_zero_rows_rejected():
    with pytest.raises(ParseError):
        parse_program("ring int\nrows 0\ncols 1\nA\nb\nc 1\nd 0\n")


def test_serialized_form_is_canonical(gap_int):
    assert serialize_program(gap_int) == (
        "ring int\nrows 1\ncols 1\nA\n2\nb 1\nc 1\nd 0\n"
    )


_HEAD = "ring int\nrows 1\ncols 1\n"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "unexpected end of file, expected keyword 'ring'", (1, 1)),
        ("# nothing\n\n", "unexpected end of file, expected keyword 'ring'", (1, 1)),
        ("ring", "unexpected end of file, expected ring id", (1, 1)),
        ("ring int", "unexpected end of file, expected keyword 'rows'", (1, 6)),
        ("ring int\nrows", "unexpected end of file, expected rows", (2, 1)),
        ("ring int\nrows 1", "unexpected end of file, expected keyword 'cols'", (2, 6)),
        ("ring int\nrows 1\ncols", "unexpected end of file, expected cols", (3, 1)),
        (_HEAD, "unexpected end of file, expected keyword 'A'", (3, 6)),
        (_HEAD + "A", "unexpected end of file, expected element 0 of A", (4, 1)),
        ("ring int\nrows 1\ncols 2\nA 1", "unexpected end of file, expected element 1 of A", (4, 3)),
        (_HEAD + "A 1\nb", "unexpected end of file, expected element 0 of b", (5, 1)),
        (_HEAD + "A 1\nb 1\nc", "unexpected end of file, expected element 0 of c", (6, 1)),
        (_HEAD + "A 1\nb 1\nc 1\nd", "unexpected end of file, expected element 0 of d", (7, 1)),
        ("ring int\ncolumns 1\n", "expected keyword 'rows', found 'columns'", (2, 1)),
        ("ring gauss\nrows 1\ncols 1\nA 1\nb 1\nc 1\nd 0\n", "unknown ring id 'gauss'", (1, 6)),
        ("ring int\nrows 0\ncols 1\nA\nb\nc 1\nd 0\n", "rows must be a positive integer, found '0'", (2, 6)),
        ("ring int\nrows 1\ncols ٣\nA 1\nb 1\nc 1\nd 0\n", "cols must be a positive integer, found '٣'", (3, 6)),
        (
            f"ring int\nrows 1\ncols {'9' * 5000}\n",
            "cols '99999999999999999999'... has 5000 digits, more than int() converts",
            (3, 6),
        ),
        ("ring int\nrows 1\ncols 2\nA 1 1/2\nb 1\nc 1 1\nd 0\n", "A[1]: malformed integer literal '1/2'", (4, 5)),
        (_HEAD + "A 1\nb   x\nc 1\nd 0\n", "b[0]: malformed integer literal 'x'", (5, 5)),
        (
            "ring oddrat\nrows 1\ncols 1\nA 1\nb 1\nc 1/4\nd 0\n",
            "c[0]: '1/4': 1/4 has an even denominator; not an odd-denominator rational",
            (6, 3),
        ),
        (
            "ring poly\nrows 1\ncols 1\nA poly:1\nb poly:1\nc poly:1\nd poly:\n",
            "d[0]: poly literal needs at least one coefficient",
            (7, 3),
        ),
        (_HEAD + "A 1\nb 1\nc 1\nd 0\n  extra # comment\n", "unexpected trailing content 'extra'", (8, 3)),
    ],
    ids=[
        "empty",
        "comment-only",
        "after-ring",
        "after-ring-id",
        "after-rows",
        "after-rows-count",
        "after-cols",
        "after-cols-count",
        "after-A",
        "inside-A",
        "after-b",
        "after-c",
        "after-d",
        "wrong-keyword",
        "unknown-ring",
        "rows-zero",
        "non-ascii-count",
        "over-long-count",
        "bad-A",
        "bad-b",
        "bad-c",
        "bad-d",
        "trailing",
    ],
)
def test_every_reader_error_keeps_its_message_and_position(text, message, position):
    """The exact message and (line, col) of each reader error; an end of
    file points at the last token, or at (1, 1) when there is none."""
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    assert excinfo.value.args[0] == message
    assert (excinfo.value.line, excinfo.value.col) == position
    assert str(excinfo.value) == f"line {position[0]}, col {position[1]}: {message}"
