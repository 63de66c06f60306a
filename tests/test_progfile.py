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
