import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_secretary.errors import CycleError, EmptyPosetError, PosetFileError
from poset_secretary.families import boolean_lattice, chain, random_poset, wedge
from poset_secretary.posetfile import format_poset_text, parse_poset_relations, parse_poset_text
from poset_secretary.posets import from_relations


def test_parse_basic_document():
    p = parse_poset_text("poset n=3\n0 < 1\n0 < 2\n")
    assert p == wedge()


def test_comments_and_blank_lines_ignored():
    text = """
    # a wedge
    poset n=3

    0 < 1   # left arm
    0 < 2
    """
    assert parse_poset_text(text) == wedge()


def test_non_cover_relations_accepted():
    # redundant pair is fine; the closure absorbs it
    p = parse_poset_text("poset n=3\n0 < 1\n1 < 2\n0 < 2\n")
    assert p == chain(3)


def test_relations_before_header_rejected():
    with pytest.raises(PosetFileError, match="line 1"):
        parse_poset_text("0 < 1\nposet n=2\n")


def test_missing_header_rejected():
    with pytest.raises(PosetFileError, match="header"):
        parse_poset_text("# only a comment\n")


def test_malformed_relation_line():
    with pytest.raises(PosetFileError, match="line 2"):
        parse_poset_text("poset n=2\n0 > 1\n")


def test_duplicate_header_is_a_bad_relation_line():
    with pytest.raises(PosetFileError, match="line 2"):
        parse_poset_text("poset n=2\nposet n=3\n")


@pytest.mark.parametrize("text, lineno", [("poset n=" + "9" * 5000, 1),
                                          ("poset n=2\n0 < 1\n" + "9" * 5000 + " < 1", 3),
                                          ("poset n=2\n0 < " + "9" * 5000, 2)],
                         ids=["header", "relation_left", "relation_right"])
def test_a_number_past_the_digit_limit_is_a_file_error(text, lineno):
    # int() refuses more than sys.get_int_max_str_digits() digits with ValueError
    with pytest.raises(PosetFileError, match=f"line {lineno}: a number of 5000 digits"):
        parse_poset_relations(text)


def test_out_of_range_index_propagates():
    with pytest.raises(IndexError):
        parse_poset_text("poset n=2\n0 < 5\n")


def test_cycle_propagates():
    with pytest.raises(CycleError):
        parse_poset_text("poset n=2\n0 < 1\n1 < 0\n")


def test_zero_elements_rejected():
    with pytest.raises(EmptyPosetError):
        parse_poset_text("poset n=0\n")


def test_format_is_cover_relations_only():
    text = format_poset_text(chain(3))
    assert text == "poset n=3\n0 < 1\n1 < 2\n"


def test_format_singleton():
    assert format_poset_text(chain(1)) == "poset n=1\n"


@pytest.mark.parametrize(
    "p",
    [
        chain(1),
        chain(6),
        wedge(),
        boolean_lattice(3),
        from_relations(5, [(0, 2), (1, 2), (2, 4)]),
    ],
)
def test_round_trip_preserves_poset_and_indices(p):
    assert parse_poset_text(format_poset_text(p)) == p


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_round_trip_on_random_posets(seed, n):
    p = random_poset(n, 0.4, seed=seed)
    assert parse_poset_text(format_poset_text(p)) == p
