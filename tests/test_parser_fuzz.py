"""Every parser of outside input either parses or raises ValueError, quickly.

The text strategies mix arbitrary text with near-miss inputs built from the
parsers' own alphabets, so that most examples get past the first check.
Each example must finish within the deadline: a parser that builds something
proportional to a number in its input would miss it.  Integers (orders,
``--n`` ends, ``--k`` values) are ASCII ``-?[0-9]+`` only, like the numbers
of the scalar token grammar: ``int`` alone would also take ``+1``, ``1_0``
and non-ASCII digits.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertrop import Matrix, Scalar, parse_matrix, parse_scalar
from supertrop.classical import parse_rational_matrix
from supertrop.cli import parse_ks, parse_n_range, parse_probs
from supertrop.harness import ORDER_CAPS

fuzz = settings(max_examples=200, deadline=5000)

numbers = st.tuples(st.integers(-(10**14), 10**14), st.none() | st.integers(0, 10**6)).map(
    lambda t: str(t[0]) if t[1] is None else f"{t[0]}/{t[1]}"
)
decimals = st.tuples(st.integers(0, 999), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}")
spaces = st.sampled_from(["", " ", "\t"])
orders = st.integers(-(10**12), 10**12).map(str)
n_ranges = st.tuples(spaces, orders, st.none() | orders, spaces).map(
    lambda t: t[0] + (t[1] if t[2] is None else f"{t[1]}..{t[2]}") + t[3]
)
tokens = st.one_of(
    numbers.map(lambda s: s + "t"),
    numbers.map(lambda s: s + "g"),
    st.just("e"),
    st.text(alphabet="0123456789-/.+_tge", max_size=6),
)


def near_miss(pieces, separator):
    return st.lists(pieces, max_size=5).map(separator.join)


def matrix_texts(entries):
    """An order line and up to four rows of entries, sometimes ragged."""
    return st.tuples(
        st.one_of(st.integers(-1, 4).map(str), st.text(max_size=3)),
        st.lists(st.lists(entries, max_size=4).map(" ".join), max_size=4),
    ).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")


def ascii_integer(text):
    return re.fullmatch(r"-?[0-9]+", text) is not None


def order_line(text):
    return next(line.strip() for line in text.splitlines() if line.strip())


def parses_or_value_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@fuzz
@given(st.one_of(st.text(), tokens, st.text(alphabet="0123456789-/etg \t", max_size=10)))
def test_parse_scalar(text):
    result = parses_or_value_error(parse_scalar, text)
    assert result is None or isinstance(result, Scalar)


@fuzz
@given(st.one_of(st.text(), matrix_texts(tokens)))
@example("\u0661\n3t\n")  # an Arabic-Indic one as the order
def test_parse_matrix(text):
    result = parses_or_value_error(parse_matrix, text)
    assert result is None or (isinstance(result, Matrix) and ascii_integer(order_line(text)))


@fuzz
@given(st.one_of(st.text(), matrix_texts(st.one_of(numbers, st.text(max_size=4)))))
@example("+1\n3\n")
def test_parse_rational_matrix(text):
    result = parses_or_value_error(parse_rational_matrix, text)
    assert result is None or (
        all(len(row) == len(result) for row in result) and ascii_integer(order_line(text))
    )


@fuzz
@given(st.one_of(st.text(), near_miss(st.one_of(numbers, decimals), ",")))
def test_parse_probs(text):
    result = parses_or_value_error(parse_probs, text)
    assert result is None or len(result) == 3


@fuzz
@given(st.one_of(st.text(), n_ranges))
# Both of these once built a tuple of 10**9 orders before any check ran.
@example("1..1000000000")
@example("-1000000000..1")
@example("1_0")
def test_parse_n_range(text):
    result = parses_or_value_error(parse_n_range, text)
    assert result is None or (
        result == tuple(range(result[0], result[-1] + 1))
        and 1 <= result[0] <= result[-1] <= max(ORDER_CAPS.values())
        and all(ascii_integer(end) for end in text.strip().split(".."))
    )


@fuzz
@given(st.one_of(st.text(), near_miss(st.integers(-(10**20), 10**20).map(str), ",")))
@example("+2")
def test_parse_ks(text):
    result = parses_or_value_error(parse_ks, text)
    assert result is None or (
        result == tuple(sorted(set(result)))
        and all(ascii_integer(part.strip()) for part in text.split(","))
    )
