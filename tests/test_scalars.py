from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupconvex.scalars import (
    as_int,
    format_dyadic,
    format_rational,
    int_root_floor,
    is_dyadic,
    parse_scalar,
    root_lower,
    root_upper,
)


def test_parse_scalar_forms():
    assert parse_scalar("7") == 7
    assert parse_scalar("-3") == -3
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("3/2^2") == Fraction(3, 4)
    assert parse_scalar("-5/2^3") == Fraction(-5, 8)


def test_as_int_names_a_fraction_as_text():
    assert as_int(Fraction(6, 3)) == 2
    with pytest.raises(ValueError, match="^1/2 is not an integer scalar$"):
        as_int(Fraction(1, 2))


def test_format_dyadic():
    assert format_dyadic(Fraction(3, 4)) == "3/2^2"
    assert format_dyadic(Fraction(5)) == "5"
    assert format_dyadic(Fraction(0)) == "0"
    assert format_dyadic(Fraction(-1, 2)) == "-1/2^1"


def test_format_dyadic_rejects_non_dyadic():
    with pytest.raises(ValueError):
        format_dyadic(Fraction(1, 3))


@given(st.integers(-2 ** 40, 2 ** 40), st.integers(0, 40))
def test_dyadic_round_trip(num, exp):
    q = Fraction(num, 2 ** exp)
    assert is_dyadic(q)
    assert parse_scalar(format_dyadic(q)) == q


def bitwise_root(n, m):
    """floor(n ** (1/m)), each bit of the root set from the top when it fits."""
    r = 0
    for bit in reversed(range(n.bit_length() // m + 1)):
        if (r | 1 << bit) ** m <= n:
            r |= 1 << bit
    return r


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(0, 10 ** 12), st.integers(0, 2 ** 10000)),
    st.one_of(st.integers(1, 7), st.integers(1, 256)),
)
def test_int_root_floor(n, m):
    r = int_root_floor(n, m)
    assert r ** m <= n < (r + 1) ** m
    assert r == bitwise_root(n, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2 ** 80), st.integers(1, 256))
def test_int_root_floor_next_to_perfect_powers(r, m):
    for n in (r ** m - 1, r ** m, r ** m + 1):
        assert int_root_floor(n, m) == bitwise_root(n, m)


@settings(deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4),
        st.builds(lambda p, k: Fraction(p, 2 ** k), st.integers(0, 2 ** 600), st.integers(0, 600)),
    ),
    st.one_of(st.integers(1, 8), st.integers(1, 200)),
)
def test_root_bounds_bracket_the_root(q, m):
    lo = root_lower(q, m)
    hi = root_upper(q, m)
    assert lo <= hi
    assert lo ** m <= q <= hi ** m


def test_root_exact_when_rational():
    assert root_upper(Fraction(1, 4), 2) == Fraction(1, 2)
    assert root_lower(Fraction(1, 4), 2) == Fraction(1, 2)
    assert root_upper(Fraction(8, 27), 3) == Fraction(2, 3)
    assert root_upper(Fraction(0), 5) == 0


def test_format_rational():
    assert format_rational(Fraction(1, 4)) == "1/4"
    assert format_rational(Fraction(3)) == "3"
