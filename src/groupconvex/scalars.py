"""Exact scalar arithmetic helpers.

All quantities in this package are arbitrary-precision integers or
`fractions.Fraction` values; nothing here ever touches floating point.
Dyadic rationals are Fractions whose denominator is a power of two --
`Fraction` keeps them in lowest terms, so the numerator is odd whenever
the exponent is positive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def as_int(value) -> int:
    """Coerce an exact scalar to int, rejecting genuine fractions."""
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, str):
        return as_int(parse_scalar(value))
    raise ValueError(f"{value} is not an integer scalar")


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def dyadic_exponent(q: Fraction) -> int:
    """k such that q = p / 2^k in lowest terms (0 for integers)."""
    if not is_dyadic(q):
        raise ValueError(f"{q} is not a dyadic rational")
    return q.denominator.bit_length() - 1


# largest k of a "p/2^k" literal: 64 times the 2^14 that the 14 squarings of a
# capped midpoint recursion take 1/2 to; such a literal parses in milliseconds
_EXPONENT_CAP = 1 << 20


def parse_scalar(text: str) -> Fraction:
    """Parse "p", "p/q" or "p/2^k" into an exact Fraction; a k outside
    [0, ``_EXPONENT_CAP``], or the exponent notation ``Fraction`` reads
    ("1e100000000" is 10^(10^8)), is refused before any power is computed."""
    text = text.strip()
    if "/2^" in text:
        num, _, exp = text.partition("/2^")
        k = int(exp)
        if not 0 <= k <= _EXPONENT_CAP:
            raise ValueError(f"the exponent k of p/2^k must lie in [0, {_EXPONENT_CAP}], got {k}")
        return Fraction(int(num), 2 ** k)
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not an exact scalar literal: {text!r}")
    return Fraction(text)


def format_dyadic(q: Fraction) -> str:
    """Render a dyadic rational in the canonical "p/2^k" notation."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/2^{dyadic_exponent(q)}"


def format_rational(q: Scalar) -> str:
    return str(Fraction(q))


# bits of a root found one at a time before Newton's method takes over
_SEED_BITS = 12


def int_root_floor(n: int, m: int) -> int:
    """floor(n ** (1/m)) for n >= 0, m >= 1, in exact integer arithmetic."""
    if n < 0:
        raise ValueError("negative radicand")
    if m < 1:
        raise ValueError("root index must be positive")
    if m == 1 or n in (0, 1):
        return n
    # the floor root r of n's leading bits, set bit by bit from the top
    shift = max(0, -(-n.bit_length() // m) - _SEED_BITS)
    top = n >> (m * shift)
    r = 0
    for bit in reversed(range(-(-top.bit_length() // m))):
        if (r | 1 << bit) ** m <= top:
            r |= 1 << bit
    if shift == 0:
        return r
    # n < ((r + 1) << shift) ** m, and integer Newton steps from any x above
    # the floor root decrease strictly until they reach it
    x = (r + 1) << shift
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


# binary digits of the certified root bounds: both are multiples of 2^-_ROOT_BITS
_ROOT_BITS = 24


def _exact_root(q: Fraction, m: int) -> Fraction | None:
    rd = int_root_floor(q.denominator, m)
    if rd ** m != q.denominator:
        return None
    rn = int_root_floor(q.numerator, m)
    return Fraction(rn, rd) if rn ** m == q.numerator else None


def _scaled_root_floor(q: Fraction, m: int) -> int:
    """floor(2^_ROOT_BITS * q ** (1/m)), as floor(x ** (1/m)) = floor(floor(x) ** (1/m))."""
    return int_root_floor((q.numerator << (_ROOT_BITS * m)) // q.denominator, m)


def root_upper(q: Fraction, m: int) -> Fraction:
    """Certified rational upper bound on q ** (1/m) (exact when the root is rational)."""
    if q < 0:
        raise ValueError("negative radicand")
    exact = _exact_root(q, m)
    if exact is not None:
        return exact
    # an irrational root is never a multiple of 2^-_ROOT_BITS
    return Fraction(_scaled_root_floor(q, m) + 1, 1 << _ROOT_BITS)


def root_lower(q: Fraction, m: int) -> Fraction:
    """Certified rational lower bound on q ** (1/m) (exact when the root is rational)."""
    if q < 0:
        raise ValueError("negative radicand")
    exact = _exact_root(q, m)
    if exact is not None:
        return exact
    return Fraction(_scaled_root_floor(q, m), 1 << _ROOT_BITS)
