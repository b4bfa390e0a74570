"""Scalar modes, parsing, and generalized/Gaussian binomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from umbralops.scalars import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    coerce,
    common_mode,
    format_scalar,
    gbinom,
    parse_scalar,
    qbinom,
    scalar_from_json,
    scalar_to_json,
)


def test_coerce_exact_accepts_ints_and_fractions():
    assert coerce(3, EXACT) == Fraction(3)
    assert coerce(Fraction(1, 2), EXACT) == Fraction(1, 2)


def test_coerce_exact_rejects_floats():
    with pytest.raises(ModeMismatchError):
        coerce(0.5, EXACT)


def test_coerce_float():
    assert coerce(3, FLOAT) == 3.0
    # Fractions never silently become floats; conversions are explicit
    with pytest.raises(ModeMismatchError):
        coerce(Fraction(1, 2), FLOAT)


def test_common_mode_rejects_mixing():
    with pytest.raises(ModeMismatchError):
        common_mode(EXACT, FLOAT)
    assert common_mode(EXACT, EXACT) == EXACT


def test_parse_and_format_roundtrip():
    for text in ("1/3", "-7/2", "0", "12"):
        assert format_scalar(parse_scalar(text, EXACT)) == str(Fraction(text))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("one half", EXACT)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
def test_parse_float_rejects_non_finite(text):
    with pytest.raises(ValueError, match="non-finite"):
        parse_scalar(text, FLOAT)


def test_scalar_json_exact_is_string():
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_from_json("1/3", EXACT) == Fraction(1, 3)
    assert scalar_to_json(0.5) == 0.5


def test_gbinom_integer_matches_comb():
    for n in range(8):
        for k in range(8):
            assert gbinom(Fraction(n), k) == math.comb(n, k)


def test_gbinom_rational():
    # (1/2 choose 2) = (1/2)(-1/2)/2 = -1/8
    assert gbinom(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_qbinom_at_q1_is_gbinom():
    for s in (Fraction(1, 2), Fraction(3), Fraction(-2)):
        for k in range(5):
            assert qbinom(s, k, Fraction(1)) == gbinom(s, k)


def _qbinom_bruteforce(n, k, q):
    # product formula for nonnegative integers
    num = Fraction(1)
    for i in range(k):
        num *= (q ** (n - i) - 1) / (q ** (i + 1) - 1)
    return num


def test_qbinom_matches_product_formula():
    q = Fraction(2)
    for n in range(7):
        for k in range(n + 1):
            assert qbinom(Fraction(n), k, q) == _qbinom_bruteforce(n, k, q)


def test_qbinom_pascal_recurrence():
    q = Fraction(3)
    for n in range(1, 7):
        for k in range(1, n + 1):
            lhs = qbinom(Fraction(n), k, q)
            rhs = qbinom(Fraction(n - 1), k - 1, q) + q**k * qbinom(
                Fraction(n - 1), k, q
            )
            assert lhs == rhs


def test_qbinom_negative_top():
    # extension used by the coefficient identity: integer top of any sign
    q = Fraction(2)
    val = qbinom(Fraction(-1), 1, q)
    assert val == (q ** Fraction(-1).numerator - 1) / (q - 1)


@given(st.integers(-6, 6), st.integers(0, 5))
def test_gbinom_falling_factorial_property(s, k):
    s = Fraction(s)
    prod = Fraction(1)
    for i in range(k):
        prod *= s - i
    assert gbinom(s, k) == prod / math.factorial(k)
