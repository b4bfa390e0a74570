"""Scalar modes, parsing, and generalized/Gaussian binomials."""

import math
import operator
import random
from fractions import Fraction

import pytest
from helpers import _add_scaled, view_key
from hypothesis import given, strategies as st

from umbralops.scalars import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    _combine,
    coerce,
    common_mode,
    format_scalar,
    gbinom,
    parse_scalar,
    qbinom,
    scalar_from_json,
    scalar_to_json,
)
from umbralops.operators import NormalForm, identity_op
from umbralops.polynomials import Polynomial
from umbralops.series import TruncatedSeries
from umbralops.umbral import UmbralSpec, umbral_garsia


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


def test_qbinom_at_minus_one_is_the_laurent_polynomial_value():
    # [3 choose 1]_q = [3 choose 2]_q = 1 + q + q^2; from p = 2 the product
    # formula divides by q^2 - 1, which vanishes at q = -1, so the value is
    # the polynomial's.  The oracle is q-Pascal at q = -1,
    # [s, p] = [s - 1, p - 1] + (-1)^p [s - 1, p], run up from s = 0 and
    # down to s = -8 from [s, 0] = 1
    q = Fraction(-1)
    assert qbinom(3, 1, q) == qbinom(3, 2, q) == 1
    table = {(0, p): int(p == 0) for p in range(10)}
    for s in range(1, 12):
        for p in range(10):
            table[s, p] = (table[s - 1, p - 1] if p else 0) + (-1) ** p * table[s - 1, p]
    for s in range(0, -8, -1):
        for p in range(10):
            table[s - 1, p] = (-1) ** p * (table[s, p] - (table[s - 1, p - 1] if p else 0))
    for (s, p), want in table.items():
        got = qbinom(s, p, q)
        assert type(got) is Fraction and got == want, (s, p)
    # float q <= 0 stays refused
    with pytest.raises(ValueError, match="q > 0"):
        qbinom(3, 2, -1.0)


@given(st.integers(-6, 6), st.integers(0, 5))
def test_gbinom_falling_factorial_property(s, k):
    s = Fraction(s)
    prod = Fraction(1)
    for i in range(k):
        prod *= s - i
    assert gbinom(s, k) == prod / math.factorial(k)


# -- the coefficient containers' shared ring core ---------------------------

CONTAINERS = {
    "series": lambda coeffs, mode: TruncatedSeries(coeffs, 5, mode),
    "polynomial": Polynomial,
}
RING_OPS = (operator.add, operator.sub, operator.mul)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("kind, other", [("series", "polynomial"), ("polynomial", "series")])
def test_containers_share_one_ring_core(kind, other, mode):
    make = CONTAINERS[kind]
    a = make([0, 3, 0, -2], mode)
    b = make([1, 0, 5], mode)
    foreign = CONTAINERS[other]([0, 3, 0, -2], mode)
    for op in RING_OPS:
        with pytest.raises(TypeError):
            op(a, foreign)
        with pytest.raises(TypeError):
            op(foreign, a)
    assert (a == foreign) is False
    assert (foreign == a) is False
    other_mode = FLOAT if mode == EXACT else EXACT
    for op in RING_OPS:
        with pytest.raises(ModeMismatchError):
            op(a, make([0, 1], other_mode))
    assert a.terms() == [(1, coerce(3, mode)), (3, coerce(-2, mode))]
    assert make([], mode).terms() == []
    assert a.valuation() == 1 and make([], mode).valuation() is None
    assert list(a + b) == list(make([1, 3, 5, -2], mode))
    assert a - b == a + (-b) == a + b.scale(-1) == a + (-1) * b
    assert 2 * a == a * 2 == a + a
    assert a * b == make([0, 3, 0, 13, 0, -10], mode)
    assert hash(a) == hash(make([0, 3, 0, -2], mode))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_series_of_different_orders_refuse_ring_operations(mode):
    a = TruncatedSeries([0, 1, 1], 4, mode)
    b = TruncatedSeries([0, 1, 1], 5, mode)
    for op in RING_OPS:
        with pytest.raises(ValueError, match="order mismatch"):
            op(a, b)


def _value_classes():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 4))
    return [
        TruncatedSeries.t(3),
        Polynomial.x(),
        identity_op(2),
        NormalForm({(1, 1): 1}),
        umbral_garsia(spec),
    ]


@pytest.mark.parametrize("value", _value_classes(), ids=lambda v: type(v).__name__)
def test_value_classes_refuse_attribute_assignment(value):
    name = type(value).__name__
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.mode = EXACT
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.extra = 1


def _random_view(rng, mode):
    """A random integer view of length 0..9: exact numerators over a
    denominator 1..60 (not reduced), or floats with zeros of both signs,
    inf, nan and huge values over 1."""
    n = rng.randint(0, 9)
    if mode == EXACT:
        return [rng.choice((0, 0, rng.randint(-10**6, 10**6))) for _ in range(n)], rng.randint(1, 60)
    pool = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308)
    return [rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-5, 5) for _ in range(n)], 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_combine_matches_the_running_accumulator_on_random_views(mode):
    # one common denominator taken once gives the running accumulator's
    # result: equal views in exact mode (not only equal values), the same
    # bits and entry types in float mode
    rng = random.Random(20)
    for _ in range(3000):
        acc = _random_view(rng, mode)
        terms = []
        for _ in range(rng.randint(1, 6)):
            if mode == EXACT:
                a, b = rng.choice((0, rng.randint(-10**4, 10**4))), rng.randint(1, 40)
            else:
                a, b = rng.choice((0.0, -0.0, math.inf, rng.uniform(-3, 3))), 1
            terms.append((a, b, _random_view(rng, mode)))
        size = rng.randint(0, 10)
        want = acc
        for a, b, power in terms:
            want = _add_scaled(want, a, b, power, size)
        assert view_key(_combine(acc, terms, size)) == view_key(want)
