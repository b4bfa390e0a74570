"""The stored integer view of the coefficient containers.

``TruncatedSeries`` and ``Polynomial`` store one reduced integer view
``(nums, d)`` and build ``Fraction``s only when a caller reads values.  A
value built from ``Fraction``s and the same value built from any view of it
(unreduced, negative denominator, trailing zeros) must be one value; the view
a caller gets is a copy; and float containers keep the bits of the field
arithmetic that ran on stored floats before."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT
from umbralops.series import TruncatedSeries

F = Fraction

ORDERS = [12, 20, pytest.param(40, marks=pytest.mark.slow)]


def _rationals(rng, size, zero_share=0.3):
    return [
        F(0) if rng.random() < zero_share else F(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 6, 9, 10, 35)))
        for _ in range(size)
    ]


def _lcm_view(values):
    """The reduced view written out: numerators over the lcm of the
    denominators."""
    d = math.lcm(*[c.denominator for c in values])
    return [c.numerator * (d // c.denominator) for c in values], d


def _same_value(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.to_json() == want.to_json()
    assert got.int_view() == want.int_view()


@pytest.mark.parametrize("order", ORDERS)
def test_a_view_and_its_fractions_build_one_value(order):
    rng = random.Random(order)
    for _ in range(4):
        values = _rationals(rng, order + 1)
        nums, d = _lcm_view(values)
        f = TruncatedSeries(values, order)
        p = Polynomial(values)
        # unreduced, negated, and both
        for k in (1, 6, -1, -35):
            scaled = [x * k for x in nums]
            _same_value(TruncatedSeries._from_view(scaled, d * k, order, EXACT), f)
            tail = [0] * rng.randint(1, 3)
            _same_value(Polynomial._from_view(scaled + tail, d * k, EXACT), p)
        # the ring operations leave the view reduced: a sum whose values
        # share a factor with their common denominator
        g = TruncatedSeries([c + F(1, 2) for c in values], order)
        half = TruncatedSeries([F(1, 2)] * (order + 1), order)
        _same_value(g - half, f)
        _same_value((f.scale(F(4, 3)) * TruncatedSeries.one(order)).scale(F(3, 4)), f)
        assert Polynomial(values + [F(0), F(0)]).degree == p.degree
    # the zero values: an empty polynomial and an all-zero series over d = 1
    _same_value(Polynomial._from_view([0, 0], -7, EXACT), Polynomial.zero())
    zero = TruncatedSeries._from_view([0] * (order + 1), 12, order, EXACT)
    _same_value(zero, TruncatedSeries.zero(order))
    assert zero.int_view() == ([0] * (order + 1), 1)


@pytest.mark.parametrize("order", ORDERS)
def test_the_integer_view_is_a_copy(order):
    rng = random.Random(order + 1)
    values = _rationals(rng, order + 1, zero_share=0.1)
    values[-1] = F(5, 6)
    for build in (lambda: TruncatedSeries(values, order), lambda: Polynomial(values)):
        value = build()
        nums, d = value.int_view()
        first, _ = value.int_view(3)
        nums[0] += 1
        nums.append(7)
        first[:] = [9, 9, 9]
        assert value.int_view() == _lcm_view(values)
        assert value == build() and hash(value) == hash(build())
        assert value.coeffs == tuple(build().coeffs)
        doubled = value + value
        assert doubled.coeffs == tuple(2 * c for c in values[: len(doubled.coeffs)])


def _floats(rng, size):
    """Seeded floats with positive and negative zeros among them."""
    pool = [0.0, -0.0, 0.0, -0.0, 1.5, -2.25, 1e-300, -3.0e17]
    return [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-4, 4) for _ in range(size)]


def _trimmed(out):
    while out and out[-1] == 0:
        out.pop()
    return out


def _product_loop(a, b, size):
    out = [0.0] * size
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[: size - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def _hex(values):
    assert all(type(c) is float for c in values)
    return [c.hex() for c in values]


@pytest.mark.parametrize("order", ORDERS)
def test_float_operations_keep_the_field_arithmetic_bits(order):
    rng = random.Random(order + 2)
    for _ in range(4):
        a, b = _floats(rng, order + 1), _floats(rng, order + 1)
        f, g = TruncatedSeries(a, order, FLOAT), TruncatedSeries(b, order, FLOAT)
        cases = [
            (f + g, [x + y for x, y in zip(a, b)]),
            (f - g, [x - y for x, y in zip(a, b)]),
            (-f, [-x for x in a]),
            (f * g, _product_loop(a, b, order + 1)),
            (f.shift(3), ([0.0] * 3 + a)[: order + 1]),
            (f.truncate(order // 2), a[: order // 2 + 1]),
            (f.derivative(), [i * x for i, x in enumerate(a)][1:]),
        ]
        for c in (2.5, -1.0, -0.0, 3):
            cases.append((f.scale(c), [float(c) * x for x in a]))
        for got, want in cases:
            assert _hex(got.coeffs) == _hex(want)

        # polynomials of different lengths: the missing entries are 0.0
        a[-1], b[order // 2] = 1.25, -0.5
        p, q = Polynomial(a, FLOAT), Polynomial(b[: order // 2 + 1], FLOAT)
        a, b = list(p.coeffs), list(q.coeffs)
        cases = [
            (p + q, [x + y for x, y in zip_longest(a, b, fillvalue=0.0)]),
            (q - p, [y - x for x, y in zip_longest(a, b, fillvalue=0.0)]),
            (-q, [-y for y in b]),
            (p * q, _product_loop(a, b, len(a) + len(b) - 1)),
            (q.shift(2), [0.0] * 2 + b),
            (p.truncate(order // 3), a[: order // 3 + 1]),
            (p.derivative(), [i * x for i, x in enumerate(a)][1:]),
        ]
        for c in (2.5, -1.0, -0.0):
            cases.append((q.scale(c), [c * y for y in b]))
        for got, want in cases:
            assert _hex(got.coeffs) == _hex(_trimmed(want))
