"""The stored integer view of the coefficient containers and operators.

``TruncatedSeries`` and ``Polynomial`` store one reduced integer view
``(nums, d)`` and build ``Fraction``s only when a caller reads values.  A
value built from ``Fraction``s and the same value built from any view of it
(unreduced, negative denominator, trailing zeros) must be one value; the view
a caller gets is a copy; and float containers keep the bits of the field
arithmetic that ran on stored floats before.  ``OperatorMatrix`` stores its
columns' views as the kernels leave them and builds canonical polynomial
columns on read, so an operator built from any views of its columns must
read as the one the public constructor validates, and a kernel must give
the same operator on either."""

import math
import random
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from helpers import assert_same_op, in_mode

from umbralops import operators
from umbralops.corpus import load_corpus, random_generators
from umbralops.operators import (
    NormalForm,
    OperatorMatrix,
    compose_ops,
    composition_operator,
    diag_op,
    exp_loc_nilpotent,
    gen_pow,
    log_unipotent,
    nth_pincherle,
    op_add,
    op_from_D_series,
    op_from_normal_form,
    op_from_x_series,
    op_sub,
    normal_form,
    pincherle_derivative,
    series_in_operator,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT
from umbralops.series import TruncatedSeries
from umbralops.umbral import CONSTRUCTIONS, UmbralSpec, _x_times_D_series

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


# -- operators: the stored column views ------------------------------------


def _predicates(U):
    return (
        U.is_window_zero(),
        U.is_val_nondecreasing(),
        U.lowers_degree_strictly(),
        U.raises_valuation_strictly(),
    )


def _same_operator(got, want):
    """Equal shape fields, columns (floats by ``float.hex``), JSON and
    structural predicates."""
    assert_same_op(got, want)
    assert got.to_json() == want.to_json()
    assert _predicates(got) == _predicates(want)


def _operator_columns(rng, n_in, max_out, mode):
    """Seeded column values: some columns zero, some starting at index n (so
    the predicates see both answers), floats with signed zeros."""
    shape = rng.choice(("zero", "valuation", "any"))
    cols = []
    for n in range(n_in + 1):
        size = rng.randint(0, max_out + 1)
        values = _rationals(rng, size) if mode == EXACT else _floats(rng, size)
        if shape == "zero":
            values = [0 * c for c in values]
        elif shape == "valuation":
            values[:n] = [0 * c for c in values[:n]]
        cols.append(values)
    return cols


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORDERS)
def test_an_operator_from_any_views_of_its_columns_reads_as_validated(order, mode):
    rng = random.Random(order + 3)
    for _ in range(12):
        n_in = rng.randint(0, order)
        max_out = n_in + rng.randint(0, 3)
        window, complete = rng.randint(0, n_in), rng.random() < 0.5
        values = _operator_columns(rng, n_in, max_out, mode)
        want = OperatorMatrix([Polynomial(v, mode) for v in values], n_in, max_out, window, complete, mode)
        if mode == EXACT:
            # unreduced, negated and both, with trailing zeros
            for k in (1, 6, -1, -35):
                views = []
                for v in values:
                    nums, d = _lcm_view(v) if v else ([], 1)
                    views.append(([x * k for x in nums] + [0] * rng.randint(0, 2), d * k))
                got = OperatorMatrix._from_views(views, n_in, max_out, window, complete, mode)
                _same_operator(got, want)
        else:
            # int zeros for +0.0, or the negated floats over d = -1; trailing
            # zeros of either sign
            tails = ([0], [0.0, -0.0], [-0.0], [])
            int_zeros = [([0 if c.hex() == "0x0.0p+0" else c for c in v] + rng.choice(tails), 1) for v in values]
            negated = [([-c for c in v] + rng.choice(tails), -1) for v in values]
            for views in (int_zeros, negated):
                got = OperatorMatrix._from_views(views, n_in, max_out, window, complete, mode)
                _same_operator(got, want)
                assert all(type(c) is float for col in got.cols for c in col.coeffs)


def _rebuilt(U):
    """U through the validating public constructor."""
    return OperatorMatrix(U.cols, U.n_in, U.max_out, U.window, U.complete, U.mode)


def _kernel_results(order, mode):
    """Operators from every kernel that stores views, on the first corpus
    generators and seeded random ones at ``order``."""
    for _, f in load_corpus(order=order)[:2] + random_generators(order, 2, order):
        spec = UmbralSpec(in_mode(f, mode))
        n = spec.default_n_max()
        built = [build(spec, n).matrix for build in CONSTRUCTIONS.values()]
        garsia, bucc = built[0], built[3]
        g = (spec.f - TruncatedSeries.t(order, mode)).truncate(n)
        V = op_from_D_series(g, n)
        exp_x = in_mode(TruncatedSeries([F(1, math.factorial(k)) for k in range(n + 1)], n), mode)
        C = composition_operator(spec.f, order, order)
        yield from built
        yield from islice(operators._int_op_powers(bucc), 4)
        # the duality check's rebuild of the swapped normal form of C
        swapped = normal_form(C).l_transform().table
        nf = NormalForm({(j, k): c for (j, k), c in swapped.items() if k <= n}, mode)
        yield from (V, C, op_from_normal_form(nf, n, n))
        yield from (compose_ops(garsia, bucc), compose_ops(op_from_x_series(g, n, n), bucc))
        yield from (pincherle_derivative(bucc), nth_pincherle(garsia, 3))
        yield series_in_operator(spec.f.truncate(n), bucc)
        yield gen_pow(op_from_x_series(exp_x, n, n), V)
        if spec.q == 1:
            field = _x_times_D_series(spec.itlog_series, n)
            yield from (field, exp_loc_nilpotent(field), log_unipotent(bucc))
    yield diag_op([F(-1, 3), 2, 0, F(5, 7)] if mode == EXACT else [-1.0, 2.5, -0.0, 0.0], 3, 5, mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORDERS)
def test_kernel_results_rebuild_through_the_public_constructor(order, mode):
    # the stored views may keep trailing zeros and unreduced denominators;
    # the columns they read as pass every check of the public constructor,
    # and a kernel on the canonical columns gives the same operator
    count = 0
    for U in _kernel_results(order, mode):
        W = _rebuilt(U)
        _same_operator(U, W)
        if U.n_in >= 1 and U.window >= 1:
            _same_operator(pincherle_derivative(U), pincherle_derivative(W))
        count += 1
    assert count > 40


@pytest.mark.parametrize("values, other, add", [(-1.0, 2.0, True), (-1.0, -3.0, False)])
def test_float_op_add_and_op_sub_give_positive_zeros_below_the_diagonal(values, other, add):
    # diag(-1.0) stores -0.0 below its diagonal; -0.0 + 0.0 and -0.0 - -0.0
    # are +0.0 in float arithmetic, which the columnwise polynomial sum keeps
    # (an accumulator that skipped the zeros of its addend would keep -0.0)
    U = diag_op([values] * 4, 3, mode=FLOAT)
    V = diag_op([other] * 4, 3, mode=FLOAT)
    assert U.col(3).coeffs[0].hex() == "-0x0.0p+0"
    W = op_add(U, V) if add else op_sub(U, V)
    diagonal = (values + other if add else values - other).hex()
    for n, col in enumerate(W.cols):
        assert [c.hex() for c in col.coeffs] == ["0x0.0p+0"] * n + [diagonal]
