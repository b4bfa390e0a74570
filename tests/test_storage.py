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
import operator
import random
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from helpers import (
    apply_ints_loop,
    assert_same_op,
    column_discrepancy_loop,
    columnwise_loop,
    first_discrepancy_loop,
    in_mode,
    mul_ints_loop,
    op_scale_loop,
    x_times_D_series,
)

from umbralops import operators
from umbralops.corpus import load_corpus, random_generators
from umbralops.operators import (
    NormalForm,
    OperatorMatrix,
    column_discrepancy,
    compose_ops,
    composition_operator,
    diag_op,
    exp_loc_nilpotent,
    first_discrepancy,
    gen_pow,
    log_unipotent,
    nth_pincherle,
    op_add,
    op_from_D_series,
    op_from_normal_form,
    op_from_x_series,
    op_scale,
    op_sub,
    normal_form,
    pincherle_derivative,
    series_in_operator,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT, _mul_ints, _nonzero, coerce
from umbralops.series import TruncatedSeries
from umbralops.umbral import CONSTRUCTIONS, UmbralSpec

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
            field = x_times_D_series(spec.itlog_series, n)
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


def _assert_view_paths_match_the_polynomial_path(U, V, scales):
    """first_discrepancy, op_add and op_sub of U and V both ways round, and
    op_scale of U by each of ``scales``, against the Polynomial-path oracles:
    equal indices, and equal operators (floats by ``float.hex``)."""
    for A, B in ((U, V), (V, U)):
        assert first_discrepancy(A, B) == first_discrepancy_loop(A, B)
        for op, view_op in ((operator.add, op_add), (operator.sub, op_sub)):
            assert_same_op(view_op(A, B), columnwise_loop(A, B, op))
    for c in scales:
        assert_same_op(op_scale(U, c), op_scale_loop(U, c))


def _scales(mode):
    return [3, F(-1, 2), 0] if mode == EXACT else [3.0, -0.5, 0.0, -0.0, 1 + 1e-12, 1 + 1e-6]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORDERS)
def test_kernel_results_sum_scale_and_compare_as_the_polynomial_path(order, mode):
    # each kernel result against its rebuild, its scalings (the float -0.0
    # leaves signed zeros above each column's degree; a float factor
    # 1 + 1e-12 stays within FLOAT_COLUMN_TOL, 1 + 1e-6 does not) and the
    # next result, whose shape differs
    ops = list(_kernel_results(order, mode))
    near = [F(-1, 2)] if mode == EXACT else [-0.0, 1 + 1e-12, 1 + 1e-6]
    for U, V in zip(ops, ops[1:] + ops[:1]):
        for W in [_rebuilt(U)] + [op_scale(U, c) for c in near]:
            _assert_view_paths_match_the_polynomial_path(U, W, ())
        _assert_view_paths_match_the_polynomial_path(U, V, _scales(mode))
        for n in range(min(U.window, V.window) + 1):
            a, b = U.col(n), V.col(n)
            assert column_discrepancy(a, b) == column_discrepancy_loop(a, b)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORDERS)
def test_operator_sums_and_scalings_store_reduced_views(order, mode):
    # op_add, op_sub, op_scale and the four power sums (exp, log, gen_pow and
    # h(Q)) store each column view reduced, gcd(d, *nums) = 1, as the
    # Polynomial columns they replaced were; a float view keeps d = 1.  The
    # power sums are taken on the multiplier-1 corpus: its expitlog matrices
    # (an exp), their logs, h(Q) = f(bucc) and the kernel's (e^x)^V; the
    # operands of the sums are those and the kernel results
    expitlog, bucc = CONSTRUCTIONS["expitlog"], CONSTRUCTIONS["bucc"]
    sums = []
    for _, f in load_corpus(order=order):
        if f[1] != 1:
            continue
        spec = UmbralSpec(in_mode(f, mode))
        n = spec.default_n_max()
        M = expitlog(spec).matrix
        V = op_from_D_series((spec.f - TruncatedSeries.t(order, mode)).truncate(n), n)
        exp_x = in_mode(TruncatedSeries([F(1, math.factorial(k)) for k in range(n + 1)], n), mode)
        sums += [M, log_unipotent(M), series_in_operator(spec.f.truncate(n), bucc(spec).matrix)]
        sums.append(gen_pow(op_from_x_series(exp_x, n, n), V))
    ops = list(_kernel_results(order, mode)) + sums
    stored = list(sums)
    for U, V in zip(ops, ops[1:] + ops[:1]):
        stored += [op_add(U, V), op_sub(U, V), op_sub(U, U)] + [op_scale(U, c) for c in _scales(mode)]
    for W in stored:
        for nums, d in W._views:
            assert d == 1 if mode == FLOAT else math.gcd(d, *nums) == 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORDERS)
def test_the_five_constructions_compare_as_the_polynomial_path(order, mode):
    # every pair of constructions of one generator (in float mode they drift
    # apart at high columns), and each against the next generator's garsia
    gens = load_corpus(order=order) + random_generators(7, 3, order)
    built = []
    for _, f in gens:
        spec = UmbralSpec(in_mode(f, mode))
        built.append([build(spec, spec.default_n_max()).matrix for build in CONSTRUCTIONS.values()])
    for ops, other in zip(built, built[1:] + built[:1]):
        for U in ops:
            for V in ops + other[:1]:
                assert first_discrepancy(U, V) == first_discrepancy_loop(U, V)


def test_exact_views_compare_and_sum_by_value():
    # unreduced and negative denominators and trailing zeros read as the
    # canonical columns [1, 2], [0, 1], 0
    U = OperatorMatrix._from_views([([2, 4], 2), ([0, -3, 0, 0], -3), ([0, 0], 5)], 2, 3, 2, True, EXACT)
    V = OperatorMatrix([Polynomial([1, 2]), Polynomial([0, 1]), Polynomial([])], 2, 3, 2)
    W = OperatorMatrix([Polynomial([1, 2]), Polynomial([0, 1, F(1, 7)]), Polynomial([])], 2, 3, 2)
    assert first_discrepancy(U, V) is None
    assert first_discrepancy(U, W) == first_discrepancy(W, U) == (1, 2)
    for A, B in ((U, V), (U, W), (W, U)):
        _assert_view_paths_match_the_polynomial_path(A, B, _scales(EXACT))
    assert_same_op(op_sub(U, V), OperatorMatrix([Polynomial()] * 3, 2, 3, 2))
    assert op_add(U, V).col(0) == Polynomial([2, 4])


def test_float_views_compare_and_sum_with_signed_zeros_and_non_finite_entries():
    nan, inf = float("nan"), float("inf")
    views = {
        "signed-zeros": ([-0.0, 1.5, -0.0], 1),
        "int-zeros": ([0, 1.5], 1),
        "positive-zeros": ([0.0, 1.5, 0.0, 0.0], 1),
        "inf": ([inf, 1.0], 1),
        "inf-again": ([inf, 1.0, -0.0], 1),
        "inf-other": ([inf, 2.0], 1),
        "minus-inf": ([-inf, 1.0], 1),
        "finite": ([1.0, 1.0], 1),
        "nan": ([nan, 1.0], 1),
        "nan-again": ([nan, 1.0], 1),
        "trailing-negative-zero": ([1.0, -0.0], 1),
        "interior-negative-zeros": ([-0.0, -0.0, 1.0], 1),
        "longer": ([0.0, 0.0, 2.0], 1),
    }
    ops = {
        name: OperatorMatrix._from_views([([1.0], 1), view], 1, 3, 1, True, FLOAT)
        for name, view in views.items()
    }
    for U in ops.values():
        for V in ops.values():
            _assert_view_paths_match_the_polynomial_path(U, V, _scales(FLOAT))
    # equal entries agree, inf included; an inf or a nan entry differs from
    # anything else, and the tolerance scales with the finite entries only,
    # so the finite entries beside an inf are compared as without it
    assert first_discrepancy(ops["signed-zeros"], ops["positive-zeros"]) is None
    assert first_discrepancy(ops["int-zeros"], ops["signed-zeros"]) is None
    assert first_discrepancy(ops["inf"], ops["inf-again"]) is None
    assert first_discrepancy(ops["inf"], ops["inf-other"]) == (1, 1)
    assert first_discrepancy(ops["nan"], ops["nan-again"]) == (1, 0)
    assert first_discrepancy(ops["inf"], ops["finite"]) == (1, 0)
    assert first_discrepancy(ops["inf"], ops["minus-inf"]) == (1, 0)
    # the field operation entry by entry: -0.0 - 0.0 is -0.0; a trailing
    # -0.0 is cut as the canonical column cuts it, so 0 - 0.0 is 0.0 there
    col = op_sub(ops["interior-negative-zeros"], ops["longer"]).col(1)
    assert [c.hex() for c in col.coeffs] == ["-0x0.0p+0", "-0x0.0p+0", (-1.0).hex()]
    col = op_sub(ops["trailing-negative-zero"], ops["longer"]).col(1)
    assert [c.hex() for c in col.coeffs] == [(1.0).hex(), "0x0.0p+0", (-2.0).hex()]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_an_incomplete_operand_caps_the_comparison_and_the_sum_at_max_out(mode):
    # the columns differ only above degree 2, where the incomplete operator
    # holds no coefficients
    one = coerce(1, mode)
    cols = [Polynomial([one] * (n + 1), mode) for n in range(4)]
    full = OperatorMatrix(cols, 3, 5, 3, True, mode)
    cut = OperatorMatrix([c.truncate(2) for c in cols], 3, 2, 3, False, mode)
    other = OperatorMatrix([c.scale(2) for c in cols], 3, 5, 3, True, mode)
    assert first_discrepancy(full, cut) is None
    assert first_discrepancy(full, other) == (0, 0)
    assert first_discrepancy(cut, op_scale(full, 1 + one)) == (0, 0)
    for U, V in ((full, cut), (cut, other), (full, other)):
        _assert_view_paths_match_the_polynomial_path(U, V, _scales(mode))
    assert op_add(full, cut).max_out == 2
    assert op_add(full, cut).col(3).degree == 2


def test_column_discrepancy_scales_the_float_tolerance_by_the_magnitude():
    # the CLI compares an ODE residual with zero at the tolerance of the
    # polynomial's largest coefficient
    resid, zero = Polynomial([0.0, 1e-3], FLOAT), Polynomial.zero(FLOAT)
    for magnitude, want in ((0, 1), (1e5, 1), (1e7, None)):
        assert column_discrepancy(resid, zero, magnitude) == want
        assert column_discrepancy_loop(resid, zero, magnitude) == want
    exact = Polynomial([0, F(1, 1000)])
    assert column_discrepancy(exact, Polynomial.zero(), 1e7) == 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_operator_sums_scaling_and_comparison_build_no_polynomial(mode, monkeypatch):
    # they read the stored views, so operators the kernels built run them
    # with Polynomial._from_view out of reach
    f = in_mode(TruncatedSeries([0, 1, 1, F(1, 3)], 8), mode)
    U = composition_operator(f, 8, 8)
    V = op_from_D_series(f, 8)
    W = compose_ops(V, V)

    def refuse(*args):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(Polynomial, "_from_view", classmethod(refuse))
    assert first_discrepancy(U, V) == (0, 0)
    assert first_discrepancy(W, W) is None
    for A, B in ((U, V), (V, W), (W, U)):
        op_add(A, B)
        op_sub(A, B)
        op_scale(A, 3)


# -- the kernels' walk over nonzero entries against the full loops ----------
#
# _mul_ints and _apply_ints visit only the nonzero pairs of their operands
# and skip vanished columns.  The oracles are the loops they replaced, which
# test every entry.  The float operands hold -0.0, inf, nan and int zeros, so
# any change in which entries are visited, or in what order, shows in the
# bits.

_FLOAT_SPECIALS = [-0.0, 0.0, 0, math.inf, -math.inf, math.nan, 1e-200, -1e300]


def _numerators(rng, size, mode):
    """A numerator list of ``size`` entries, about a third of them zero:
    ints, or floats with the specials and int zeros among them."""
    if mode == EXACT:
        return [0 if rng.random() < 0.35 else rng.randint(-40, 40) for _ in range(size)]
    return [
        rng.choice(_FLOAT_SPECIALS) if rng.random() < 0.2 else 0 if rng.random() < 0.3 else rng.uniform(-9, 9)
        for _ in range(size)
    ]


def _bits(entries):
    """The entries with their types, floats by ``float.hex``."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in entries]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("seed", range(4))
def test_mul_ints_on_nonzero_pairs_matches_the_full_loop(seed, mode):
    rng = random.Random(seed)
    for _ in range(300):
        a = _numerators(rng, rng.randint(0, 14), mode)
        b = _numerators(rng, rng.randint(0, 14), mode)
        size = rng.randint(0, 16)
        assert _bits(_mul_ints(a, _nonzero(b), size)) == _bits(mul_ints_loop(a, b, size))


def _column_views(rng, count, mode):
    """``count`` column views: random, all-zero (float -0.0 and 0.0 among
    them) or empty, over small denominators in exact mode and d = 1 in
    float mode."""
    views = []
    for _ in range(count):
        kind = rng.random()
        size = rng.randint(1, 12)
        if kind < 0.2:
            nums = []
        elif kind < 0.4:
            nums = [rng.choice((0, -0.0, 0.0)) if mode == FLOAT else 0 for _ in range(size)]
        else:
            nums = _numerators(rng, size, mode)
        views.append((nums, rng.choice((1, 2, 3, 6, 35)) if mode == EXACT else 1))
    return views


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("seed", range(4))
def test_apply_ints_on_nonzero_pairs_matches_the_full_loop(seed, mode):
    # the walk leaves vanished columns out of the lcm and the length, so its
    # denominator divides the loop's and the loop's extra entries are int
    # zeros; the values are equal, floats to the bit
    rng = random.Random(seed)
    for _ in range(200):
        cols = _column_views(rng, rng.randint(0, 10), mode)
        nums = _numerators(rng, rng.randint(0, 12), mode)
        e = rng.choice((1, 4, 15)) if mode == EXACT else 1
        got, d = operators._apply_ints(operators._nonzero_views(cols), nums, e)
        want, dw = apply_ints_loop(cols, nums, e)
        assert dw % d == 0 and len(got) <= len(want)
        assert all(type(v) is int and v == 0 for v in want[len(got) :])
        if mode == EXACT:
            assert [F(v, d) for v in got] == [F(v, dw) for v in want[: len(got)]]
        else:
            assert d == dw == 1
            assert _bits(got) == _bits(want[: len(got)])
