"""Truncated series arithmetic, composition, inversion, transcendentals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ORACLE_ORDERS, assert_same_series, in_mode, oracle_generators
from umbralops import series as series_module
from umbralops.corpus import load_corpus, random_generators
from umbralops.scalars import EXACT, FLOAT, gbinom
from umbralops.series import PreconditionError, TruncatedSeries, series_from_tail
from umbralops.umbral import koenigs_coordinate

F = Fraction

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def series_strategy(order=6, first=None):
    def build(tail):
        if first is not None:
            tail = [first] + tail
        return series_from_tail(tail, order)

    n = order if first is None else order - 1
    return st.lists(rationals, min_size=n, max_size=n).map(build)


def test_constructor_pads_with_zeros():
    f = TruncatedSeries([1, 2], 4)
    assert f.coeffs == (F(1), F(2), F(0), F(0), F(0))


def test_constructor_rejects_overflow():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], 1)


def test_immutable():
    f = TruncatedSeries.t(3)
    with pytest.raises(AttributeError):
        f.order = 5


def test_add_requires_equal_orders():
    with pytest.raises(ValueError):
        TruncatedSeries.t(3) + TruncatedSeries.t(4)


def test_mul_truncates():
    f = TruncatedSeries([0, 1, 1], 3)
    g = f * f
    assert g.coeffs == (F(0), F(0), F(1), F(2))


def test_derivative_drops_order():
    f = TruncatedSeries([5, 1, 3, 7], 3)
    d = f.derivative()
    assert d.order == 2
    assert d.coeffs == (F(1), F(6), F(21))


def test_shift_down_requires_divisibility():
    f = TruncatedSeries([0, 0, 3, 1], 3)
    assert f.shift_down(2).coeffs == (F(3), F(1))
    with pytest.raises(PreconditionError):
        TruncatedSeries([1, 2], 3).shift_down(1)


def test_compose_requires_zero_constant():
    f = TruncatedSeries.one(3)
    with pytest.raises(PreconditionError):
        f.compose(TruncatedSeries.one(3))


def test_compose_geometric():
    # t/(1-t) composed with t/(1+t) is t
    f = TruncatedSeries([0] + [1] * 8, 8)
    g = TruncatedSeries([0] + [(-1) ** (n + 1) for n in range(1, 9)], 8)
    assert f.compose(g) == TruncatedSeries.t(8)


def test_comp_inverse_catalan_signs():
    f = TruncatedSeries([0, 1, 1], 6)
    inv = f.comp_inverse()
    assert inv.coeffs[:6] == (F(0), F(1), F(-1), F(2), F(-5), F(14))
    assert f.compose(inv) == TruncatedSeries.t(6)


def _comp_inverse_by_triangular_solve(f):
    """g[m] from the t^m coefficient of f(g) truncated at order m."""
    n = f.order
    g = [f[0]] * (n + 1)  # f(0) = 0
    g[1] = 1 / f[1]
    for m in range(2, n + 1):
        resid = f.truncate(m).compose(TruncatedSeries(g[: m + 1], m, f.mode))
        g[m] = -resid[m] / f[1]
    return TruncatedSeries(g, n, f.mode)


def _dense_generators(seed, order):
    """Three degree-8 generators with every tail coefficient nonzero, of
    multiplier 1, 2 and -1/2."""
    rng = random.Random(seed)
    out = []
    for q in (F(1), F(2), F(-1, 2)):
        tail = [q] + [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(7)]
        out.append(series_from_tail(tail, order))
    return out


@pytest.mark.parametrize("order", [12, 20, pytest.param(28, marks=pytest.mark.slow)])
def test_comp_inverse_equals_triangular_solve(order):
    gens = [f for _, f in load_corpus(order=order)] + _dense_generators(order, order)
    for f in gens:
        got = f.comp_inverse()
        assert got == _comp_inverse_by_triangular_solve(f)
        flt = TruncatedSeries([float(c) for c in f.coeffs], order, FLOAT).comp_inverse()
        # within 1e-12 of the exact inverse of the float input's exact value
        exact = TruncatedSeries([F(float(c)) for c in f.coeffs], order).comp_inverse()
        assert all(type(c) is float for c in flt.coeffs)
        assert all(abs(a - float(b)) <= 1e-12 * abs(float(b)) for a, b in zip(flt.coeffs, exact.coeffs))


def test_unit_inverse():
    f = TruncatedSeries([1, 1], 5)
    g = f.unit_inverse()
    assert g.coeffs == tuple(F((-1) ** n) for n in range(6))
    assert f * g == TruncatedSeries.one(5)


def test_exp_log_roundtrip():
    f = TruncatedSeries([0, 1, F(1, 2), F(-1, 3)], 7)
    assert f.exp().log1() == f


def test_exp_of_t_is_exponential():
    e = TruncatedSeries.t(5).exp()
    import math

    assert e.coeffs == tuple(F(1, math.factorial(n)) for n in range(6))


def test_pow_scalar_binomial():
    f = TruncatedSeries([1, 1], 5)
    sq = f.pow_scalar(F(1, 2))
    assert sq * sq == f


@settings(max_examples=40, deadline=None)
@given(series_strategy(first=F(1)), series_strategy(first=F(1)), series_strategy(first=F(1)))
def test_compose_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(1), F(2), F(-1), F(1, 3)]), series_strategy(order=5))
def test_comp_inverse_roundtrip(q, tail):
    f = TruncatedSeries([0, q] + list(tail.coeffs[2:]), 5)
    inv = f.comp_inverse()
    assert f.compose(inv) == TruncatedSeries.t(5)
    assert inv.compose(f) == TruncatedSeries.t(5)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(rationals, min_size=5, max_size=5),
    st.sampled_from([F(1, 2), F(2), F(-1), F(1, 3)]),
    st.sampled_from([F(1, 2), F(3), F(-2)]),
)
def test_pow_scalar_additivity(tail, a, b):
    f = TruncatedSeries([F(1)] + tail, 5)
    assert f.pow_scalar(a) * f.pow_scalar(b) == f.pow_scalar(a + b)


def test_series_from_tail():
    f = series_from_tail([1, F(1, 2)], 4)
    assert f.coeffs == (F(0), F(1), F(1, 2), F(0), F(0))
    with pytest.raises(ValueError):
        series_from_tail([1] * 5, 4)


def test_json_roundtrip():
    f = TruncatedSeries([0, 1, F(-1, 3)], 4)
    assert TruncatedSeries.from_json(f.to_json()) == f


# generator tails for the float-mode checks of the power-sum expansions
FLOAT_TAILS = (
    [F(1), F(1, 2), F(-1, 3)],
    [F(2), F(-1), F(1, 4), F(3)],
    [F(-1, 2), F(3, 4), F(0), F(-2)],
)


def assert_float_close_to_exact(got, want, tol=1e-9):
    """Every coefficient is a float within tol of the exact one, relative to
    the largest exact magnitude (at least 1)."""
    assert all(type(c) is float for c in got.coeffs)
    scale = max([1.0] + [abs(float(c)) for c in want.coeffs])
    assert all(abs(a - float(b)) <= tol * scale for a, b in zip(got.coeffs, want.coeffs))


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize("tail", FLOAT_TAILS)
def test_float_transcendentals_match_exact(tail, order):
    exact = series_from_tail(tail, order)
    flt = series_from_tail([float(c) for c in tail], order, "float")
    assert_float_close_to_exact(flt.exp(), exact.exp())
    unit_e = TruncatedSeries.one(order) + exact
    unit_f = TruncatedSeries.one(order, "float") + flt
    assert_float_close_to_exact(unit_f.log1(), unit_e.log1())
    for alpha in (F(1, 2), F(-3, 2)):
        assert_float_close_to_exact(unit_f.pow_scalar(float(alpha)), unit_e.pow_scalar(alpha))


# -- composition in the integer view against the Fraction loop --------------
#
# compose runs Horner on integer numerators.  The oracle is the loop it
# replaced: a series product and a constant added per coefficient.  Exact
# results must be equal and canonical, floats the same bits.


def _compose_loop(f, g):
    acc = TruncatedSeries.zero(f.order, f.mode)
    for c in reversed(f.coeffs):
        acc = acc * g
        if c != 0:
            acc = acc + TruncatedSeries([c], f.order, f.mode)
    return acc


def _koenigs_loop(f):
    q, n = f[1], f.order
    zero, one = (0.0, 1.0) if f.mode == FLOAT else (F(0), F(1))
    psi = [zero, one] + [zero] * (n - 1)
    for m in range(2, n + 1):
        psi[m] = _compose_loop(TruncatedSeries(psi[: m + 1], m, f.mode), f.truncate(m))[m] / (q - q**m)
    return TruncatedSeries(psi, n, f.mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_compose_matches_the_fraction_loop(order, mode):
    gens = [in_mode(f, mode) for _, f in load_corpus(order=order) + random_generators(7, 3, order)]
    for f in gens:
        h = TruncatedSeries([0, 0] + [3 * c for c in f.coeffs[2:]], order, mode)
        for g in (f, h, f.comp_inverse()):
            assert_same_series(f.compose(g), _compose_loop(f, g))
        assert_same_series(h.compose(f), _compose_loop(h, f))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_koenigs_coordinate_matches_the_fraction_loop(order, mode):
    for _, f in random_generators(7, 3, order) + load_corpus(order=order)[:3]:
        for q in (F(1, 2), F(2)):
            g = in_mode(TruncatedSeries([0, q] + list(f.coeffs[2:]), order), mode)
            assert_same_series(koenigs_coordinate(g), _koenigs_loop(g))


# -- the series power ladder against the Fraction loops it replaced ---------
#
# comp_inverse, exp, log1 and pow_scalar read their powers from
# series._int_powers and sum them on integer numerators.  The oracles are
# the loops they replaced: a series product per power, then scale and add.


def _power_sum_loop(u, acc, coeff):
    power = TruncatedSeries.one(u.order, u.mode)
    for k in range(1, u.order + 1):
        power = power * u
        if power.is_zero():
            break
        acc = acc + power.scale(coeff(k))
    return acc


def _exp_loop(f):
    one = TruncatedSeries.one(f.order, f.mode)
    return _power_sum_loop(f, one, lambda k: one[0] / math.factorial(k))


def _log1_loop(f):
    one = TruncatedSeries.one(f.order, f.mode)
    zero = TruncatedSeries.zero(f.order, f.mode)
    return _power_sum_loop(f - one, zero, lambda k: (one[0] if k % 2 else -one[0]) / k)


def _pow_scalar_loop(f, alpha):
    one = TruncatedSeries.one(f.order, f.mode)
    return _power_sum_loop(f - one, one, lambda k: gbinom(alpha, k))


def _comp_inverse_loop(f):
    hinv = f.shift_down(1).unit_inverse()
    power = TruncatedSeries.one(hinv.order, f.mode)
    g = [0.0 if f.mode == FLOAT else F(0)]
    for n in range(1, f.order + 1):
        power = power * hinv
        g.append(power.coeffs[n - 1] / n)
    return TruncatedSeries(g, f.order, f.mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_comp_inverse_exp_log_and_powers_match_the_fraction_loops(order, mode):
    one = TruncatedSeries.one(order, mode)
    for _, f in oracle_generators(order):
        f = in_mode(f, mode)
        assert_same_series(f.comp_inverse(), _comp_inverse_loop(f))
        assert_same_series(f.exp(), _exp_loop(f))
        # a sparse unit (the random generators) and a dense one
        for unit in (one + f, f.exp()):
            assert_same_series(unit.log1(), _log1_loop(unit))
            for alpha in (F(1, 2), F(-3), F(2, 7), F(-1, 3)):
                alpha = float(alpha) if mode == FLOAT else alpha
                assert_same_series(unit.pow_scalar(alpha), _pow_scalar_loop(unit, alpha))


def test_pow_scalar_reads_one_binomial_row(monkeypatch):
    rows = []
    real = series_module._qbinom_row

    def counted(s, q):
        rows.append(s)
        return real(s, q)

    monkeypatch.setattr(series_module, "_qbinom_row", counted)
    f = series_from_tail([1, F(1, 2), F(-1, 3)], 12)
    assert f.exp().pow_scalar(F(2, 7)) == (f.scale(F(2, 7))).exp()
    assert rows == [F(2, 7)]


def test_pow_scalar_keeps_finite_coefficients_when_a_binomial_overflows():
    # gbinom(1e300, k) is inf from k = 2 on; scaling u^2 by it and adding
    # every coefficient made inf * 0.0 = nan wherever u^2 is zero, t^0 too
    u = TruncatedSeries([1.0, 0.0, 1.0, 0.0, 1.0], 4, FLOAT)
    got = u.pow_scalar(1e300)
    assert got.coeffs == (1.0, 0.0, 1e300, 0.0, math.inf)
