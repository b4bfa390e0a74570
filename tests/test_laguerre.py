"""Degenerate Laguerre family: explicit sums, operator paths, identities."""

import random
from fractions import Fraction

import pytest
from helpers import laguerre_ode_chain, laguerre_sum_gbinom

from umbralops.laguerre import (
    LaguerreParams,
    _cross_sequence_report,
    _genfun_report,
    _ode_residual,
    cross_sequence_check,
    degenerate_laguerre_explicit,
    degenerate_laguerre_operator,
    frac_laguerre,
    laguerre_delta_series,
    laguerre_generator,
    laguerre_genfun_check,
    laguerre_ode_residual,
    laguerre_operator_paths,
    laguerre_p0_float_demo,
)
from umbralops.operators import apply_op, first_discrepancy
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT
from umbralops.series import PreconditionError, TruncatedSeries
from umbralops.umbral import UmbralSpec, flow, frac_power
from umbralops.verify import suite_laguerre

F = Fraction

# the oracle grid: every p, n and alpha below, in both modes
ORACLE_P = (1, 2, 3, 4)
ORACLE_N = range(17)
ORACLE_ALPHAS = (-1, 0, F(1, 2), F(-3, 4), 1, 2)
ORACLE_S = (1, F(1, 2), 2, -1)


def _in_mode(x, mode):
    return x if mode == EXACT else float(x)


def _assert_same_poly(got, want):
    """Equal canonical ``Fraction``s, or floats with the same bits."""
    assert got.mode == want.mode
    if got.mode == EXACT:
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.coeffs == want.coeffs
    else:
        assert all(type(c) is float for c in got.coeffs)
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs]


def test_params_validation():
    with pytest.raises(PreconditionError):
        LaguerreParams(0)
    with pytest.raises(PreconditionError):
        LaguerreParams(1, n=-1)


def test_generator_p1_is_geometric():
    g = laguerre_generator(1, 1, 6)
    assert g.coeffs == tuple(F(0) if n == 0 else F((-1) ** (n + 1)) for n in range(7))


def test_generator_p2_binomial_series():
    g = laguerre_generator(2, 1, 6)
    assert g.coeffs == (F(0), F(1), F(0), F(-1), F(0), F(3, 2), F(0))


def test_generator_s0_is_identity():
    assert laguerre_generator(2, 0, 5) == TruncatedSeries.t(5)


def test_generator_matches_flow():
    for p in (1, 2, 3):
        v = TruncatedSeries([0] * (p + 1) + [-1], 12)
        for s in (1, F(1, 2), F(-2, 3)):
            assert flow(v, s) == laguerre_generator(p, s, 12)


def test_delta_series_is_inverse_generator():
    for p in (1, 2, 3):
        f = laguerre_generator(p, 1, 10)
        assert laguerre_delta_series(p, 10) == f.comp_inverse()


def test_explicit_base_cases():
    assert degenerate_laguerre_explicit(1, 0, 0) == Polynomial([1])
    assert degenerate_laguerre_explicit(1, 2, 0) == Polynomial([0, -2, 1])
    assert degenerate_laguerre_explicit(2, 3, 0) == Polynomial([0, -6, 0, 1])


def test_operator_base_cases():
    assert degenerate_laguerre_operator(1, 1, 1) == Polynomial([-1, 1])
    assert degenerate_laguerre_operator(1, 3, 0) == Polynomial([0, 6, -6, 1])


def test_operator_paths_agree():
    for p in (1, 2):
        for alpha in (-1, 0, 2):
            a, b = laguerre_operator_paths(p, alpha, 8)
            assert first_discrepancy(a, b) is None


def test_explicit_equals_operator_grid():
    for p in (1, 2, 3):
        for alpha in (-1, 0, 1, 2):
            for n in range(8):
                assert degenerate_laguerre_explicit(
                    p, n, alpha
                ) == degenerate_laguerre_operator(p, n, alpha)


def test_ode_residual_zero():
    for p in (1, 2):
        for alpha in (-1, 0, 1, 2):
            for n in range(9):
                assert laguerre_ode_residual(p, n, alpha).is_zero()
    assert laguerre_ode_residual(2, 4, 1).is_zero()


def test_rational_alpha():
    # the coefficient sum is stated for arbitrary alpha
    poly = degenerate_laguerre_explicit(2, 4, F(1, 2))
    assert poly == degenerate_laguerre_operator(2, 4, F(1, 2))
    assert laguerre_ode_residual(2, 4, F(1, 2)).is_zero()


def test_cross_sequence():
    assert cross_sequence_check(1, 0, 2, 3)["status"] == "exact-pass"
    assert cross_sequence_check(1, 3, 1, -1)["status"] == "exact-pass"
    assert cross_sequence_check(2, 4, 0, 2)["status"] == "exact-pass"


def test_genfun():
    assert laguerre_genfun_check(1, 0, 6)["status"] == "exact-pass"
    assert laguerre_genfun_check(3, 1, 7)["status"] == "exact-pass"


def test_frac_laguerre_base_cases():
    assert frac_laguerre(2, 5, 0) == Polynomial.monomial(5, 1)
    assert frac_laguerre(2, 6, 1) == degenerate_laguerre_explicit(2, 6, 0)
    assert frac_laguerre(1, 3, F(1, 2)) == Polynomial([0, F(3, 2), -3, 1])


def test_frac_laguerre_matches_frac_power():
    for p in (1, 2):
        spec = UmbralSpec(laguerre_generator(p, 1, 12))
        for s in (F(1, 2), F(-1, 3), 2):
            P = frac_power(spec, s)
            for n in range(9):
                assert apply_op(
                    P.matrix, Polynomial.monomial(n, 1)
                ) == frac_laguerre(p, n, s)


def test_p0_float_demo():
    demo = laguerre_p0_float_demo()
    assert demo["status"] == "pass"
    assert demo["max_abs_error"] <= 1e-12


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_explicit_rows_match_the_gbinom_sum(mode):
    # the running falling factorial multiplies in gbinom's order, so even
    # the float bits are those of a fresh gbinom per coefficient
    for p in ORACLE_P:
        for n in ORACLE_N:
            for alpha in ORACLE_ALPHAS:
                a = _in_mode(alpha, mode)
                got = degenerate_laguerre_explicit(p, n, a, mode)
                _assert_same_poly(got, laguerre_sum_gbinom(p, n, a, 1, mode))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_frac_laguerre_matches_the_gbinom_sum(mode):
    for p in ORACLE_P:
        for n in ORACLE_N:
            for s in ORACLE_S:
                got = frac_laguerre(p, n, _in_mode(s, mode), mode)
                _assert_same_poly(got, laguerre_sum_gbinom(p, n, 0, _in_mode(s, mode), mode))


def _random_poly(rng, n, mode):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] + [1]
    return Polynomial([_in_mode(c, mode) for c in coeffs], mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_one_pass_ode_residual_matches_the_derivative_chain(mode):
    # on the explicit rows, where both vanish in exact mode, and on seeded
    # polynomials of the same degree, where every factor of the one-pass
    # formula shows
    rng = random.Random(19)
    for p in ORACLE_P:
        for n in ORACLE_N:
            for alpha in ORACLE_ALPHAS:
                a = _in_mode(alpha, mode)
                row = degenerate_laguerre_explicit(p, n, a, mode)
                for poly in (row, _random_poly(rng, n, mode)):
                    got = _ode_residual(poly, p, n, a)
                    want = laguerre_ode_chain(poly, p, n, a)
                    if mode == EXACT:
                        _assert_same_poly(got, want)
                        continue
                    # the explicit rows' residuals cancel to rounding noise,
                    # so the scale is their largest coefficient; a seeded
                    # polynomial's residual does not cancel
                    biggest = max(abs(c) for c in poly.coeffs + want.coeffs)
                    size = max(len(got.coeffs), len(want.coeffs))
                    worst = max((abs(got.coeff(j) - want.coeff(j)) for j in range(size)), default=0.0)
                    assert worst <= 1e-12 * biggest
                if mode == EXACT:
                    assert laguerre_ode_residual(p, n, a, mode).is_zero()


def test_ode_residual_of_a_wrong_index_is_nonzero():
    # the residual is a real check: row n of one alpha fails the ODE of
    # index n + 1, and for n >= p, where alpha enters the row, the ODE of
    # another alpha
    for p in (1, 2, 3):
        for n in range(p, 9):
            row = degenerate_laguerre_explicit(p, n, 1)
            assert not _ode_residual(row, p, n + 1, 1).is_zero()
            assert not _ode_residual(row, p, n, 2).is_zero()


def test_check_cores_on_rows_match_the_public_checks():
    for p in (1, 2, 3):
        rows = {a: [degenerate_laguerre_explicit(p, n, a) for n in range(9)] for a in (-1, 0, 1, 2)}
        for alpha, beta in ((1, -1), (0, 2), (2, -1)):
            core = _cross_sequence_report(rows[alpha + beta][6], rows[alpha], rows[beta], 6)
            assert core == cross_sequence_check(p, 6, alpha, beta)
            assert core["status"] == "exact-pass"
            # the (alpha + beta)-member is the only one that convolves
            wrong = _cross_sequence_report(rows[alpha][6], rows[alpha], rows[beta], 6)
            assert wrong["status"] == "fail"
        for alpha in (0, 1):
            core = _genfun_report(p, alpha, rows[alpha][:8])
            assert core == laguerre_genfun_check(p, alpha, 7)
            assert core["status"] == "exact-pass"
        assert _genfun_report(p, 1, rows[0][:8])["status"] == "fail"


def test_suite_laguerre_items_equal_the_public_checks():
    # the suite reads one table of rows per p; its cross-sequence and genfun
    # items are those of the public checks, which build their own rows
    items = suite_laguerre(None, 12, 7)
    assert all(it["status"] == "exact-pass" for it in items)
    cross = {it["case"]: it for it in items if it["identity"] == "laguerre-cross-sequence"}
    genfun = {it["case"]: it for it in items if it["identity"] == "laguerre-genfun"}
    for p in (1, 2, 3):
        for alpha, beta in ((1, -1), (0, 2)):
            rep = cross_sequence_check(p, 6, alpha, beta)
            it = cross[f"p={p},alpha={alpha},beta={beta}"]
            assert (it["status"], it["first_discrepancy"]) == (rep["status"], rep["first_discrepancy"])
        rep = laguerre_genfun_check(p, 1, 7)
        it = genfun[f"p={p},alpha=1"]
        assert (it["status"], it["first_discrepancy"]) == (rep["status"], rep["first_discrepancy"])
