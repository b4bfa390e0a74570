"""Acceptance gate: the ten primary criteria, all at exact (zero) tolerance.

Each criterion prints one pass/fail line.  Run with `pytest -v` (add -s to
see the lines inline).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import split_by_multiplier
from umbralops.corpus import load_corpus
from umbralops.laguerre import (
    cross_sequence_check,
    degenerate_laguerre_explicit,
    laguerre_genfun_check,
    laguerre_ode_residual,
    laguerre_operator_paths,
    laguerre_p0_float_demo,
)
from umbralops.operators import (
    NormalForm,
    apply_op,
    compose_ops,
    d_power_op,
    diag_op,
    first_discrepancy,
    gen_pow,
    nth_pincherle,
    op_add,
    op_from_D_series,
    op_from_normal_form,
    op_from_x_poly,
    op_from_x_series,
)
from umbralops.polynomials import Polynomial
from umbralops.series import TruncatedSeries
from umbralops.umbral import (
    CONSTRUCTIONS,
    UmbralSpec,
    coeff_identity_scan,
    duality_check,
    extract_generator_field,
    frac_power,
    genfun_check,
    group_law_checks,
    itlog,
    julia_residual,
    pincherle_ode_residual,
    umbral_bucc,
    umbral_exp_itlog,
    umbral_garsia,
)

F = Fraction
ORDER = 12
CORPUS = load_corpus(order=ORDER)
TANGENT, GENERAL = split_by_multiplier(CORPUS)


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_cross_formula_agreement():
    start = time.monotonic()
    ok = True
    for name, f in CORPUS:
        spec = UmbralSpec(f)
        base = umbral_garsia(spec)
        assert base.matrix.window == 10
        for builder in CONSTRUCTIONS.values():
            other = builder(spec)
            if first_discrepancy(base.matrix, other.matrix) is not None:
                ok = False
    elapsed = time.monotonic() - start
    report(1, f"five constructions bit-identical on the corpus ({elapsed:.1f}s)", ok and elapsed < 10)


def test_criterion_2_duality():
    start = time.monotonic()
    ok = all(duality_check(UmbralSpec(f))["status"] == "exact-pass" for _, f in CORPUS)
    elapsed = time.monotonic() - start
    report(2, f"x/D-swap of the composition operator rebuilds the umbral matrix ({elapsed:.1f}s)", ok and elapsed < 5)


def test_criterion_3_field_extraction_and_julia():
    ok = True
    for name, f in TANGENT:
        spec = UmbralSpec(f)
        v = spec.itlog_series
        extracted = extract_generator_field(umbral_exp_itlog(spec))
        if extracted != v.truncate(extracted.order):
            ok = False
        if not julia_residual(f, v).is_zero():
            ok = False
    report(3, "extracted flow field equals the iterative logarithm; functional equation residual zero", ok)


def test_criterion_4_operator_ode():
    ok = all(
        pincherle_ode_residual(umbral_bucc(UmbralSpec(f))).is_window_zero()
        for _, f in CORPUS
    )
    report(4, "operator differential equation residual exactly zero on the window", ok)


def test_criterion_5_generating_function():
    ok = all(
        genfun_check(umbral_bucc(UmbralSpec(f)), 8)["status"] == "exact-pass"
        for _, f in CORPUS
    )
    report(5, "exponential generating function matches to t-order 8", ok)


def test_criterion_6_group_laws():
    ok = True
    for name, f in TANGENT:
        spec = UmbralSpec(f)
        half = frac_power(spec, F(1, 2)).matrix
        whole = umbral_bucc(spec, spec.default_n_max()).matrix
        if first_discrepancy(compose_ops(half, half), whole) is not None:
            ok = False
        for s, t in ((F(1, 2), F(1, 3)), (F(1, 2), F(-1)), (F(1, 3), F(-1))):
            if not group_law_checks(spec, s, t)["passed"]:
                ok = False
    for name, f in GENERAL:
        if not group_law_checks(UmbralSpec(f), 2, 3)["passed"]:
            ok = False
    report(6, "one-parameter group laws exact (powers, conjugation, diamond)", ok)


def test_criterion_7_coefficient_identity():
    ok = True
    for name, f in TANGENT:
        spec = UmbralSpec(f)
        for s in (F(1, 2), F(2), F(-1)):
            if coeff_identity_scan(spec, s, 8) is not None:
                ok = False
    for name, f in GENERAL:
        if f[1] != 2:
            continue
        spec = UmbralSpec(f)
        for s in (2, 3):
            if coeff_identity_scan(spec, s, 8) is not None:
                ok = False
    report(7, "fractional-power coefficient identity residual zero (n <= 8, all k)", ok)


def test_criterion_8_laguerre_grid():
    start = time.monotonic()
    ok = True
    for p in (1, 2, 3):
        for alpha in (-1, 0, 1, 2):
            a, b = laguerre_operator_paths(p, alpha, 10)
            if first_discrepancy(a, b) is not None:
                ok = False
            for n in range(11):
                if degenerate_laguerre_explicit(p, n, alpha) != apply_op(
                    b, Polynomial.monomial(n, 1)
                ):
                    ok = False
                if not laguerre_ode_residual(p, n, alpha).is_zero():
                    ok = False
        for alpha, beta in ((1, -1), (0, 2)):
            if cross_sequence_check(p, 7, alpha, beta)["status"] != "exact-pass":
                ok = False
        if laguerre_genfun_check(p, 1, 7)["status"] != "exact-pass":
            ok = False
    elapsed = time.monotonic() - start
    report(8, f"degenerate Laguerre grid: explicit = both operator paths, ODE, convolution, genfun ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_9_kernel_checks():
    ok = True
    rng = random.Random(0)
    # Leibniz-style expansion of U p(x) on 25 sparse operators
    for _ in range(25):
        table = {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(4)
        }
        U = op_from_normal_form(NormalForm(table), 12, 15)
        p = Polynomial([F(rng.randint(-3, 3)) for _ in range(4)])
        lhs = compose_ops(U, op_from_x_poly(p, 6))
        rhs = None
        for k in range(p.degree + 1):
            Uk = nth_pincherle(U, k)  # cross-checks both paths internally
            pk = p.derivative(k).scale(F(1, math.factorial(k)))
            if pk.is_zero():
                continue
            term = compose_ops(
                op_from_x_poly(pk, Uk.max_out),
                compose_ops(Uk, op_from_x_poly(Polynomial.one(), 6)),
            )
            rhs = term if rhs is None else op_add(rhs, term)
        if first_discrepancy(lhs, rhs) is not None:
            ok = False
    # x^n D^n is the falling factorial of the degree operator
    for n in range(5):
        lhs = compose_ops(op_from_x_poly(Polynomial.monomial(n, 1), 8), d_power_op(n, 8))
        falling = [math.prod(range(m, m - n, -1)) for m in range(9)]
        if first_discrepancy(lhs, diag_op(falling, 8)) is not None:
            ok = False
    # exponentiation identity on the f = t + t^2 instance
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], ORDER))
    n_max = spec.default_n_max()
    V = op_from_D_series(TruncatedSeries([0, 0, 1], n_max), n_max)
    exp_x = TruncatedSeries([F(1, math.factorial(k)) for k in range(n_max + 1)], n_max)
    lhs = gen_pow(op_from_x_series(exp_x, n_max, n_max), V)
    if first_discrepancy(lhs, umbral_bucc(spec, n_max).matrix) is not None:
        ok = False
    report(9, "operator-calculus kernel: Leibniz rule, dual derivative paths, falling factorial, exponentiation identity", ok)


def test_criterion_10_float_demos():
    demo = laguerre_p0_float_demo()
    ok = demo["status"] == "pass"
    f = TruncatedSeries([0.0, 2.0], ORDER, "float")
    v = itlog(f)
    err = max(abs(v[n] - (math.log(2.0) if n == 1 else 0.0)) for n in range(ORDER + 1))
    ok = ok and err <= 1e-12
    report(10, "float-mode demos within 1e-12 (scaling operator columns; scaling field)", ok)
