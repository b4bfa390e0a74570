"""Operator matrices: windows, Pincherle calculus, normal forms, powers."""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    ORACLE_ORDERS,
    assert_same_op,
    in_mode,
    nth_pincherle_explicit_loop,
    op_inverse_loop,
    pincherle_loop,
    x_times_D_series,
)
from umbralops import operators, polynomials, scalars
from umbralops.operators import (
    NormalForm,
    OperatorMatrix,
    PreconditionError,
    WindowUnderflowError,
    apply_op,
    compose_ops,
    composition_operator,
    d_op,
    d_power_op,
    diag_op,
    exp_loc_nilpotent,
    first_discrepancy,
    gen_pow,
    identity_op,
    km_operator,
    log_unipotent,
    normal_form,
    nth_pincherle,
    op_add,
    op_from_D_series,
    op_from_normal_form,
    op_from_x_poly,
    op_from_x_series,
    op_inverse,
    op_scale,
    op_sub,
    ops_equal,
    pincherle_derivative,
    series_in_operator,
    x_op,
    xD_op,
    zero_op,
)
from umbralops.corpus import load_corpus, random_generators
from umbralops.laguerre import _lag_field_op
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT
from umbralops.series import TruncatedSeries, series_from_tail
from umbralops.umbral import UmbralSpec, itlog, umbral_bucc, umbral_garsia

F = Fraction


def test_identity_and_apply():
    I = identity_op(4)
    p = Polynomial([1, 2, 3])
    assert apply_op(I, p) == p


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_diag_op_coerces_each_value_once(mode, monkeypatch):
    # the columns are built from one coerced value each; through a scaled
    # monomial they took n + 2 coerce calls each, 252 for identity_op(20)
    calls = []
    real = scalars.coerce

    def counted(value, m):
        calls.append(value)
        return real(value, m)

    for module in (scalars, polynomials, operators):
        monkeypatch.setattr(module, "coerce", counted)
    values = [(-1) ** n * F(n, 3) for n in range(21)]
    if mode == FLOAT:
        values = [float(v) for v in values]
    identity = identity_op(20, 24, mode)
    assert len(calls) == 21
    diagonal = diag_op(values, 20, mode=mode)
    assert len(calls) == 42
    monkeypatch.undo()
    assert (identity.n_in, identity.max_out, identity.window) == (20, 24, 20)
    assert (diagonal.n_in, diagonal.max_out, diagonal.window) == (20, 20, 20)
    for U, entries in ((identity, [1] * 21), (diagonal, values)):
        assert U.complete and U.mode == mode
        for n, col in enumerate(U.cols):
            # repr tells the signed float zeros apart
            want = Polynomial.monomial(n, 1, mode).scale(entries[n])
            assert [repr(c) for c in col.coeffs] == [repr(c) for c in want.coeffs]


def test_apply_respects_window():
    I = identity_op(2)
    with pytest.raises(WindowUnderflowError):
        apply_op(I, Polynomial.monomial(3, 1))


def test_d_op_differentiates():
    D = d_op(5)
    p = Polynomial([0, 0, 0, 1])  # x^3
    assert apply_op(D, p) == Polynomial([0, 0, 3])


def test_commutator_D_x_is_identity():
    n = 5
    Dx = compose_ops(d_op(n + 1), x_op(n))
    xD = compose_ops(x_op(n - 1), d_op(n))
    comm = op_sub(Dx, xD)
    assert first_discrepancy(comm, identity_op(n - 1)) is None


def test_pincherle_of_D_power():
    # second derivative of D^3 is 6D
    U = d_power_op(3, 8)
    out = nth_pincherle(U, 2)
    expected = op_scale(d_op(out.n_in), 6)
    assert first_discrepancy(out, expected) is None


def test_pincherle_of_xD():
    U = xD_op(6)
    out = pincherle_derivative(U)
    assert first_discrepancy(out, x_op(out.n_in)) is None


def test_nth_pincherle_paths_cross_check():
    # nth_pincherle raises if the iterated and explicit paths disagree
    rng = random.Random(3)
    for _ in range(10):
        table = {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(3)
        }
        U = op_from_normal_form(NormalForm(table), 10, 13)
        nth_pincherle(U, 3)


def test_pincherle_is_derivation():
    A = op_from_normal_form(NormalForm({(1, 2): F(1), (0, 1): F(2)}), 10, 12)
    B = op_from_normal_form(NormalForm({(2, 1): F(1, 2), (1, 0): F(-1)}), 8, 10)
    lhs = pincherle_derivative(compose_ops(A, B))
    rhs = op_add(
        compose_ops(pincherle_derivative(A), B),
        compose_ops(A, pincherle_derivative(B)),
    )
    assert first_discrepancy(lhs, rhs) is None


def test_composition_operator_columns_are_powers():
    g = TruncatedSeries([0, 1, 1], 8)
    C = composition_operator(g, 4, 8)
    assert C.col(2) == Polynomial([0, 0, 1, 2, 1])


def test_composition_operator_identity_and_scaling():
    assert first_discrepancy(
        composition_operator(TruncatedSeries.t(4), 4), identity_op(4)
    ) is None
    C = composition_operator(TruncatedSeries([0, 3], 4), 4)
    assert C.col(2) == Polynomial([0, 0, 9])


def test_exp_loc_nilpotent_matches_hand_example():
    # exp(-x D^2) on x^2 gives x^2 - 2x
    A = op_scale(compose_ops(x_op(3), d_power_op(2, 4)), -1)
    E = exp_loc_nilpotent(A)
    assert apply_op(E, Polynomial.monomial(2, 1)) == Polynomial([0, -2, 1])


def test_exp_log_roundtrip():
    A = compose_ops(x_op(5), d_power_op(2, 6))
    E = exp_loc_nilpotent(A)
    assert first_discrepancy(log_unipotent(E), A) is None
    assert first_discrepancy(exp_loc_nilpotent(log_unipotent(E)), E) is None


def test_log_of_shift_is_D():
    # C_g for g = t + 1 is not valid (needs g(0)=0); use normal form of shift:
    # the shift operator E = e^D has log D
    expD = op_from_D_series(
        TruncatedSeries([F(1, math.factorial(k)) for k in range(7)], 6), 6
    )
    L = log_unipotent(expD)
    assert first_discrepancy(L, d_op(6)) is None


def test_normal_form_of_D_and_xD():
    assert normal_form(d_op(6)).table == {(0, 1): F(1)}
    assert normal_form(xD_op(6)).table == {(1, 1): F(1)}


def test_normal_form_of_composition_operator_is_two_sided():
    g = TruncatedSeries([0, 1, 1], 16)
    C = composition_operator(g, 8, 16)
    nf = normal_form(C)
    # columns of (g(x)-x)^k D^k / k! pattern: only entries at (2k, k)
    for (j, k), c in nf.table.items():
        if (j, k) == (0, 0):
            assert c == 1
        else:
            assert j == 2 * k
            assert c == F(1, math.factorial(k))


def test_normal_form_roundtrip():
    nf = NormalForm({(0, 0): F(1), (2, 1): F(-1, 2), (1, 3): F(5)})
    U = op_from_normal_form(nf, 10, 12)
    assert normal_form(U, k_max=3, j_max=3) == nf


def test_l_transform_involution_and_swap():
    nf = NormalForm({(1, 2): F(3), (0, 1): F(-1)})
    swapped = nf.l_transform()
    assert swapped.table == {(2, 1): F(3), (1, 0): F(-1)}
    assert swapped.l_transform() == nf


def test_l_transform_anti_multiplicative():
    nfa = NormalForm({(1, 1): F(1)})  # xD
    nfb = NormalForm({(0, 1): F(1)})  # D
    A = op_from_normal_form(nfa, 12, 16)
    B = op_from_normal_form(nfb, 10, 12)
    prod = normal_form(compose_ops(A, B), k_max=6, j_max=16)
    lhs = op_from_normal_form(prod.l_transform(), 6, 16)
    LA = op_from_normal_form(nfa.l_transform(), 8, 12)
    LB = op_from_normal_form(nfb.l_transform(), 6, 8)
    rhs = compose_ops(LB, LA)
    assert first_discrepancy(lhs, rhs) is None


def test_boole_falling_factorial():
    n0 = 8
    for n in range(5):
        lhs = compose_ops(
            op_from_x_poly(Polynomial.monomial(n, 1), n0), d_power_op(n, n0)
        )
        falling = [math.prod(range(m, m - n, -1)) for m in range(n0 + 1)]
        assert first_discrepancy(lhs, diag_op(falling, n0)) is None


def test_gen_pow_zero_exponent_is_identity():
    base = op_from_D_series(TruncatedSeries([1, 1], 5), 5)
    out = gen_pow(base, zero_op(5, 5), term_bound=8)
    assert first_discrepancy(out, identity_op(5)) is None


def test_gen_pow_realizes_scaling_operator():
    # lambda^(xD) has columns lambda^n x^n; realize it with base = the
    # constant-series operator lambda and exponent xD
    lam = F(3)
    base = op_from_D_series(TruncatedSeries([lam], 6), 6)
    out = gen_pow(base, xD_op(6), term_bound=9)
    expected = diag_op([lam**n for n in range(7)], 6)
    assert first_discrepancy(out, expected) is None


def test_gen_pow_placement_matters():
    # swapping (U-1)^m and the binomial factor changes the result
    n0 = 6
    base = op_from_D_series(TruncatedSeries([1, -1], n0), n0)
    expo = xD_op(n0)
    left = gen_pow(base, expo, term_bound=n0 + 2)
    um1 = op_sub(base, identity_op(n0, n0))
    right = identity_op(n0, n0)
    power = identity_op(n0, n0)
    bino = identity_op(n0, n0)
    for m in range(1, n0 + 3):
        power = compose_ops(power, um1)
        shifted = op_sub(expo, op_scale(identity_op(n0, n0), m - 1))
        bino = op_scale(compose_ops(bino, shifted), F(1, m))
        right = op_add(right, compose_ops(bino, power))
    assert first_discrepancy(left, right) is not None


def test_op_inverse():
    # a degree-preserving triangular operator with unit diagonal
    A = op_scale(compose_ops(x_op(5), d_power_op(2, 6)), -1)
    C = exp_loc_nilpotent(A)
    inv = op_inverse(C)
    assert first_discrepancy(compose_ops(inv, C), identity_op(6)) is None


def _assert_same_inverse(got, want):
    """Exact inverses are equal to the last bit; float ones agree within the
    column tolerance."""
    if got.mode == EXACT:
        assert_same_op(got, want)
    else:
        assert (got.n_in, got.max_out, got.window, got.complete) == (
            want.n_in, want.max_out, want.window, want.complete
        )
        assert first_discrepancy(got, want) is None


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", [12, 20])
def test_op_inverse_matches_back_substitution_on_bucc_matrices(order, mode):
    # the upward pass: column n of bucc has degree n
    for name, f in load_corpus(order=order):
        U = umbral_bucc(UmbralSpec(in_mode(f, mode))).matrix
        _assert_same_inverse(op_inverse(U), op_inverse_loop(U))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_op_inverse_matches_back_substitution_on_composition_operators(mode):
    # the downward pass; order 12 only, as back-substitution is exponential
    # in the order on a valuation-nondecreasing operator
    for name, f in load_corpus(order=12):
        C = composition_operator(in_mode(f, mode), 12, 12)
        _assert_same_inverse(op_inverse(C), op_inverse_loop(C))


@pytest.mark.parametrize("order", [12, 20, pytest.param(40, marks=pytest.mark.slow)])
def test_op_inverse_is_the_operator_of_the_inverse_series(order):
    # C_g^-1 = C_{g^-1}, and phi_f^-1 = phi_{f^-1} (Roman, The Umbral
    # Calculus, 1984, ch. 3)
    for name, f in load_corpus(order=order) + random_generators(7, 3, order):
        spec = UmbralSpec(f)
        inv = UmbralSpec(spec.f_inverse)
        C = composition_operator(f, order, order)
        assert_same_op(op_inverse(C), composition_operator(inv.f, order, order))
        assert_same_op(op_inverse(umbral_bucc(spec).matrix), umbral_garsia(inv).matrix)


def test_op_inverse_refuses_an_operator_that_is_not_triangular():
    # back-substitution never returned on it
    U = OperatorMatrix([Polynomial([1, 2]), Polynomial([3, 1])], 1, 1, 1)
    with pytest.raises(PreconditionError, match="not invertibly triangular"):
        op_inverse(U)
    with pytest.raises(PreconditionError, match="not invertibly triangular"):
        op_inverse(diag_op([1, 0, 2], 2))


def test_op_inverse_refuses_columns_beyond_the_window():
    f = TruncatedSeries([0, 1, 1], 10)
    with pytest.raises(WindowUnderflowError, match="beyond the window"):
        op_inverse(composition_operator(f, 5, 10))
    with pytest.raises(WindowUnderflowError, match="beyond the window"):
        op_inverse(OperatorMatrix([Polynomial([1]), Polynomial([0, 1])], 1, 1, 0))


def test_km_single_term_identity():
    Q = d_op(5)
    out = km_operator(
        [TruncatedSeries.one(5)], [TruncatedSeries.one(5)], Q
    )
    assert first_discrepancy(out, identity_op(5)) is None


def test_series_in_operator():
    Q = d_op(6)
    h = TruncatedSeries([1, 0, 2], 6)
    out = series_in_operator(h, Q)
    p = Polynomial([0, 0, 0, 1])
    assert apply_op(out, p) == Polynomial([0, 12, 0, 1])


def test_window_bookkeeping_on_truncated_composition():
    # multiplication by a truncated x-series is incomplete; composing a
    # degree-lowering operator onto it must be refused
    g = TruncatedSeries([1, 1, 1], 2)
    M = op_from_x_series(g, 4, 4)
    assert not M.complete
    with pytest.raises((PreconditionError, WindowUnderflowError)):
        compose_ops(d_op(3), M)


def test_operator_json_roundtrip():
    U = xD_op(4)
    again = OperatorMatrix.from_json(U.to_json())
    assert first_discrepancy(U, again) is None
    assert again.window == U.window


def test_ops_equal_window_restricted():
    assert ops_equal(identity_op(4), identity_op(4))
    assert not ops_equal(identity_op(4), d_op(4))


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize(
    "tail",
    ([F(1), F(1, 2), F(-1, 3)], [F(1), F(-1), F(1, 4), F(3)], [F(1), F(0), F(3, 4), F(-2)]),
)
def test_float_log_exp_match_exact(tail, order):
    exact = umbral_bucc(UmbralSpec(series_from_tail(tail, order))).matrix
    flt = umbral_bucc(UmbralSpec(series_from_tail([float(c) for c in tail], order, FLOAT))).matrix
    log_e, log_f = log_unipotent(exact), log_unipotent(flt)
    for got, want in ((log_f, log_e), (exp_loc_nilpotent(log_f), exp_loc_nilpotent(log_e))):
        assert got.window == want.window
        for g, w in zip(got.cols, want.cols):
            assert all(type(c) is float for c in g.coeffs)
            scale = max([1.0] + [abs(float(c)) for c in w.coeffs])
            top = max(g.degree, w.degree)
            assert all(abs(g.coeff(k) - float(w.coeff(k))) <= 1e-9 * scale for k in range(top + 1))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize(
    "coeffs",
    ([F(2), F(1), F(1, 2), F(-1, 3)], [F(0), F(0), F(3, 4), F(-2), F(5, 7), F(1)]),
)
def test_normal_form_rows_match_kernels(coeffs, mode):
    # the D-row {(0, k): g_k} is g(D); the x-row {(1, k): v_k} is x v(D)
    n = 7
    g = TruncatedSeries([float(c) if mode == FLOAT else c for c in coeffs], n, mode)
    row0 = op_from_normal_form(NormalForm({(0, k): c for k, c in enumerate(g)}, mode), n)
    assert row0.cols == op_from_D_series(g, n).cols
    v = g - TruncatedSeries.one(n, mode).scale(g[0])
    row1 = op_from_normal_form(NormalForm({(1, k): c for k, c in enumerate(v)}, mode), n, n)
    assert row1.cols == x_times_D_series(v, n).cols


# -- the power sum in the integer view against the Fraction loop ------------
#
# exp_loc_nilpotent and log_unipotent sum their series in the integer view.
# The oracle is the loop they replaced: compose_ops, op_scale and op_add per
# power.  Exact results must be equal and canonical, floats the same bits,
# and the shape fields equal one by one.


def _power_sum_loop(A, acc, coeff):
    power = identity_op(A.n_in, A.max_out, A.mode)
    for k in range(1, A.n_in + A.max_out + 3):
        power = compose_ops(power, A)
        if power.is_window_zero():
            return acc
        acc = op_add(acc, op_scale(power, coeff(k)))
    raise AssertionError("power sum did not terminate")


def _exp_loop(A):
    one = 1.0 if A.mode == FLOAT else F(1)
    acc = identity_op(A.n_in, A.max_out, A.mode)
    return _power_sum_loop(A, acc, lambda k: one / math.factorial(k))


def _log_loop(U):
    one = 1.0 if U.mode == FLOAT else F(1)
    n1 = op_sub(U, identity_op(U.n_in, U.max_out, U.mode))
    acc = zero_op(n1.n_in, n1.max_out, n1.mode)
    return _power_sum_loop(n1, acc, lambda k: one / k * (1 if k % 2 else -1))


def _tangent_corpus(order):
    return [(name, f) for name, f in load_corpus(None, order) if f[1] == 1]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", [12, 16, pytest.param(28, marks=pytest.mark.slow)])
def test_exp_of_x_itlog_D_matches_the_fraction_loop(order, mode):
    for name, f in _tangent_corpus(order):
        v = itlog(in_mode(f, mode))
        A = x_times_D_series(v, order - 2)
        assert_same_op(exp_loc_nilpotent(A), _exp_loop(A))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", [12, 16, pytest.param(28, marks=pytest.mark.slow)])
def test_log_of_bucc_matches_the_fraction_loop(order, mode):
    for name, f in _tangent_corpus(order):
        U = umbral_bucc(UmbralSpec(in_mode(f, mode))).matrix
        assert_same_op(log_unipotent(U), _log_loop(U))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_laguerre_field_exponentials_match_the_fraction_loop(p, mode):
    for alpha in (0, F(1, 2), F(-3, 4)):
        A = _lag_field_op(p, float(alpha) if mode == FLOAT else alpha, 12, mode)
        assert_same_op(exp_loc_nilpotent(A), _exp_loop(A))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_power_sum_on_an_incomplete_valuation_raising_operator(mode):
    # multiplication by a series with g(0) = 0 raises the valuation and is
    # incomplete, so every power takes compose_ops' truncated branch
    g = in_mode(TruncatedSeries([0, F(1, 2), F(-1, 3), 2, F(5, 7)], 9), mode)
    A = op_from_x_series(g, 9, 9)
    assert not A.complete and A.raises_valuation_strictly()
    E = exp_loc_nilpotent(A)
    assert not E.complete
    assert_same_op(E, _exp_loop(A))
    assert_same_op(log_unipotent(E), _log_loop(E))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_power_sum_whose_window_shrinks(mode):
    # column n >= 3 is x^(n+1) plus x^(n+2) where max_out allows: the first
    # power certifies columns up to 4, the second up to 2, where it vanishes
    zero = 0.0 if mode == FLOAT else F(0)
    cols = []
    for n in range(7):
        c = [zero] * 9
        if n >= 3:
            c[n + 1] = F(n, 3) if mode == EXACT else n / 3
            if n + 2 <= 8:
                c[n + 2] = F(-1, n) if mode == EXACT else -1 / n
        cols.append(Polynomial(c, mode))
    A = OperatorMatrix(cols, 6, 8, 6, True, mode)
    E = exp_loc_nilpotent(A)
    assert E.window == 4
    assert_same_op(E, _exp_loop(A))
    assert_same_op(log_unipotent(E), _log_loop(E))


def test_power_sum_refusals_match_the_fraction_loop():
    # a complete valuation-raising operator whose powers outgrow every window
    A = op_from_x_poly(Polynomial.x(), 6)
    with pytest.raises(WindowUnderflowError, match="no certified columns"):
        exp_loc_nilpotent(A)
    with pytest.raises(WindowUnderflowError, match="no certified columns"):
        _exp_loop(A)
    # an incomplete operator wider than the identity's window
    B = op_from_x_series(TruncatedSeries([0, 1, 1], 8), 6, 8)
    with pytest.raises(WindowUnderflowError, match="truncated columns"):
        exp_loc_nilpotent(B)
    with pytest.raises(WindowUnderflowError, match="truncated columns"):
        _exp_loop(B)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_op_from_D_series_matches_the_fraction_loop(mode):
    for name, f in _tangent_corpus(12) + random_generators(7, 3, 12):
        g = in_mode(f, mode)
        for n_in in (8, 12, 15):
            got = op_from_D_series(g, n_in)
            shape = (got.n_in, got.max_out, got.window, got.complete)
            assert shape == (n_in, n_in, min(n_in, 12), True)
            for n, col in enumerate(got.cols):
                want = [0.0 if mode == FLOAT else F(0)] * (n + 1)
                for k in range(min(n, g.order) + 1):
                    if g[k] != 0:
                        want[n - k] = g[k] * math.perm(n, k)
                while want and want[-1] == 0:
                    want.pop()
                assert all(type(c) is (float if mode == FLOAT else F) for c in col.coeffs)
                if mode == EXACT:
                    assert list(col.coeffs) == want
                else:
                    assert [c.hex() for c in col.coeffs] == [c.hex() for c in want]


# -- the operator power ladder against the Fraction loops it replaced --------
#
# series_in_operator (so km_operator), gen_pow and the normal forms sum on
# integer numerators, and composition_operator reads its columns from the
# series power ladder.  The oracles are the loops they replaced, on
# Fraction (or float) containers: compose_ops per power, op_scale and
# op_add per term.


def _series_in_operator_loop(h, Q):
    acc = op_scale(identity_op(Q.n_in, Q.max_out, Q.mode), h[0])
    power = identity_op(Q.n_in, Q.max_out, Q.mode)
    for j in range(1, h.order + 1):
        power = compose_ops(power, Q)
        if h[j] != 0:
            acc = op_add(acc, op_scale(power, h[j]))
    return acc


def _without_negative_zeros(U):
    """U with each -0.0 made 0.0 (c + 0 changes no other value): the one
    difference test_h_of_Q_sums_leave_no_negative_zeros allows."""
    cols = [Polynomial([c + 0 for c in col.coeffs], U.mode) for col in U.cols]
    return OperatorMatrix(cols, U.n_in, U.max_out, U.window, U.complete, U.mode)


def _km_loop(gs, hs, Q):
    acc = None
    for g, h in zip(gs, hs):
        term = compose_ops(op_from_x_series(g, Q.n_in, Q.max_out), _series_in_operator_loop(h, Q))
        acc = term if acc is None else op_add(acc, term)
    return acc


def _gen_pow_loop(U, V, term_bound=None):
    um1 = op_sub(U, identity_op(U.n_in, U.max_out, U.mode))
    auto = um1.lowers_degree_strictly() or um1.raises_valuation_strictly()
    limit = term_bound if term_bound is not None else U.n_in + U.max_out + 2
    acc = power = identity_op(U.n_in, U.max_out, U.mode)
    bino = identity_op(V.n_in, V.max_out, V.mode)
    for m in range(1, limit + 1):
        power = compose_ops(power, um1)
        if auto and power.is_window_zero():
            break
        shifted = op_sub(V, op_scale(identity_op(V.n_in, V.max_out, V.mode), m - 1))
        bino = op_scale(compose_ops(bino, shifted), scalars.coerce(1, U.mode) / m)
        acc = op_add(acc, compose_ops(power, bino))
    return acc


def _normal_form_loop(U, k_max, j_max):
    zero = 0.0 if U.mode == FLOAT else F(0)
    table = {}
    for k in range(k_max + 1):
        inner = [zero] * (U.max_out + k + 1)
        for j in range(k + 1):
            c = scalars.coerce((-1) ** (k - j) * math.comb(k, j), U.mode)
            for i, a in U.cols[j].terms():
                inner[k - j + i] += c * a
        for j, c in enumerate(inner[: j_max + 1]):
            if c:
                table[(j, k)] = c / math.factorial(k)
    return NormalForm(table, U.mode)


def _op_from_normal_form_loop(nf, n_in, max_out):
    zero = 0.0 if nf.mode == FLOAT else F(0)
    cols = []
    for n in range(n_in + 1):
        acc = [zero] * (max_out + 1)
        for (j, k), c in nf.table.items():
            if k <= n:
                acc[n - k + j] += c * math.perm(n, k)
        cols.append(Polynomial(acc, nf.mode))
    return OperatorMatrix(cols, n_in, max_out, n_in, True, nf.mode)


def _composition_operator_loop(g, n_in, max_out):
    p = polynomials.poly_from_series(g)
    cols = [Polynomial.one(g.mode)]
    for n in range(1, n_in + 1):
        cols.append((cols[-1] * p).truncate(max_out))
    return OperatorMatrix(cols, n_in, max_out, min(n_in, max_out), p.degree <= 1, g.mode)


def _same_normal_form(got, want):
    assert got.mode == want.mode
    assert list(got.table) == list(want.table)  # insertion order is summation order
    for key, c in got.table.items():
        w = want.table[key]
        assert type(c) is type(w)
        assert (c.hex() == w.hex()) if got.mode == FLOAT else c == w


def _ladder_cases(order, mode):
    """Per generator: f in ``mode``, its bucc matrix and n = default n_max."""
    for _, f in load_corpus(order=order) + random_generators(7, 3, order):
        spec = UmbralSpec(in_mode(f, mode))
        n = spec.default_n_max()
        yield spec.f, umbral_bucc(spec, n).matrix, n


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_series_in_operator_and_km_operator_match_the_fraction_loops(order, mode):
    for f, B, n in _ladder_cases(order, mode):
        g = (f - TruncatedSeries.t(order, mode)).truncate(n)
        # h(0) = 0, 1 and -1: f, 1 + f and -exp(f)
        one = TruncatedSeries.one(order, mode)
        hs = [f.truncate(n), (one + f).truncate(n), -f.exp().truncate(n)]
        for Q in (d_op(n, mode), B, op_from_x_series(g, n, n)):
            for h in hs:
                want = _series_in_operator_loop(h, Q)
                if h[0] < 0:
                    want = _without_negative_zeros(want)
                assert_same_op(series_in_operator(h, Q), want)
        # the first terms of verify's two-sided expansion: x^k / k! against g^k
        gs = [in_mode(TruncatedSeries([0] * k + [F(1, math.factorial(k))], n), mode) for k in range(6)]
        powers = [TruncatedSeries.one(n, mode)]
        for _ in range(5):
            powers.append(powers[-1] * g)
        assert_same_op(km_operator(gs, powers, d_op(n, mode)), _km_loop(gs, powers, d_op(n, mode)))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_h_of_Q_sums_leave_no_negative_zeros(mode):
    # the Fraction loop started from h(0) times the identity and added
    # c * 0.0 at every stored zero, so a float h(0) < 0 could leave -0.0 at
    # structural zeros; the integer-view sum starts from 0, skips zeros and
    # agrees in value
    h = in_mode(TruncatedSeries([-1, -1], 1), mode)
    got = series_in_operator(h, d_op(4, mode))
    want = _series_in_operator_loop(h, d_op(4, mode))
    assert_same_op(got, _without_negative_zeros(want))
    assert got.col(4).coeffs == in_mode(TruncatedSeries([0, 0, 0, -4, -1], 4), mode).coeffs
    if mode == FLOAT:
        assert [c.hex() for c in got.col(4).coeffs][:3] == ["0x0.0p+0"] * 3
        assert [c.hex() for c in want.col(4).coeffs][:3] == ["-0x0.0p+0"] * 3


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_gen_pow_matches_the_fraction_loop(order, mode):
    for f, B, n in _ladder_cases(order, mode):
        g = (f - TruncatedSeries.t(order, mode)).truncate(n)
        V = op_from_D_series(g, n)
        exp_x = in_mode(TruncatedSeries([F(1, math.factorial(k)) for k in range(n + 1)], n), mode)
        eU = op_from_x_series(exp_x, n, n)
        assert_same_op(gen_pow(eU, V), _gen_pow_loop(eU, V))
        if f[1] == 1:
            assert_same_op(gen_pow(B, V), _gen_pow_loop(B, V))
    # (1 - D)^(xD) needs the term bound
    base = op_from_D_series(in_mode(TruncatedSeries([1, -1], 6), mode), 6)
    expo = xD_op(6, mode=mode)
    assert_same_op(gen_pow(base, expo, term_bound=8), _gen_pow_loop(base, expo, 8))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_normal_forms_and_composition_operators_match_the_fraction_loops(order, mode):
    for f, B, n in _ladder_cases(order, mode):
        C = composition_operator(f, order, order)
        assert_same_op(C, _composition_operator_loop(f, order, order))
        linear = TruncatedSeries(list(f.coeffs[:2]), 3, mode)
        assert_same_op(composition_operator(linear, 8, 10), _composition_operator_loop(linear, 8, 10))
        for U, k_max, j_max in ((C, order, order), (B, n, n), (B, 3, 4)):
            _same_normal_form(normal_form(U, k_max, j_max), _normal_form_loop(U, k_max, j_max))
        # the duality check's rebuild of the swapped table
        nf = NormalForm({(j, k): c for (j, k), c in normal_form(C).l_transform().table.items() if k <= n}, mode)
        assert_same_op(op_from_normal_form(nf, n, n), _op_from_normal_form_loop(nf, n, n))
    rng = random.Random(order)
    for _ in range(10):
        table = {(rng.randint(0, 4), rng.randint(0, 4)): F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(5)}
        nf = NormalForm({key: in_mode(TruncatedSeries([c], 0), mode)[0] for key, c in table.items()}, mode)
        U = op_from_normal_form(nf, order, order + 4)
        assert_same_op(U, _op_from_normal_form_loop(nf, order, order + 4))
        _same_normal_form(normal_form(U, 4, 6), _normal_form_loop(U, 4, 6))


def _pincherle_cases(order, mode):
    """Operators in ``mode`` for the Pincherle oracles: seeded complete
    normal-form operators (one with a window below its input range, one
    negated so that float zeros are -0.0), seeded incomplete
    multiplications by a series, and the bucc matrices of the corpus."""
    rng = random.Random(order)
    for i in range(4):
        table = {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)}
        nf = NormalForm({key: in_mode(TruncatedSeries([c], 0), mode)[0] for key, c in table.items()}, mode)
        U = op_from_normal_form(nf, order, order + 3)
        yield op_scale(U, -1) if i == 1 else U
    g = in_mode(TruncatedSeries([F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(order // 2)], order // 2), mode)
    yield compose_ops(op_from_normal_form(nf, order, order + 3), op_from_D_series(g, order))
    for _ in range(3):
        g = in_mode(TruncatedSeries([F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(order + 1)], order), mode)
        yield op_from_x_series(g, order, order + 2)
        yield op_from_x_series(-g, order - 2, order)
    for _, B, _ in _ladder_cases(order, mode):
        yield B


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_pincherle_derivatives_match_the_compose_loops(order, mode):
    # the column differences agree with the products by x-multiplication
    # matrices, shape fields included; a float -0.0 entry may stay -0.0
    # where the products' zero skip gave 0.0, the one allowed difference
    def same(got, want):
        assert_same_op(_without_negative_zeros(got) if mode == FLOAT else got, want)

    negative_zeros = False
    for U in _pincherle_cases(order, mode):
        negative_zeros |= any(str(c) == "-0.0" for col in U.cols for c in col.coeffs)
        same(pincherle_derivative(U), pincherle_loop(U))
        iterated = U
        for n in range(1, min(4, U.window) + 1):
            iterated = pincherle_loop(iterated)
            same(nth_pincherle(U, n), iterated)
            # the binomial sum adds only nonzero terms, as the products did
            assert_same_op(operators._nth_pincherle_explicit(U, n), nth_pincherle_explicit_loop(U, n))
    assert negative_zeros == (mode == FLOAT)


def _refusal(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_pincherle_refusals_match_the_compose_loops(mode):
    g = in_mode(TruncatedSeries([1, 2], 1), mode)
    U1 = op_from_D_series(g, 6)
    U0 = op_from_D_series(g.truncate(0), 6)
    C0 = composition_operator(in_mode(TruncatedSeries([0, 1, 1], 8), mode), 6, 0)
    I0 = identity_op(0, mode=mode)
    assert (U1.window, U0.window, C0.window, C0.complete, I0.n_in) == (1, 0, 0, False, 0)
    for U in (U0, C0, I0, pincherle_derivative(U1)):
        assert _refusal(pincherle_derivative, U) == _refusal(pincherle_loop, U)
    assert _refusal(pincherle_derivative, U0)[1] == "composition left no certified columns"
    assert _refusal(pincherle_derivative, I0)[1] == "no room for an extra input degree"
    for U, n in ((U0, 1), (C0, 1), (U1, 2), (U1, 3), (I0, 1)):
        want = _refusal(nth_pincherle_explicit_loop, U, n)
        assert _refusal(operators._nth_pincherle_explicit, U, n) == want
        assert _refusal(nth_pincherle, U, n) == (
            WindowUnderflowError,
            "window too small for the requested derivative",
        )
    assert _refusal(operators._nth_pincherle_explicit, I0, 1)[1] == "operator has an empty exact window"
