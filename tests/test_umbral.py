"""Umbral constructions, iteration theory, fractional powers, identities."""

import math
from fractions import Fraction

import pytest

import umbralops.umbral as umbral_module
from helpers import (
    ORACLE_ORDERS,
    assert_same_op,
    assert_same_series,
    coeff_identity_scan_loop,
    conjugated_x_loop,
    dense_generators,
    exp_x_field_loop,
    flow_loop,
    in_mode,
    oracle_generators,
    split_by_multiplier,
    x_times_D_series,
)
from umbralops.corpus import load_corpus, random_generators
from umbralops.operators import (
    OperatorMatrix,
    apply_op,
    column_discrepancy,
    diag_op,
    composition_operator,
    compose_ops,
    exp_loc_nilpotent,
    first_discrepancy,
    gen_pow,
    identity_op,
    log_unipotent,
    op_from_D_series,
    op_inverse,
    xD_op,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT, _canonical
from umbralops.series import PreconditionError, TruncatedSeries, series_from_tail
from umbralops.umbral import (
    CONSTRUCTIONS,
    UmbralOperator,
    UmbralSpec,
    _conjugated_x,
    _exp_x_field,
    coeff_identity_scan,
    delta_operator,
    duality_check,
    extract_generator_field,
    flow,
    frac_power,
    fractional_iterate,
    genfun_check,
    group_law_checks,
    itlog,
    julia_residual,
    koenigs_coordinate,
    pincherle_ode_residual,
    umbral_bucc,
    umbral_exp_itlog,
    umbral_garsia,
    umbral_inverse,
    umbral_steffensen,
    umbral_steffensen2,
)
from umbralops.verify import run_verify

F = Fraction


def geometric(order=12):
    return TruncatedSeries([0] + [(-1) ** (n + 1) for n in range(1, order + 1)], order)


def test_spec_rejects_bad_generators():
    with pytest.raises(PreconditionError):
        UmbralSpec(TruncatedSeries([1, 1], 4))
    with pytest.raises(PreconditionError):
        UmbralSpec(TruncatedSeries([0, 0, 1], 4))


def test_identity_generator_gives_monomials():
    spec = UmbralSpec(TruncatedSeries.t(8))
    U = umbral_garsia(spec)
    assert first_discrepancy(U.matrix, identity_op(U.matrix.n_in)) is None


def test_basic_polynomial_hand_value():
    # generator t/(1+t): second basic polynomial is x^2 - 2x
    spec = UmbralSpec(geometric())
    U = umbral_garsia(spec)
    assert U.matrix.col(2) == Polynomial([0, -2, 1])


def test_axioms_hold_on_all_constructions():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 10))
    for builder in CONSTRUCTIONS.values():
        builder(spec).check_axioms()


def test_constructions_agree_for_multiplier_one():
    spec = UmbralSpec(TruncatedSeries([0, 1, F(1, 2), F(1, 6)], 12))
    ops = [b(spec) for b in CONSTRUCTIONS.values()]
    for other in ops[1:]:
        assert first_discrepancy(ops[0].matrix, other.matrix) is None


def test_constructions_agree_for_general_multiplier():
    spec = UmbralSpec(TruncatedSeries([0, 2, 1], 12))
    ops = [b(spec) for b in CONSTRUCTIONS.values()]
    for other in ops[1:]:
        assert first_discrepancy(ops[0].matrix, other.matrix) is None


def test_itlog_of_geometric_map():
    # the flow of -t^2 is t/(1+st), so the field of t/(1+t) is exactly -t^2
    v = itlog(geometric())
    assert v == TruncatedSeries([0, 0, -1], 12)


def test_itlog_frozen_oracle():
    # independently solved from the functional equation V(f) = f' V
    v = itlog(TruncatedSeries([0, 1, 1], 8))
    assert v.coeffs == (
        F(0), F(0), F(1), F(-1), F(3, 2), F(-8, 3), F(31, 6), F(-157, 15), F(649, 30),
    )


def test_itlog_against_independent_triangular_solve():
    # solve V(f(t)) = f'(t) V(t) coefficient by coefficient, starting from
    # V_2 = f_2, and compare against the operator-logarithm route
    f = TruncatedSeries([0, 1, F(-1, 2), F(1, 3), F(2)], 10)
    v = itlog(f)
    order = f.order - 1
    resid = julia_residual(f, v)
    assert resid.is_zero()
    ft = f.truncate(order)
    vt = v.truncate(order)
    assert vt.compose(ft) == f.derivative().truncate(order) * vt


def test_julia_residual_detects_wrong_field():
    f = geometric()
    wrong = TruncatedSeries([0, 0, -1, 1], 12)
    assert not julia_residual(f, wrong).is_zero()


def test_flow_closed_form():
    # flow of -t^2 at time s is t/(1+st)
    v = TruncatedSeries([0, 0, -1], 10)
    s = F(1, 2)
    expected = TruncatedSeries(
        [0] + [(-s) ** (n - 1) for n in range(1, 11)], 10
    )
    assert flow(v, s) == expected


def test_flow_group_property():
    v = TruncatedSeries([0, 0, 1, 1], 9)
    a, b = F(1, 3), F(2, 5)
    assert flow(v, a).compose(flow(v, b)) == flow(v, a + b)


def test_half_iterate_frozen_oracle():
    f = TruncatedSeries([0, 1, 1], 8)
    g = fractional_iterate(f, F(1, 2))
    assert g.coeffs[:5] == (F(0), F(1), F(1, 2), F(-1, 4), F(1, 4))
    assert g.compose(g) == f


def test_integer_iterates_any_multiplier():
    f = TruncatedSeries([0, 2, 1], 10)
    g2 = fractional_iterate(f, 2)
    assert g2 == f.compose(f)
    gm1 = fractional_iterate(f, -1)
    assert f.compose(gm1) == TruncatedSeries.t(10)


def test_integer_iterate_composes_by_squaring(monkeypatch):
    # square-and-multiply: at most 2 floor(log2 s) + 1 compositions (the
    # repeated composition it replaced made s of them)
    calls = []
    real = TruncatedSeries.compose

    def counted(self, g):
        calls.append(g)
        return real(self, g)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    g = fractional_iterate(TruncatedSeries([0, 1, 1], 12), 1000)
    assert len(calls) <= 2 * math.floor(math.log2(1000)) + 1
    assert g[2] == 1000


def _composed(f, s):
    base = f if s >= 0 else f.comp_inverse()
    acc = TruncatedSeries.t(f.order, f.mode)
    for _ in range(abs(s)):
        acc = base.compose(acc)
    return acc


@pytest.mark.parametrize("order", [12, pytest.param(20, marks=pytest.mark.slow)])
def test_integer_iterate_is_repeated_composition(order):
    tangent = [f for _, f in random_generators(7, 3, order)]
    for f in tangent + [TruncatedSeries([0, 2, 1], order)]:
        for s in (2, -2, 3, -3, 4, 5, 7):
            g = fractional_iterate(f, s)
            assert g == _composed(f, s), (f, s)
            if f[1] == 1:
                assert g == flow(itlog(f), s), (f, s)


def test_exact_nonint_iterate_needs_multiplier_one():
    with pytest.raises(PreconditionError):
        fractional_iterate(TruncatedSeries([0, 2, 1], 8), F(1, 2))


def test_koenigs_coordinate_exact_example():
    # f = 2t + t^2 = (1+t)^2 - 1 is linearized by log(1+t)
    psi = koenigs_coordinate(TruncatedSeries([0, 2, 1], 8))
    assert psi.coeffs == tuple(
        F(0) if n == 0 else F((-1) ** (n + 1), n) for n in range(9)
    )


def test_float_koenigs_iterate():
    f = TruncatedSeries([0.0, 2.0, 1.0], 10, "float")
    g = fractional_iterate(f, 0.5)
    h = g.compose(g)
    assert max(abs(a - b) for a, b in zip(h.coeffs, f.coeffs)) < 1e-12


def test_exp_field_matches_flow_generator():
    # exp(s x V(D)) is the umbral operator generated by the time-s flow of V
    for coeffs in ([0, 0, -1], [0, 0, 0, -1], [0, 0, 1, 1]):
        v = TruncatedSeries(coeffs, 12)
        for s in (1, 2, F(1, 2)):
            vs = v.scale(s)
            n_max = 8
            lhs = exp_loc_nilpotent(x_times_D_series(vs, n_max))
            spec = UmbralSpec(flow(v, s))
            rhs = umbral_bucc(spec, n_max).matrix
            assert first_discrepancy(lhs, rhs) is None
            assert first_discrepancy(_exp_x_field(vs, n_max), rhs) is None


# -- expitlog as powers of the conjugated x ----------------------------------
#
# umbral_exp_itlog takes exp(x V(D)) as the powers of x W(D), the conjugate of
# x by the exponential.  The oracle is the matrix power series it replaced:
# exp_loc_nilpotent of the matrix of x V(D).  Exact results must be equal and
# canonical, with the same shape fields.


def _expitlog_generators(order):
    """The multiplier-1 corpus, random_generators(s, 3, order) for s in 0-2
    and three generators of the deep-o28 shape."""
    tangent, _ = split_by_multiplier(load_corpus(order=order))
    seeded = [g for s in range(3) for g in random_generators(s, 3, order)]
    return tangent + seeded + dense_generators(7, 3, order)


@pytest.mark.parametrize("order", [12, 20, 28, pytest.param(40, marks=pytest.mark.slow)])
def test_expitlog_matches_the_matrix_exponential(order):
    for name, f in _expitlog_generators(order):
        spec = UmbralSpec(f)
        got = umbral_exp_itlog(spec).matrix
        want = exp_x_field_loop(spec.itlog_series, spec.default_n_max())
        assert got.to_json() == want.to_json(), name
        assert_same_op(got, want)


@pytest.mark.parametrize("order", [12, 20])
def test_general_expitlog_is_the_stretched_tangent_exponential(order):
    # multiplier q != 1: the diagonal q^n times the oracle's exponential of
    # the tangent part f / q
    _, general = split_by_multiplier(oracle_generators(order))
    for name, f in general:
        spec = UmbralSpec(f)
        n = spec.default_n_max()
        inner = exp_x_field_loop(spec._tangent_part.itlog_series, n)
        want = compose_ops(diag_op([spec.q**k for k in range(n + 1)], n), inner)
        assert_same_op(umbral_exp_itlog(spec).matrix, want)


@pytest.mark.parametrize("order", [12, 20])
def test_conjugated_x_is_f_prime_at_the_inverse(order):
    # phi x phi^-1 = x / Q'(D) with Q = f^-1 (the recurrence
    # p_{n+1} = x Q'(D)^-1 p_n of Roman, The Umbral Calculus, 1984, ch. 3),
    # so W (f^-1)' = 1 and W = f' o f^-1 below t^n_max, from V = itlog(f)
    # alone: W is 1 / Q' for Q the time -1 flow of V, not read from f_inverse
    for name, f in _expitlog_generators(order):
        spec = UmbralSpec(f)
        n = spec.default_n_max()
        W = TruncatedSeries._from_view(*_conjugated_x(spec.itlog_series, n), n - 1, EXACT)
        finv = spec.f_inverse.truncate(n - 1)
        assert W * spec.f_inverse.derivative().truncate(n - 1) == TruncatedSeries.one(n - 1), name
        assert W == f.derivative().truncate(n - 1).compose(finv), name


@pytest.mark.parametrize("order", [12, 20, 28, pytest.param(40, marks=pytest.mark.slow)])
def test_conjugated_x_matches_the_bracket_recurrence(order):
    # W = 1 / Q' from the time -1 flow Q equals the Hadamard sum it replaced,
    # in lowest terms, on the itlogs of the corpus (of its tangent parts at
    # q != 1), of the seeded and dense generators, and on the Laguerre fields
    # -t^(p+1); a float field runs on its exact value
    gens = load_corpus(order=order) + random_generators(7, 3, order) + dense_generators(7, 3, order)
    fields = [(name, UmbralSpec(f)._tangent_part.itlog_series) for name, f in gens]
    fields += [(f"-t^{p + 1}", TruncatedSeries([0] * (p + 1) + [-1], order)) for p in range(1, 5)]
    for mode in (EXACT, FLOAT):
        for name, v in fields:
            for n in (0, 1, order - 2, order):
                want = _canonical(*conjugated_x_loop(in_mode(v, mode), n), EXACT)
                assert _conjugated_x(in_mode(v, mode), n) == want, (name, mode, n)
        for coeffs in ([1], [0, 1], [0, F(1, 2), 1], [F(-3), 0, 1]):
            v = in_mode(TruncatedSeries(coeffs, order), mode)
            for fn in (_conjugated_x, conjugated_x_loop):
                with pytest.raises(PreconditionError, match=r"^exp\(x v\(D\)\) requires ord\(v\) >= 2$"):
                    fn(v, order - 2)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_exp_x_field_refuses_a_field_of_order_below_two(mode):
    for coeffs in ([1], [0, 1], [0, F(1, 2), 1], [F(-3), 0, 1]):
        v = in_mode(TruncatedSeries(coeffs, 8), mode)
        with pytest.raises(PreconditionError, match="ord"):
            _exp_x_field(v, 6)
    v = in_mode(TruncatedSeries([0, 0, F(1, 2), 1], 8), mode)
    with pytest.raises(PreconditionError, match="order too small"):
        _exp_x_field(v, 9)
    # the zero field and an empty window give the identity
    for n_max in (0, 1, 6):
        E = _exp_x_field(in_mode(TruncatedSeries([0], 8), mode), n_max)
        assert E.to_json() == identity_op(n_max, mode=mode).to_json()


def test_extract_field_roundtrip():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    U = umbral_bucc(spec)
    v = extract_generator_field(U)
    assert v == spec.itlog_series.truncate(v.order)


def test_umbral_inverse():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    U = umbral_bucc(spec)
    V = umbral_inverse(U)
    assert first_discrepancy(
        compose_ops(V.matrix, U.matrix), identity_op(U.matrix.n_in)
    ) is None


def test_delta_operator_lowers_basic_sequence():
    spec = UmbralSpec(geometric())
    U = umbral_bucc(spec)
    Q = delta_operator(spec)
    for n in range(1, 9):
        lhs = apply_op(Q, U.matrix.col(n))
        assert lhs == U.matrix.col(n - 1).scale(n)


def test_binomial_type_identity():
    from umbralops.umbral import binomial_type_residual

    spec = UmbralSpec(TruncatedSeries([0, 1, 0, F(-1, 6)], 12))
    U = umbral_bucc(spec)
    for n in range(9):
        assert binomial_type_residual(U, n) == {}


def test_genfun_check_passes_and_detects():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    assert genfun_check(umbral_bucc(spec), 8)["status"] == "exact-pass"


def test_genfun_check_reports_a_perturbed_coefficient():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    m = umbral_bucc(spec).matrix
    cols = list(m.cols)
    cols[5] = cols[5] + Polynomial.monomial(3, F(1, 7))
    bad = UmbralOperator(spec, OperatorMatrix(cols, m.n_in, m.max_out, m.window, m.complete), "bucc")
    rep = genfun_check(bad, 8)
    assert rep["status"] == "fail"
    assert rep["first_discrepancy"] == {"col": 5, "coeff": 3}
    assert rep["window"] == 8


def test_pincherle_ode_residual_zero():
    spec = UmbralSpec(geometric())
    resid = pincherle_ode_residual(umbral_bucc(spec))
    assert resid.is_window_zero()


def test_group_laws():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    rep = group_law_checks(spec, F(1, 2), F(1, 3))
    assert rep["passed"]


def test_frac_power_half_squares_to_whole():
    spec = UmbralSpec(geometric())
    half = frac_power(spec, F(1, 2)).matrix
    whole = umbral_bucc(spec).matrix
    assert first_discrepancy(compose_ops(half, half), whole) is None


def test_frac_power_integer_general_multiplier():
    spec = UmbralSpec(TruncatedSeries([0, 2, 1], 12))
    sq = frac_power(spec, 2).matrix
    direct = umbral_bucc(UmbralSpec(spec.f.compose(spec.f))).matrix
    assert first_discrepancy(sq, direct) is None


def _steffensen_by_gen_pow(spec, n_max):
    """The paper's generalized power Q' (D/Q)^{xD + 1} as operator products."""
    finv = spec.f_inverse
    qprime = op_from_D_series(finv.derivative().truncate(n_max), n_max)
    base = op_from_D_series(finv.shift_down(1).unit_inverse().truncate(n_max), n_max)
    powered = gen_pow(base, xD_op(n_max, shift=1), term_bound=n_max + 2)
    return compose_ops(qprime, powered)


@pytest.mark.parametrize("order", [12, 16])
def test_steffensen_equals_operator_generalized_power(order):
    cases = load_corpus(order=order) + random_generators(7, 3, order)
    assert {"doubling", "doubling-quadratic", "third-quadratic"} <= {name for name, _ in cases}
    for name, f in cases:
        spec = UmbralSpec(f)
        want = _steffensen_by_gen_pow(spec, spec.default_n_max())
        assert umbral_steffensen(spec).matrix.to_json() == want.to_json(), name


def _exp_of_scaled_itlog(spec, s, n_max):
    """The paper's formula for phi^s: exp(s x V(D)) with V = itlog(f)."""
    return exp_loc_nilpotent(x_times_D_series(spec.itlog_series.scale(s), n_max))


@pytest.mark.parametrize("order", [12, 16, pytest.param(20, marks=pytest.mark.slow)])
def test_frac_power_equals_exp_of_scaled_itlog(order):
    tangent, general = split_by_multiplier(
        load_corpus(order=order) + random_generators(7, 3, order)
    )
    for name, f in tangent:
        spec = UmbralSpec(f)
        for s in (F(1, 2), F(-1, 3), 2, -1):
            want = _exp_of_scaled_itlog(spec, s, spec.default_n_max())
            assert frac_power(spec, s).matrix.to_json() == want.to_json(), (name, s)
    for name, f in general:
        spec = UmbralSpec(f)
        base = umbral_bucc(spec).matrix
        square = compose_ops(base, base)
        for s, want in ((2, square), (3, compose_ops(base, square)), (-1, op_inverse(base))):
            got = frac_power(spec, s).matrix
            assert got.window == want.window, (name, s)
            assert first_discrepancy(got, want) is None, (name, s)


def test_exact_nonint_frac_power_needs_multiplier_one():
    with pytest.raises(PreconditionError, match="multiplier 1"):
        frac_power(UmbralSpec(TruncatedSeries([0, 2, 1], 12)), F(1, 2))


def test_frac_power_beyond_the_generator_order_is_refused():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 8))
    with pytest.raises(PreconditionError, match="order too small"):
        frac_power(spec, F(1, 2), 9)
    with pytest.raises(PreconditionError, match="order too small"):
        umbral_garsia(spec, 9)


BEYOND_ORDER_GENERATORS = (
    TruncatedSeries([0, 1, 1, -1], 8),
    TruncatedSeries([0, 2, 1], 8),
)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_refuse_columns_beyond_the_generator_order(name):
    build = CONSTRUCTIONS[name]
    for f in BEYOND_ORDER_GENERATORS:
        spec = UmbralSpec(f)
        with pytest.raises(PreconditionError, match="order too small"):
            build(spec, f.order + 1)
        # no over-refusal one column below the order
        got = build(spec, f.order - 1).matrix
        want = umbral_garsia(spec, f.order - 1).matrix
        assert got.window == want.window, f
        assert first_discrepancy(got, want) is None, f


@pytest.mark.parametrize("order", [8, 12])
def test_float_frac_power_matches_exact(order):
    for tail in ([1, F(1, 2)], [1, 1, F(-1, 3), 2]):
        exact = series_from_tail(tail, order)
        f = TruncatedSeries([float(c) for c in exact.coeffs], order, FLOAT)
        for s in (F(1, 2), 2, -1):
            want = frac_power(UmbralSpec(exact), s).matrix
            got = frac_power(UmbralSpec(f), float(s)).matrix
            assert got.window == want.window, (tail, s)
            for n in range(want.window + 1):
                col = Polynomial([float(c) for c in want.col(n).coeffs], FLOAT)
                assert column_discrepancy(got.col(n), col) is None, (tail, s, n)


def test_float_frac_power_half_squares_to_whole_at_multiplier_two():
    spec = UmbralSpec(TruncatedSeries([0.0, 2.0, 1.0], 12, FLOAT))
    half = frac_power(spec, 0.5).matrix
    whole = frac_power(spec, 1.0).matrix
    square = compose_ops(half, half)
    assert square.window == whole.window
    assert first_discrepancy(square, whole) is None


def test_coeff_identity_scan():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    assert coeff_identity_scan(spec, F(1, 2), 6) is None
    spec2 = UmbralSpec(TruncatedSeries([0, 2, 1], 12))
    assert coeff_identity_scan(spec2, 2, 6) is None


def test_coeff_identity_scan_skips_q_binomials_at_zero_coefficients():
    # the powers of the diagonal operator of 2t vanish off the diagonal, so
    # the q-binomials with n - k - p > 0, whose q-powers 2^(1021 + ...)
    # overflow, multiply only zeros and are never computed
    spec = UmbralSpec(TruncatedSeries([0.0, 2.0], 6, FLOAT))
    assert coeff_identity_scan(spec, -1021.0, 3) is None


def test_coeff_identity_scan_shares_one_bucc_power_ladder(monkeypatch):
    # verify's coeff suite scans three exponents per spec at one n_max; the
    # ladder phi^0 .. phi^n_max is built for the first and kept on the spec
    calls = []
    real = umbral_module._int_op_powers

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(umbral_module, "_int_op_powers", counted)
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 2)], 12))
    for s in (F(1, 2), 2, -1):
        assert coeff_identity_scan(spec, s, 6) is None
    assert len(calls) == 1
    phi = umbral_bucc(spec, 6).matrix
    power = identity_op(phi.n_in, phi.max_out)
    for ladder_power in umbral_module._bucc_powers(spec, 6):
        assert_same_op(ladder_power, power)
        power = compose_ops(power, phi)
    assert len(calls) == 1
    coeff_identity_scan(spec, 2, 5)
    assert len(calls) == 2


# the exponents of verify's coeff suite
TANGENT_EXPONENTS = (F(1, 2), F(2), F(-1))
GENERAL_EXPONENTS = (F(2), F(3))


def _coeff_scan_cases(order):
    """The built-in corpus at ``order`` with the exponents of verify's coeff
    suite, plus each multiplier-1 entry with its multiplier set to 2 and to
    1/3 at the general exponents."""
    cases = []
    for _, f in load_corpus(order=order):
        cases.append((f, TANGENT_EXPONENTS if f[1] == 1 else GENERAL_EXPONENTS))
        if f[1] == 1:
            for q in (F(2), F(1, 3)):
                cases.append((TruncatedSeries([0, q] + list(f.coeffs[2:]), order), GENERAL_EXPONENTS))
    return cases


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", [12, 20])
def test_coeff_identity_scan_matches_the_fraction_loop(order, mode):
    # on the full window.  The exact identity holds on every case; float
    # sums fail at rounding-dependent places, which the scan finds where the
    # loop does because it multiplies and adds in the loop's order
    for f, exponents in _coeff_scan_cases(order):
        spec = UmbralSpec(in_mode(f, mode))
        for s in exponents:
            s = s if mode == EXACT else float(s)
            got = coeff_identity_scan(spec, s, order - 2)
            assert got == coeff_identity_scan_loop(spec, s, order - 2)
            assert got is None or mode == FLOAT


def _skew_frac_power(monkeypatch, n, k):
    """frac_power with 1 added at x^k of column n."""
    real = umbral_module.frac_power

    def skewed(spec, s, n_max=None):
        U = real(spec, s, n_max)
        m = U.matrix
        cols = list(m.cols)
        cols[n] = cols[n] + Polynomial.monomial(k, 1, m.mode)
        skewed_m = OperatorMatrix(cols, m.n_in, m.max_out, m.window, m.complete, m.mode)
        return UmbralOperator(spec, skewed_m, U.provenance)

    monkeypatch.setattr(umbral_module, "frac_power", skewed)


def _skew_ladder(monkeypatch, n, k):
    """The bucc power ladder with 1 added at x^k of column n of phi^1."""
    real = umbral_module._bucc_powers

    def skewed(spec, n_max):
        powers = list(real(spec, n_max))
        P = powers[1]
        cols = list(P.cols)
        cols[n] = cols[n] + Polynomial.monomial(k, 1, P.mode)
        powers[1] = OperatorMatrix(cols, P.n_in, P.max_out, P.window, P.complete, P.mode)
        return powers

    monkeypatch.setattr(umbral_module, "_bucc_powers", skewed)


# (n, k) of the perturbed entry; the ladder's is at n - k = 1, where the
# weight of phi^1 is [s choose 1]_q q^((n - 1)(s - 1)), nonzero for every
# exponent of the suite
@pytest.mark.parametrize("skew, where", [(_skew_frac_power, (5, 2)), (_skew_ladder, (4, 3))])
def test_coeff_identity_scan_reports_a_perturbed_entry(monkeypatch, skew, where):
    skew(monkeypatch, *where)
    for f, exponents in _coeff_scan_cases(12):
        spec = UmbralSpec(f)
        for s in exponents:
            assert coeff_identity_scan(spec, s, 8) == where
            assert coeff_identity_scan_loop(spec, s, 8) == where
    report = run_verify("coeff")
    assert not report["passed"]
    assert len(report["items"]) == 21
    n, k = where
    for item in report["items"]:
        assert item["status"] == "fail"
        assert item["first_discrepancy"] == {"col": n, "coeff": k}


def test_duality_check():
    for coeffs in ([0, 1, 1], [0, 2, 1]):
        spec = UmbralSpec(TruncatedSeries(coeffs, 12))
        assert duality_check(spec)["status"] == "exact-pass"


def test_float_itlog_scaling():
    import math

    f = TruncatedSeries([0.0, 2.0], 10, "float")
    v = itlog(f)
    assert abs(v[1] - math.log(2.0)) < 1e-12
    assert all(abs(c) < 1e-12 for c in v.coeffs[2:])


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_flow_requires_field_of_order_two(mode):
    # the series sum_k s^k/k! (V D)^k t terminates only when V D raises the
    # valuation, so fields with a constant or linear term are refused
    for coeffs in ([0, 900], [1], [1, 0, 1], [0, -1, 1]):
        with pytest.raises(PreconditionError, match=r"ord\(V\) >= 2"):
            flow(TruncatedSeries(coeffs, 4, mode), 1)


def _matrix_log_itlog(f):
    """The x-column of the full matrix logarithm of C_f, as a polynomial."""
    return apply_op(log_unipotent(composition_operator(f, f.order, f.order)), Polynomial.x(f.mode))


@pytest.mark.parametrize("order", [12, 16, 20])
def test_itlog_equals_matrix_logarithm_column(order):
    tangent, general = split_by_multiplier(
        load_corpus(order=order) + random_generators(7, 3, order)
    )
    for name, f in tangent:
        assert Polynomial(itlog(f).coeffs) == _matrix_log_itlog(f), name
    for name, f in general:
        with pytest.raises(PreconditionError):
            itlog(f)


@pytest.mark.parametrize("order", [8, 12])
def test_float_itlog_matches_matrix_logarithm_column(order):
    tangent, _ = split_by_multiplier(load_corpus())
    for name, exact in tangent:
        f = TruncatedSeries([float(c) for c in exact.truncate(order).coeffs], order, FLOAT)
        v = itlog(f)
        assert all(type(c) is float for c in v.coeffs)
        assert column_discrepancy(Polynomial(v.coeffs, FLOAT), _matrix_log_itlog(f)) is None, name


def test_group_law_checks_compute_itlog_once(monkeypatch):
    # the spec's itlog and iterates all read its one set of differences
    calls = []
    real = umbral_module._forward_differences

    def counting_differences(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(umbral_module, "_forward_differences", counting_differences)
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 12))
    for s, t in ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(-1), F(1, 2))):
        assert group_law_checks(spec, s, t)["passed"]
    assert len(calls) == 1


def test_group_law_checks_compute_each_iterate_once(monkeypatch):
    # each multiplier-1 iterate is one Newton sum of the spec's differences
    exponents = []
    real = umbral_module._newton_sum

    def counting_sum(diffs, s, order):
        exponents.append(s)
        return real(diffs, s, order)

    monkeypatch.setattr(umbral_module, "_newton_sum", counting_sum)
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 12))
    report = group_law_checks(spec, F(1, 2), F(1, 3))
    # s, t, s + t, -t, t - s, -s, -s - t: -t is asked for twice
    assert sorted(exponents) == sorted(
        F(n, 6) for n in (3, 2, 5, -2, 1, -3, -5)
    )
    assert report == {
        "items": [
            {"identity": "power-additivity", "window": 10, "status": "exact-pass", "first_discrepancy": None},
            {"identity": "delta-conjugation", "window": 10, "status": "exact-pass", "first_discrepancy": None},
            {"identity": "delta-diamond-law", "window": 12, "status": "exact-pass", "first_discrepancy": None},
        ],
        "passed": True,
    }


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_flow_and_spec_iterates_match_the_flow_loop(order):
    # flow builds the Lie terms per call and a spec once; both sum them per
    # s as the loop does, so exact results are equal and floats keep their
    # bits.  A float spec's iterate rounds the exact flow of the exact itlog
    tangent, _ = split_by_multiplier(load_corpus(order=order) + random_generators(7, 3, order))
    exponents = (F(1, 2), F(1, 3), F(-1, 2), F(-5, 6), F(1, 6), F(3, 2))
    for name, f in tangent:
        exact = UmbralSpec(f)
        v = exact.itlog_series
        spec = UmbralSpec(in_mode(f, FLOAT))
        fv = spec.itlog_series
        exact_v = itlog(_exact_value(spec.f))
        for s in exponents:
            want = flow_loop(v, s)
            assert_same_series(flow(v, s), want)
            assert_same_series(exact.iterate(s), want)
            assert_same_series(flow(fv, float(s)), flow_loop(fv, float(s)))
            rounded = flow_loop(exact_v, F(float(s)))
            want = TruncatedSeries([float(c) for c in rounded.coeffs], order, FLOAT)
            assert_same_series(spec.iterate(float(s)), want)


NEWTON_EXPONENTS = [F(n) for n in range(-3, 4)] + [F(1, 2), F(1, 3), F(-1, 2), F(-5, 6), F(3, 2), F(7, 3)]


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_multiplier_one_iterates_are_the_flow_of_the_itlog(order):
    # a multiplier-1 iterate is Newton's series sum_m C(s, m) Delta^m x of
    # C_f = I + Delta; it equals the time-s flow of itlog(f), built by
    # flow's Lie terms and by the term-by-term loop, at every s: exactly for
    # an exact f, and with the same bits once rounded for a float f, whose
    # iterate is the rounded flow of the itlog of its exact value
    gens = load_corpus(order=order) + random_generators(7, 3, order) + dense_generators(7, 3, order)
    tangent, _ = split_by_multiplier(gens)
    for name, f in tangent:
        spec = UmbralSpec(f)
        v = spec.itlog_series
        float_spec = UmbralSpec(in_mode(f, FLOAT))
        exact_v = UmbralSpec(_exact_value(float_spec.f)).itlog_series
        for s in NEWTON_EXPONENTS:
            got = spec.iterate(s)
            assert_same_series(got, flow(v, s))
            assert_same_series(got, flow_loop(v, s))
            got = float_spec.iterate(float(s))
            assert_same_series(got, in_mode(flow(exact_v, F(float(s))), FLOAT))
            assert_same_series(got, in_mode(flow_loop(exact_v, F(float(s))), FLOAT))
        # an exact f^-1 is the Newton series at s = -1
        assert_same_series(spec.f_inverse, f.comp_inverse())


def test_negative_integer_iterates_use_the_cached_inverse(monkeypatch):
    # the group suite needs iterate(-s) for integer s; each spec at q != 1
    # inverts f once, for f_inverse, instead of once more per negative
    # integer s; at q = 1 every iterate is a Newton sum and inverts nothing
    calls = []
    real = TruncatedSeries.comp_inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "comp_inverse", counted)
    assert run_verify("group", 7)["passed"]
    assert len(calls) == 3
    assert len({f.coeffs for f in calls}) == 3
    assert all(f[1] != 1 for f in calls)


def test_spec_iterate_matches_fractional_iterate():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 10))
    for s in (F(1, 2), F(-2, 3), 2, -1, 0):
        assert spec.iterate(s) == fractional_iterate(spec.f, s)
    fspec = UmbralSpec(TruncatedSeries([0.0, 2.0, 1.0], 10, FLOAT))
    assert fspec.iterate(0.5) == fractional_iterate(fspec.f, 0.5)


def test_fractional_iterate_on_a_series_that_is_not_a_generator():
    f = TruncatedSeries([0, 0, 1], 12)
    assert fractional_iterate(f, 2) == TruncatedSeries([0, 0, 0, 0, 1], 12)
    assert fractional_iterate(f, 0) == TruncatedSeries.t(12)
    for s in (F(1, 2), -1):
        with pytest.raises(PreconditionError, match="not a generator"):
            fractional_iterate(f, s)
    with pytest.raises(PreconditionError, match="not a generator"):
        fractional_iterate(TruncatedSeries([0.0, 0.0, 1.0], 12, FLOAT), 0.5)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_f_inverse_composes_its_round_trip_in_exact_mode_only(mode, monkeypatch):
    calls = []
    real = TruncatedSeries.compose

    def counted(self, g):
        calls.append(g)
        return real(self, g)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    spec = UmbralSpec(in_mode(TruncatedSeries([0, 2, 1, F(-1, 3)], 10), mode))
    roundtrip = 1 if mode == EXACT else 0
    assert spec.f_inverse.order == 10
    assert len(calls) == roundtrip
    # a negative integer iterate squares the cached inverse, so -1 is that
    # inverse itself, with no composition
    assert spec.iterate(-1) is spec.f_inverse
    assert len(calls) == roundtrip


def test_float_itlog_reports_lost_precision():
    # near multiplier 1 the Koenigs route divides by q - q^m, about (1 - m)/1000,
    # so its V fails the Julia equation by far more than the tolerance
    f = TruncatedSeries([0.0, 1.001, 1.0], 12, FLOAT)
    with pytest.raises(PreconditionError, match="lost precision"):
        itlog(f)


def _exact_value(f):
    return TruncatedSeries([Fraction(c) for c in f.coeffs], f.order)


def _rounded(f):
    return tuple(float(c) for c in f.coeffs)


@pytest.mark.parametrize("order", [20, 28, 40])
def test_float_itlog_at_multiplier_one_is_the_rounded_exact_itlog(order):
    # each call also passes the Julia-residual guard, which raises otherwise
    for tail in ([1.0, 1.0], [1.0, 0.5], [1.0, 1.0, -1 / 3, 2.0], [1.0, 900.0]):
        f = series_from_tail(tail, order, FLOAT)
        assert itlog(f).coeffs == _rounded(itlog(_exact_value(f))), tail


def test_float_flow_is_the_rounded_exact_flow():
    v = itlog(series_from_tail([1, F(1, 2), F(-1, 3)], 16))
    fv = TruncatedSeries([float(c) for c in v.coeffs], 16, FLOAT)
    for s in (0.5, -1 / 3, 2.0, 1e-3):
        assert flow(fv, s).coeffs == _rounded(flow(_exact_value(fv), Fraction(s))), s


@pytest.mark.parametrize("order", [12, 16, pytest.param(20, marks=pytest.mark.slow)])
def test_float_iterate_at_multiplier_one_is_the_rounded_exact_iterate(order):
    # integer s included: composing in float rounds at every step
    for seed in (1, 2, 3, 4):
        for name, exact in random_generators(seed, 2, order):
            coeffs = [float(c) * (1.1 if n > 1 else 1) for n, c in enumerate(exact.coeffs)]
            f = TruncatedSeries(coeffs, order, FLOAT)
            spec = UmbralSpec(f)
            for s in (0.5, 2.0, -1.0, -1 / 3):
                want = _rounded(fractional_iterate(_exact_value(f), Fraction(s)))
                assert fractional_iterate(f, s).coeffs == want, (name, s)
                assert spec.iterate(s).coeffs == want, (name, s)


def test_float_integer_iterate_rounds_the_squared_exact_iterate():
    # float integer iterates at multiplier 1 take the exact flow; they round
    # to the same bits as the exact iterate, which squares under composition
    gens = [TruncatedSeries([0.0, 1.0, 1.0], 12, FLOAT)]
    for seed in (1, 2):
        for _, exact in random_generators(seed, 2, 12):
            gens.append(TruncatedSeries([float(c) for c in exact.coeffs], 12, FLOAT))
    for f in gens:
        for s in (2, 3, -1, -2, 7, 1000):
            want = [float(c).hex() for c in fractional_iterate(_exact_value(f), s)]
            assert [c.hex() for c in fractional_iterate(f, s)] == want, (f, s)
            assert [c.hex() for c in UmbralSpec(f).iterate(s)] == want, (f, s)


def test_exact_value_of_non_finite_floats_is_refused():
    f = TruncatedSeries([0.0, 1.0, math.inf], 4, FLOAT)
    with pytest.raises(PreconditionError, match="non-finite"):
        itlog(f)
    v = TruncatedSeries([0.0, 0.0, math.nan], 4, FLOAT)
    with pytest.raises(PreconditionError, match="non-finite"):
        flow(v, 0.5)
    with pytest.raises(PreconditionError, match="non-finite"):
        flow(TruncatedSeries([0.0, 0.0, 1.0], 4, FLOAT), math.inf)


@pytest.mark.slow
@pytest.mark.parametrize("order", [16, 20, 24])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_sweep_above_default_order(seed, order):
    for name, f in random_generators(seed, 2, order):
        spec = UmbralSpec(f)
        v = spec.itlog_series
        assert julia_residual(f, v).is_zero(), name
        assert flow(v, 1) == f, name
        half = frac_power(spec, F(1, 2)).matrix
        whole = frac_power(spec, 1).matrix
        assert first_discrepancy(compose_ops(half, half), whole) is None, name


@pytest.mark.slow
@pytest.mark.parametrize("order", [16, 20, 24])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_float_sweep_is_exact_then_rounded(seed, order):
    for name, exact in random_generators(seed, 2, order):
        f = TruncatedSeries([float(c) for c in exact.coeffs], order, FLOAT)
        value = _exact_value(f)
        assert itlog(f).coeffs == _rounded(itlog(value)), name
        want = fractional_iterate(value, F(1, 2))
        got = fractional_iterate(f, 0.5)
        for n, c in enumerate(want.coeffs):
            if c:
                assert abs(got[n] - c) <= 1e-12 * abs(c), (name, n)
            else:
                assert got[n] == 0, (name, n)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["roadmap", "geometric-alternating", "cubic-exp-prefix"])
def test_constructions_half_power_and_group_laws_at_order_40(name):
    order = 40
    if name == "roadmap":
        f = series_from_tail([1, 1, F(-1, 3), 2], order)
    else:
        f = dict(load_corpus(order=order))[name]
    spec = UmbralSpec(f)
    ops = {key: build(spec).matrix for key, build in CONSTRUCTIONS.items()}
    garsia = ops["garsia"]
    for key, op in ops.items():
        assert op.window == spec.default_n_max(), key
        assert first_discrepancy(garsia, op) is None, key
    half = frac_power(spec, F(1, 2)).matrix
    square = compose_ops(half, half)
    assert square.window >= garsia.window
    assert first_discrepancy(square, garsia) is None
    assert group_law_checks(spec, F(1, 2), F(1, 3))["passed"]


# -- the integer-view loops against the Fraction loops they replaced ---------
#
# itlog, flow and the bucc/Steffensen constructions run on integer numerators
# over running common denominators.  The oracles are the loops they replaced.
# Exact results must be equal and canonical, floats the same bits.


def _itlog_loop(f):
    cf = composition_operator(f, f.order, f.order)
    delta = Polynomial.x()
    v = Polynomial.zero()
    for k in range(1, f.order + 1):
        delta = apply_op(cf, delta) - delta
        if delta.is_zero():
            break
        v = v + delta.scale(F(1 if k % 2 else -1, k))
    return TruncatedSeries(list(v), f.order)


def _flow_loop(V, s):
    g = cur = TruncatedSeries.t(V.order)
    for k in range(1, V.order):
        cur = V * cur.derivative().pad(V.order)
        g = g + cur.scale(s**k / math.factorial(k))
    return g


def _bucc_loop(f, n_max):
    mode = f.mode
    g = (f - TruncatedSeries.t(f.order, mode)).truncate(n_max)
    gpow = TruncatedSeries.one(n_max, mode)
    one, zero = (1.0, 0.0) if mode == FLOAT else (F(1), F(0))
    cols = [[zero] * (n_max + 1) for _ in range(n_max + 1)]
    for k in range(n_max + 1):
        if k:
            gpow = gpow * g
        gk = op_from_D_series(gpow, n_max)
        inv_fact = one / math.factorial(k)
        for n in range(k, n_max + 1):
            for i, a in enumerate(gk.col(n).coeffs):
                if a:
                    cols[n][k + i] += inv_fact * a
    return _square_op(cols, n_max, mode)


def _steffensen_loop(spec, n_max):
    mode = spec.mode
    finv = spec.f_inverse
    u = finv.shift_down(1).unit_inverse().truncate(n_max) - TruncatedSeries.one(n_max, mode)
    upow = TruncatedSeries.one(n_max, mode)
    zero = 0.0 if mode == FLOAT else F(0)
    cols = [[zero] * (n + 1) for n in range(n_max + 1)]
    for m in range(n_max + 2):
        if m:
            upow = upow * u
            if upow.is_zero():
                break
        for k, a in upow.terms():
            for n in range(max(m - 1, k), n_max + 1):
                cols[n][n - k] += a * (math.perm(n, k) * math.comb(n + 1, m))
    powered = _square_op(cols, n_max, mode)
    return compose_ops(op_from_D_series(finv.derivative().truncate(n_max), n_max), powered)


def _steffensen_transfer_loop(spec, n_max):
    mode = spec.mode
    finv = spec.f_inverse
    base = finv.shift_down(1).unit_inverse().truncate(n_max)
    cols = []
    bpow = TruncatedSeries.one(n_max, mode)
    for n in range(n_max + 1):
        bpow = bpow * base
        cols.append(op_from_D_series(bpow, n).col(n))
    powered = OperatorMatrix(cols, n_max, n_max, n_max, True, mode)
    return compose_ops(op_from_D_series(finv.derivative().truncate(n_max), n_max), powered)


def _steffensen2_loop(spec, n_max):
    mode = spec.mode
    base = spec.f_inverse.shift_down(1).unit_inverse().truncate(n_max)
    cols = [Polynomial.one(mode)]
    bpow = TruncatedSeries.one(n_max, mode)
    for n in range(1, n_max + 1):
        bpow = bpow * base
        cols.append(op_from_D_series(bpow, n - 1).col(n - 1).shift(1))
    return OperatorMatrix(cols, n_max, n_max, n_max, True, mode)


def _square_op(cols, n_max, mode):
    return OperatorMatrix([Polynomial(c, mode) for c in cols], n_max, n_max, n_max, True, mode)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_itlog_and_flow_match_the_fraction_loops(order):
    for _, f in oracle_generators(order):
        if f[1] != 1:
            continue
        v = itlog(f)
        assert_same_series(v, _itlog_loop(f))
        for s in (F(1, 2), F(-2, 3), F(3), F(0)):
            assert_same_series(flow(v, s), _flow_loop(v, s))
        # float itlog and flow round the exact values once
        ff = in_mode(f, FLOAT)
        assert_same_series(itlog(ff), in_mode(_itlog_loop(_exact_value(ff)), FLOAT))
        fv = in_mode(v, FLOAT)
        for s in (0.5, -1 / 3):
            want = _flow_loop(_exact_value(fv), F(s))
            assert_same_series(flow(fv, s), in_mode(want, FLOAT))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_bucc_and_steffensen_match_the_fraction_loops(order, mode):
    for _, f in oracle_generators(order):
        spec = UmbralSpec(in_mode(f, mode))
        for n_max in (spec.default_n_max(), 5):
            assert_same_op(umbral_bucc(spec, n_max).matrix, _bucc_loop(spec.f, n_max))
            # the transfer formula b^{n+1} in both modes; the binomial sum
            # sum_m binom(n + 1, m) (b - 1)^m cancels in float mode, so it is
            # the oracle for exact mode only
            steffensen = umbral_steffensen(spec, n_max).matrix
            assert_same_op(steffensen, _steffensen_transfer_loop(spec, n_max))
            if mode == EXACT:
                assert_same_op(steffensen, _steffensen_loop(spec, n_max))
            assert_same_op(umbral_steffensen2(spec, n_max).matrix, _steffensen2_loop(spec, n_max))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_steffensen_constructions_share_one_dq_ladder(monkeypatch, mode):
    # the transfer and Rodrigues formulas read the powers of D/Q from one
    # ladder per n_max, kept on the spec
    ladders = []
    real = umbral_module._int_powers

    def counted(g, size):
        ladders.append((g, size))
        return real(g, size)

    monkeypatch.setattr(umbral_module, "_int_powers", counted)
    f = in_mode(TruncatedSeries([0, 1, 1, F(-1, 3), 2, F(1, 5)], 14), mode)
    spec = UmbralSpec(f)
    n_maxes = (spec.default_n_max(), 7)
    for n_max in n_maxes:
        umbral_steffensen(spec, n_max)
        umbral_steffensen2(spec, n_max)
    # one D/Q ladder per n_max, the second n_max its own; an exact f^-1 is
    # a Newton sum, whose differences walk the powers of f itself
    assert [size for g, size in ladders if g != f] == [n_max + 1 for n_max in n_maxes]
    for n_max in n_maxes:
        assert_same_op(umbral_steffensen(spec, n_max).matrix, umbral_steffensen(UmbralSpec(f), n_max).matrix)
        assert_same_op(umbral_steffensen2(spec, n_max).matrix, umbral_steffensen2(UmbralSpec(f), n_max).matrix)


def test_delta_operator_at_one_is_the_spec_iterate_in_float_mode():
    # a float spec holds one f^-1 for the delta operators: the iterate at -1
    for seed in range(3):
        for _, f in random_generators(seed, 3, 16):
            spec = UmbralSpec(in_mode(f, FLOAT))
            n = spec.default_n_max()
            want = op_from_D_series(spec.iterate(-1.0).truncate(n), n)
            assert_same_op(delta_operator(spec, 1), want)


def test_float_diamond_law_passes_within_the_column_tolerance():
    gens = load_corpus(order=16) + [g for seed in range(10) for g in random_generators(seed, 3, 16)]
    for name, f in gens:
        spec = UmbralSpec(in_mode(f, FLOAT))
        pairs = ((0.5, 0.5), (0.5, 1 / 3), (-1.0, 0.5)) if spec.q == 1 else ((2.0, 3.0),)
        for s, t in pairs:
            item = group_law_checks(spec, s, t)["items"][2]
            assert item["identity"] == "delta-diamond-law"
            assert item["status"] == "exact-pass", (name, s, t)


def test_exact_diamond_law_failure_names_its_coefficient():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 12))
    wrong = spec.iterate(F(-5, 6)) + TruncatedSeries([0] * 7 + [F(1, 9)], 12)
    spec._iterates[F(-5, 6)] = wrong
    report = group_law_checks(spec, F(1, 2), F(1, 3))
    assert [it["status"] for it in report["items"]] == ["exact-pass", "exact-pass", "fail"]
    assert report["items"][2] == {
        "identity": "delta-diamond-law",
        "window": 12,
        "status": "fail",
        "first_discrepancy": {"coeff": 7},
    }
    assert not report["passed"]


def test_float_spec_computes_one_exact_itlog_across_iterates(monkeypatch):
    modes = []
    real = umbral_module._forward_differences

    def counted(f):
        modes.append(f.mode)
        return real(f)

    monkeypatch.setattr(umbral_module, "_forward_differences", counted)
    f = TruncatedSeries([0.0, 1.0, 0.5, -0.25, 2.0], 12, FLOAT)
    spec = UmbralSpec(f)
    for s in (0.5, 2.0, -1.0, -1 / 3, 3.0, 1e6):
        want = fractional_iterate(f, s)
        assert [c.hex() for c in spec.iterate(s)] == [c.hex() for c in want], s
    # fractional_iterate takes one exact set of differences per call, the
    # spec one in all
    assert modes.count(EXACT) == 6 + 1
    assert modes.count(FLOAT) == 0


def test_float_spec_itlog_series_rounds_the_spec_exact_itlog(monkeypatch):
    modes = []
    real = umbral_module._forward_differences

    def counted(f):
        modes.append(f.mode)
        return real(f)

    monkeypatch.setattr(umbral_module, "_forward_differences", counted)
    f = TruncatedSeries([0.0, 1.0, 0.5, -0.25], 12, FLOAT)
    spec = UmbralSpec(f)
    umbral_exp_itlog(spec)
    frac_power(spec, 0.5)
    # one exact set of differences feeds both; itlog_series took a second
    # itlog before
    assert modes == [EXACT]
    assert [c.hex() for c in spec.itlog_series] == [c.hex() for c in itlog(f)]


def test_float_spec_builds_one_koenigs_coordinate(monkeypatch):
    # itlog and every non-integer iterate at q != 1 share the spec's psi;
    # each of the four built its own before
    calls = []
    real = umbral_module.koenigs_coordinate

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(umbral_module, "koenigs_coordinate", counted)
    f = TruncatedSeries([0.0, 2.0, 1.0, -0.5], 12, FLOAT)
    spec = UmbralSpec(f)
    v = spec.itlog_series
    halves = [spec.iterate(s) for s in (0.5, 1 / 3)]
    frac_power(spec, 0.25)
    assert len(calls) == 1
    psi = real(f)
    want = (psi * psi.derivative().pad(12).unit_inverse()).scale(math.log(2.0))
    assert [c.hex() for c in v] == [c.hex() for c in want]
    for s, got in zip((0.5, 1 / 3), halves):
        want = psi.comp_inverse().compose(psi.scale(2.0**s))
        assert [c.hex() for c in got] == [c.hex() for c in want], s


@pytest.mark.parametrize("q", [1, 2, F(1, 2)])
def test_itlog_is_the_spec_itlog_series(q):
    for tail in ([1, F(1, 2), F(-1, 4)], [1, 1, F(-1, 3), 2], [1, F(-1, 2)]):
        exact = series_from_tail([c * q for c in tail], 12)
        f = TruncatedSeries([float(c) for c in exact.coeffs], 12, FLOAT)
        assert [c.hex() for c in itlog(f)] == [c.hex() for c in UmbralSpec(f).itlog_series], (q, tail)
        if q == 1:
            assert itlog(exact) == UmbralSpec(exact).itlog_series, tail


@pytest.mark.parametrize(
    "coeffs, mode, msg",
    [
        ([1, 1], EXACT, "itlog requires f(0) = 0"),
        ([1.0, 1.0], FLOAT, "itlog requires f(0) = 0"),
        ([0, 0, 1], EXACT, "exact itlog requires multiplier f'(0) = 1"),
        ([0.0, 0.0, 1.0], FLOAT, "itlog requires f'(0) != 0"),
        ([0, 2, 1], EXACT, "exact itlog requires multiplier f'(0) = 1"),
    ],
)
def test_itlog_refusals_keep_their_messages(coeffs, mode, msg):
    f = TruncatedSeries(coeffs, 6, mode)
    with pytest.raises(PreconditionError) as err:
        itlog(f)
    assert type(err.value) is PreconditionError and str(err.value) == msg
    if f.valuation() == 1:
        with pytest.raises(PreconditionError) as err:
            UmbralSpec(f).itlog_series
        assert str(err.value) == msg


def test_float_spec_itlog_series_runs_the_precision_check(monkeypatch):
    f = TruncatedSeries([0.0, 1.0, 0.5, -0.25], 12, FLOAT)
    bad = TruncatedSeries([0.0, 0.0, 0.0, 1.0], 10, FLOAT)
    monkeypatch.setattr(umbral_module, "julia_residual", lambda f, v: bad)
    msg = r"Julia residual 1 at t\^3 exceeds"
    with pytest.raises(PreconditionError, match=msg):
        itlog(f)
    with pytest.raises(PreconditionError, match=msg):
        UmbralSpec(f).itlog_series


def _garsia_loop(spec, n_max):
    f = spec.f
    power = TruncatedSeries.one(f.order, f.mode)
    rows = [list(power)]
    for _ in range(n_max):
        power = power * f
        rows.append(list(power))
    zero = 0.0 if f.mode == FLOAT else F(0)
    cols = [[zero] * (n + 1) for n in range(n_max + 1)]
    for n, col in enumerate(cols):
        for k in range(n + 1):
            if rows[k][n] != 0:
                col[k] = rows[k][n] * math.factorial(n) / math.factorial(k)
    return _square_op(cols, n_max, f.mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_garsia_matches_the_fraction_loop(order, mode):
    for _, f in oracle_generators(order):
        spec = UmbralSpec(in_mode(f, mode))
        for n_max in (order, spec.default_n_max(), 5):
            assert_same_op(umbral_garsia(spec, n_max).matrix, _garsia_loop(spec, n_max))
