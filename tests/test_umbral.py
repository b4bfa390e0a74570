"""Umbral constructions, iteration theory, fractional powers, identities."""

from fractions import Fraction

import pytest

import umbralops.umbral as umbral_module
from umbralops.corpus import load_corpus, random_generators, split_by_multiplier
from umbralops.operators import (
    apply_op,
    column_discrepancy,
    composition_operator,
    compose_ops,
    exp_loc_nilpotent,
    first_discrepancy,
    identity_op,
    log_unipotent,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import FLOAT
from umbralops.series import PreconditionError, TruncatedSeries
from umbralops.umbral import (
    CONSTRUCTIONS,
    UmbralSpec,
    _x_times_D_series,
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
    umbral_garsia,
    umbral_inverse,
)

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
            lhs = exp_loc_nilpotent(_x_times_D_series(vs, n_max))
            spec = UmbralSpec(flow(v, s))
            rhs = umbral_bucc(spec, n_max).matrix
            assert first_discrepancy(lhs, rhs) is None


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


def test_coeff_identity_scan():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1], 12))
    assert coeff_identity_scan(spec, F(1, 2), 6) is None
    spec2 = UmbralSpec(TruncatedSeries([0, 2, 1], 12))
    assert coeff_identity_scan(spec2, 2, 6) is None


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


def test_float_flow_reports_divergence():
    # the terms 900^k / k! overflow before k! stops fitting a float
    with pytest.raises(PreconditionError, match="did not converge"):
        flow(TruncatedSeries([0.0, 900.0], 4, FLOAT), 1.0)


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
    calls = []

    def counting_itlog(f):
        calls.append(f)
        return itlog(f)

    monkeypatch.setattr(umbral_module, "itlog", counting_itlog)
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 12))
    for s, t in ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(-1), F(1, 2))):
        assert group_law_checks(spec, s, t)["passed"]
    assert len(calls) == 1


def test_spec_iterate_matches_fractional_iterate():
    spec = UmbralSpec(TruncatedSeries([0, 1, 1, F(-1, 3), 2], 10))
    for s in (F(1, 2), F(-2, 3), 2, -1, 0):
        assert spec.iterate(s) == fractional_iterate(spec.f, s)
    fspec = UmbralSpec(TruncatedSeries([0.0, 2.0, 1.0], 10, FLOAT))
    assert fspec.iterate(0.5) == fractional_iterate(fspec.f, 0.5)


def test_float_itlog_reports_lost_precision():
    f = TruncatedSeries([0.0, 1.0, 900.0] + [0.0] * 38, 40, FLOAT)
    with pytest.raises(PreconditionError, match="lost precision"):
        itlog(f)


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
