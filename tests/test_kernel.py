"""The exact kernel's trusted internal constructors: internal results keep
canonical coefficients, public constructors still validate, and operator
composition builds no validated polynomial."""

from fractions import Fraction

import pytest

from umbralops.operators import (
    NormalForm,
    OperatorMatrix,
    _apply_raw,
    compose_ops,
    composition_operator,
    normal_form,
    op_add,
    op_from_normal_form,
    op_scale,
    op_sub,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import EXACT, FLOAT, ModeMismatchError
from umbralops.series import TruncatedSeries
from umbralops.umbral import (
    CONSTRUCTIONS,
    UmbralOperator,
    UmbralSpec,
    frac_power,
    itlog,
    umbral_garsia,
)

F = Fraction

TANGENT = [0, 1, 1, F(-1, 3), 2]
GENERAL = [0, 2, 1]


def _series(coeffs, mode, order=10):
    if mode == FLOAT:
        coeffs = [float(c) for c in coeffs]
    return TruncatedSeries(coeffs, order, mode)


def _assert_canonical(obj, mode):
    """Every coefficient has the mode's own type (an int would still compare
    equal) and no polynomial keeps a trailing zero."""
    kind = Fraction if mode == EXACT else float
    if isinstance(obj, UmbralOperator):
        obj = obj.matrix
    if isinstance(obj, OperatorMatrix):
        assert obj.mode == mode
        for col in obj.cols:
            _assert_canonical(col, mode)
        return
    if isinstance(obj, NormalForm):
        coeffs = list(obj.table.values())
    else:
        coeffs = list(obj.coeffs)
    assert obj.mode == mode
    assert [type(c) for c in coeffs] == [kind] * len(coeffs), obj
    if isinstance(obj, Polynomial):
        assert not coeffs or coeffs[-1] != 0, obj


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("coeffs", [TANGENT, GENERAL], ids=["tangent", "general"])
def test_internal_results_keep_canonical_coefficients(coeffs, mode):
    f = _series(coeffs, mode)
    g = _series([0, 1, F(1, 2)], mode)
    spec = UmbralSpec(f)
    ops = [build(spec) for build in CONSTRUCTIONS.values()]
    results = list(ops)
    if spec.q == 1 or mode == FLOAT:
        results.append(itlog(f))
    results.append(frac_power(spec, 2))
    if spec.q == 1:
        results.append(frac_power(spec, F(1, 2) if mode == EXACT else 0.5))
    U, V = ops[0].matrix, ops[3].matrix
    results += [compose_ops(U, V), op_add(U, V), op_sub(U, V), op_scale(U, 3)]
    nf = normal_form(composition_operator(f, f.order, f.order))
    results += [nf, op_from_normal_form(nf, 6)]
    results += [f * g, f.compose(g), f.comp_inverse(), f.derivative()]
    for obj in results:
        _assert_canonical(obj, mode)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad, mode: Polynomial([1, bad], mode),
        lambda bad, mode: TruncatedSeries([bad], 3, mode),
        lambda bad, mode: Polynomial.monomial(2, bad, mode),
        lambda bad, mode: Polynomial.one(mode).scale(bad),
    ],
    ids=["Polynomial", "TruncatedSeries", "monomial", "scale"],
)
@pytest.mark.parametrize(
    "bad, mode",
    [(0.5, EXACT), (F(1, 2), FLOAT), (True, EXACT), (True, FLOAT)],
    ids=["float-in-exact", "fraction-in-float", "bool-in-exact", "bool-in-float"],
)
def test_public_constructors_still_validate(build, bad, mode):
    # ModeMismatchError is a TypeError
    with pytest.raises(TypeError):
        build(bad, mode)


def test_operator_composition_builds_no_validated_polynomial(monkeypatch):
    U = umbral_garsia(UmbralSpec(TruncatedSeries(TANGENT, 12))).matrix
    V = umbral_garsia(UmbralSpec(TruncatedSeries([0, 1, F(1, 2)], 12))).matrix
    calls = []
    validating_init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        validating_init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    Polynomial.x()
    assert len(calls) == 1  # the counter sees public constructions
    calls.clear()
    compose_ops(U, V)
    _apply_raw(U, V.col(V.n_in))
    assert calls == []
