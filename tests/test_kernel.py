"""The exact kernel's trusted internal constructors: internal results keep
canonical coefficients, public constructors still validate, and operator
composition builds no validated polynomial."""

import random
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
    op_from_x_poly,
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


# -- integer kernels against the Fraction loops they replaced ---------------
#
# Series and polynomial products, unit_inverse and compose_ops compute on
# the stored integer views.  Each is checked against the plain
# field loop it replaced: equal and canonical in exact mode, bit-identical
# floats (never an int 0) in float mode.


def _zero(mode):
    return F(0) if mode == EXACT else 0.0


def _series_mul_loop(a, b):
    n = a.order
    out = [_zero(a.mode)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j in range(0, n + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return out


def _poly_mul_loop(a, b):
    if not a.coeffs or not b.coeffs:
        return []
    out = [_zero(a.mode)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            if y != 0:
                out[i + j] += x * y
    return _trimmed(out)


def _unit_inverse_loop(f):
    n = f.order
    out = [_zero(f.mode)] * (n + 1)
    out[0] = (1 if f.mode == EXACT else 1.0) / f.coeffs[0]
    for m in range(1, n + 1):
        s = _zero(f.mode)
        for k in range(1, m + 1):
            s += f.coeffs[k] * out[m - k]
        out[m] = -s / f.coeffs[0]
    return out


def _apply_loop(U, p, max_out):
    out = [_zero(U.mode)] * (U.max_out + 1)
    for d, c in enumerate(p.coeffs[: U.n_in + 1]):
        if c:
            for i, a in enumerate(U.cols[d].coeffs):
                if a:
                    out[i] += c * a
    return _trimmed(out[: max_out + 1])


def _trimmed(out):
    while out and out[-1] == 0:
        out.pop()
    return out


def _same(got, want, mode):
    """Exact: equal values.  Float: the same bits, -0.0 and nan included."""
    got, want = list(got), list(want)
    if mode == EXACT:
        assert got == want
    else:
        assert [float.hex(c) for c in got] == [float.hex(c) for c in want]


DENOMINATORS = {
    "mixed": lambda rng, k: rng.choice((1, 2, 3, 4, 6, 8, 9, 12)),
    "coprime": lambda rng, k: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[k % 12],
    "integer": lambda rng, k: 1,
}


def _coeffs(rng, size, kind, mode, zero_share=0.3):
    """size seeded coefficients, about zero_share of them zero; kind "zero"
    makes them all zero."""
    out = []
    for k in range(size):
        if kind == "zero" or rng.random() < zero_share:
            c = F(0)
        else:
            c = F(rng.choice((-1, 1)) * rng.randint(1, 40), DENOMINATORS[kind](rng, k))
        out.append(c if mode == EXACT else float(c))
    return out


KINDS = sorted(DENOMINATORS) + ["zero"]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_series_and_polynomial_products_match_the_fraction_loop(seed, kind, mode):
    rng = random.Random(seed)
    for order in (0, 1, 7, 16):
        a = TruncatedSeries(_coeffs(rng, order + 1, kind, mode), order, mode)
        b = TruncatedSeries(_coeffs(rng, order + 1, "mixed", mode), order, mode)
        for x, y in ((a, b), (b, a), (a, a)):
            got = x * y
            _assert_canonical(got, mode)
            _same(got.coeffs, _series_mul_loop(x, y), mode)
        p = Polynomial(_coeffs(rng, order + 1, kind, mode), mode)
        q = Polynomial(_coeffs(rng, order // 2 + 1, "coprime", mode), mode)
        for x, y in ((p, q), (q, p), (p, p)):
            got = x * y
            _assert_canonical(got, mode)
            _same(got.coeffs, _poly_mul_loop(x, y), mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_inverse_matches_the_fraction_loop(seed, kind, mode):
    rng = random.Random(seed)
    for order in (0, 1, 6, 15):
        coeffs = _coeffs(rng, order + 1, kind, mode, zero_share=0.5)
        coeffs[0] = F(rng.choice((-7, -1, 1, 3)), rng.choice((1, 5, 6)))
        if mode == FLOAT:
            coeffs[0] = float(coeffs[0])
        f = TruncatedSeries(coeffs, order, mode)
        got = f.unit_inverse()
        _assert_canonical(got, mode)
        _same(got.coeffs, _unit_inverse_loop(f), mode)
    # sparse 1 + t^2 leaves -0.0 at the odd powers in float mode
    f = TruncatedSeries([1, 0, 1], 5, mode)
    _same(f.unit_inverse().coeffs, _unit_inverse_loop(f), mode)


def _operator(rng, n_in, max_out, kind, mode, complete=True, window=None, lift=False):
    """Seeded columns of degree at most max_out; with lift, column n has
    valuation at least n (valuation-nondecreasing)."""
    cols = []
    for n in range(n_in + 1):
        low = min(n, max_out + 1) if lift else 0
        size = rng.randint(0, max_out + 1 - low)
        cols.append(Polynomial([0] * low + _coeffs(rng, size, kind, mode), mode))
    return OperatorMatrix(cols, n_in, max_out, n_in if window is None else window, complete, mode)


def _check_compose(U, V, max_out, window, complete):
    W = compose_ops(U, V)
    _assert_canonical(W, U.mode)
    assert (W.n_in, W.max_out, W.window, W.complete) == (V.n_in, max_out, window, complete)
    for got, col in zip(W.cols, V.cols):
        _same(got.coeffs, _apply_loop(U, col, max_out), U.mode)
    _same(_apply_raw(U, V.col(0)).coeffs, _apply_loop(U, V.col(0), U.max_out), U.mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compose_ops_matches_the_fraction_loop(seed, kind, mode):
    rng = random.Random(seed)
    # complete V: every column certified when U's window covers V's degrees
    U = _operator(rng, 9, 12, kind, mode)
    V = _operator(rng, 9, 9, "mixed", mode)
    _check_compose(U, V, 12, 9, True)
    _check_compose(V, _operator(rng, 9, 9, kind, mode), 9, 9, True)
    # complete V whose columns outgrow U's window: the window stops at the
    # first such column, and U's incompleteness carries over
    U = _operator(rng, 10, 10, kind, mode, complete=False, window=6)
    V = op_from_x_poly(Polynomial.x(mode), 8)
    _check_compose(U, V, 10, 5, False)
    # incomplete V: U valuation-nondecreasing with its window over V.max_out
    U = _operator(rng, 10, 12, kind, mode, complete=False, lift=True)
    V = _operator(rng, 8, 9, "coprime", mode, complete=False, window=7)
    _check_compose(U, V, 9, 7, False)
