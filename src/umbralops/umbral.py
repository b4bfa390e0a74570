"""Umbral operators built by several independent classical constructions,
iterative logarithms, fractional iteration flows and fractional operator
powers, plus the identity checks tying them together.

Every construction returns the same triangular matrix when the generator is
the same; the cross-construction comparison is the engine's core check.
"""

from __future__ import annotations

import math
from functools import cached_property

from .bivariate import biv_sub, expand_in_x_plus_y, product_x_y
from .operators import (
    FLOAT_COLUMN_TOL,
    OperatorMatrix,
    NormalForm,
    apply_op,
    compose_ops,
    composition_operator,
    diag_op,
    exp_loc_nilpotent,
    first_discrepancy,
    gen_pow,
    identity_op,
    log_unipotent,
    normal_form,
    op_from_D_series,
    op_from_normal_form,
    op_inverse,
    op_pow,
    op_sub,
    pincherle_derivative,
    x_op,
    xD_op,
)
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, coerce, qbinom
from .series import PreconditionError, TruncatedSeries


def _is_integer(s) -> bool:
    return s == int(s)


# -- iteration theory -----------------------------------------------------


def itlog(f: TruncatedSeries) -> TruncatedSeries:
    """Iterative logarithm: the generator V of the fractional-iteration flow
    of f, i.e. the unique series with C_f = e^{V(x)D} on truncations.

    For multiplier f'(0) = 1, V is the x-column of log(C_f), computed as one
    vector: V = sum_k (-1)^{k+1}/k Delta^k x with Delta p = C_f p - p
    truncated at N = f.order.  Delta raises the valuation by at least one,
    so at most N steps of O(N^2) each give V in O(N^3) scalar operations.

    Exact mode requires multiplier 1 (the tangent-to-identity case); float
    mode additionally handles other multipliers via the linearizing
    coordinate, and raises PreconditionError when V fails the Julia equation
    by more than FLOAT_COLUMN_TOL times max(1, max |V_n|).
    """
    if f.order < 1 or f[0] != 0:
        raise PreconditionError("itlog requires f(0) = 0")
    q = f[1]
    one = coerce(1, f.mode)
    if q == one:
        cf = composition_operator(f, f.order, f.order)
        delta = Polynomial.x(f.mode)
        v_poly = Polynomial.zero(f.mode)
        for k in range(1, f.order + 1):
            delta = apply_op(cf, delta) - delta
            if delta.is_zero():
                break
            v_poly = v_poly + delta.scale(one / k * (1 if k % 2 else -1))
        out = TruncatedSeries(list(v_poly.coeffs), f.order, f.mode)
        if out.order >= 1 and (out[0] != 0 or out[1] != 0):
            raise AssertionError("iterative logarithm must vanish to second order")
    elif f.mode == EXACT:
        raise PreconditionError("exact itlog requires multiplier f'(0) = 1")
    elif q == 0:
        raise PreconditionError("itlog requires f'(0) != 0")
    else:
        psi = koenigs_coordinate(f)
        den = psi.derivative().pad(f.order)
        out = (psi * den.unit_inverse()).scale(math.log(q))
    if f.mode == FLOAT:
        tol = FLOAT_COLUMN_TOL * max([1.0] + [abs(c) for c in out.coeffs])
        resid = julia_residual(f, out)
        if not all(abs(c) <= tol for c in resid.coeffs):
            worst = max(abs(c) for c in resid.coeffs)
            raise PreconditionError(
                f"float itlog lost precision: Julia residual {worst:.3g} exceeds {tol:.3g}"
            )
    return out


def koenigs_coordinate(f: TruncatedSeries) -> TruncatedSeries:
    """Linearizing series psi with psi(f(t)) = f'(0) psi(t), psi'(0) = 1.

    Requires the multiplier to avoid roots of unity (q^m != q for m >= 2).
    """
    q = f[1]
    n = f.order
    psi = [coerce(0, f.mode), coerce(1, f.mode)] + [coerce(0, f.mode)] * (n - 1)
    for m in range(2, n + 1):
        partial = TruncatedSeries(psi[: m + 1], m, f.mode)
        c = partial.compose(f.truncate(m))[m]
        denom = q - q**m
        if denom == 0:
            raise PreconditionError("multiplier is a root of unity; no linearization")
        psi[m] = c / denom
    return TruncatedSeries(psi, n, f.mode)


def flow(V: TruncatedSeries, s) -> TruncatedSeries:
    """Time-s flow of the vector field V(x) d/dx applied to the identity:
    the series g^s with g^s o g^r = g^{s+r} and itlog(g^1) = V."""
    if V[0] != 0:
        raise PreconditionError("flow requires V(0) = 0")
    s = coerce(s, V.mode)
    exact = V.mode == EXACT
    if exact:
        v = V.valuation()
        if v is not None and v < 2:
            raise PreconditionError("exact flow requires ord(V) >= 2")
    g = TruncatedSeries.t(V.order, V.mode)
    cur = g
    k = 0
    spow = coerce(1, V.mode)
    fact = 1
    while True:
        k += 1
        cur = V * cur.derivative().pad(V.order)
        if cur.is_zero():
            break
        spow *= s
        fact *= k
        try:
            term = cur.scale(spow / fact)
        except OverflowError:
            # float mode only: k! no longer fits a float (k = 171)
            raise PreconditionError("flow series did not converge") from None
        g = g + term
        if not exact:
            scale = max(abs(c) for c in g.coeffs)
            if k > V.order and max(abs(c) for c in term.coeffs) < 1e-16 * max(scale, 1.0):
                break
        if k > 4 * (V.order + 2) and exact:
            raise PreconditionError("flow series did not terminate")
    return g


def fractional_iterate(f: TruncatedSeries, s) -> TruncatedSeries:
    """The fractional compositional iterate f^s.

    Integer s works for any multiplier (repeated composition / inversion);
    non-integer s requires multiplier 1 in exact mode, and any multiplier in
    float mode via the linearizing coordinate.
    """
    s = coerce(s, f.mode)
    if _is_integer(s):
        k = int(s)
        base = f if k >= 0 else f.comp_inverse()
        acc = TruncatedSeries.t(f.order, f.mode)
        for _ in range(abs(k)):
            acc = base.compose(acc)
        return acc
    one = coerce(1, f.mode)
    if f[1] == one:
        return flow(itlog(f), s)
    if f.mode == EXACT:
        raise PreconditionError(
            "exact fractional iteration requires multiplier 1 or integer s"
        )
    psi = koenigs_coordinate(f)
    inner = psi.scale(f[1] ** s)
    return psi.comp_inverse().compose(inner)


# -- umbral specs and operators --------------------------------------------


class UmbralSpec:
    """A generator series f with f(0) = 0, f'(0) != 0, plus cached derived
    series (compositional inverse, iterative logarithm)."""

    def __init__(self, f: TruncatedSeries):
        if f.order < 1 or f[0] != 0 or f[1] == 0:
            raise PreconditionError("umbral spec requires f(0) = 0 and f'(0) != 0")
        self.f = f

    @property
    def q(self):
        """The multiplier f'(0)."""
        return self.f[1]

    @property
    def order(self) -> int:
        return self.f.order

    @property
    def mode(self) -> str:
        return self.f.mode

    @cached_property
    def f_inverse(self) -> TruncatedSeries:
        g = self.f.comp_inverse()
        roundtrip = self.f.compose(g)
        if roundtrip != TruncatedSeries.t(self.f.order, self.f.mode) and self.mode == EXACT:
            raise AssertionError("compositional inverse failed its round trip")
        return g

    @cached_property
    def itlog_series(self) -> TruncatedSeries:
        return itlog(self.f)

    def iterate(self, s) -> TruncatedSeries:
        """fractional_iterate(f, s), reusing the cached iterative logarithm
        where that takes the flow route (non-integer s, multiplier 1)."""
        s = coerce(s, self.mode)
        if not _is_integer(s) and self.q == coerce(1, self.mode):
            return flow(self.itlog_series, s)
        return fractional_iterate(self.f, s)

    def default_n_max(self) -> int:
        # leave headroom: some constructions consume derivative/inverse
        # series whose reliable order is one or two below the f order
        return max(self.order - 2, 1)


class UmbralOperator:
    """An umbral operator matrix plus its UmbralSpec and the construction used."""

    __slots__ = ("spec", "matrix", "provenance")

    def __init__(self, spec: UmbralSpec, matrix: OperatorMatrix, provenance: str):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError("UmbralOperator is immutable")

    def __repr__(self):
        return f"UmbralOperator({self.provenance}, window={self.matrix.window})"

    def check_axioms(self) -> None:
        """Column 0 is 1; higher columns vanish at 0, have degree exactly n
        and leading coefficient q^n."""
        m = self.matrix
        if m.col(0) != Polynomial.one(m.mode):
            raise AssertionError("column 0 is not the constant 1")
        q = self.spec.q
        lead = coerce(1, m.mode)
        for n in range(1, m.window + 1):
            lead *= q
            col = m.col(n)
            if col.degree != n or col.coeff(n) != lead:
                raise AssertionError(f"column {n} is not degree-{n} with leading q^n")
            if col.coeff(0) != 0:
                raise AssertionError(f"column {n} does not vanish at the origin")


def _square(cols, n_max, mode) -> OperatorMatrix:
    return OperatorMatrix(cols, n_max, n_max, n_max, True, mode)


def umbral_garsia(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 1: phi column n is sum_k x^k/k! * (eval at 0 of f(D)^k x^n),
    which reduces to n!/k! times the t^n coefficient of f^k."""
    if n_max is None:
        n_max = spec.default_n_max()
    f = spec.f
    power = TruncatedSeries.one(f.order, f.mode)
    coeff_rows = [list(power.coeffs)]
    for _ in range(n_max):
        power = power * f
        coeff_rows.append(list(power.coeffs))
    cols = []
    for n in range(n_max + 1):
        nfact = math.factorial(n)
        col = [coerce(0, f.mode)] * (n + 1)
        for k in range(n + 1):
            c = coeff_rows[k][n]
            if c != 0:
                col[k] = c * nfact / math.factorial(k)
        cols.append(Polynomial(col, f.mode))
    return UmbralOperator(spec, _square(cols, n_max, f.mode), "garsia")


def umbral_steffensen(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 2: phi = Q' (D/Q)^{xD + 1} with Q = f^{-1}(D)."""
    if n_max is None:
        n_max = spec.default_n_max()
    finv = spec.f_inverse
    qprime = finv.derivative()
    base = finv.shift_down(1).unit_inverse()
    base_op = op_from_D_series(base.truncate(n_max), n_max)
    exponent = xD_op(n_max, shift=1, mode=spec.mode)
    powered = gen_pow(base_op, exponent, term_bound=n_max + 2)
    qprime_op = op_from_D_series(qprime.truncate(n_max), n_max)
    matrix = compose_ops(qprime_op, powered)
    return UmbralOperator(spec, matrix, "steffensen")


def umbral_steffensen2(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 3 (Rodrigues-style): phi x^n = x (D/Q)^n x^{n-1}, using
    plain series powers per column; column 0 is 1 by the axioms."""
    if n_max is None:
        n_max = spec.default_n_max()
    finv = spec.f_inverse
    base = finv.shift_down(1).unit_inverse().truncate(n_max)
    cols = [Polynomial.one(spec.mode)]
    bpow = TruncatedSeries.one(n_max, spec.mode)
    for n in range(1, n_max + 1):
        bpow = bpow * base
        cols.append(op_from_D_series(bpow, n - 1).col(n - 1).shift(1))
    return UmbralOperator(spec, _square(cols, n_max, spec.mode), "steffensen2")


def umbral_bucc(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 5: phi = sum_k x^k/k! (f(D) - D)^k, exact for any multiplier."""
    if n_max is None:
        n_max = spec.default_n_max()
    f = spec.f
    order = min(n_max, f.order)
    g = (f - TruncatedSeries.t(f.order, f.mode)).truncate(order)
    gpow = TruncatedSeries.one(order, f.mode)
    one = coerce(1, f.mode)
    cols = [Polynomial.zero(f.mode)] * (n_max + 1)
    for k in range(n_max + 1):
        if k:
            gpow = gpow * g
        # (f(D) - D)^k applied to x^n, then multiplied by x^k / k!
        gk = op_from_D_series(gpow, n_max)
        inv_fact = one / math.factorial(k)
        for n in range(k, n_max + 1):
            cols[n] = cols[n] + gk.col(n).shift(k).scale(inv_fact)
    cols = [c.truncate(n_max) for c in cols]
    return UmbralOperator(spec, _square(cols, n_max, f.mode), "bucc")


def umbral_exp_itlog(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 6 (the flow form): phi = exp(x itlog(f)(D)).

    Multiplier q != 1 is handled by factoring f = (q t) o (f / q): the
    diagonal stretch by q^n is prepended to the exponential of the
    tangent-to-identity part.
    """
    if n_max is None:
        n_max = spec.default_n_max()
    q = spec.q
    one = coerce(1, spec.mode)
    if q == one:
        v = spec.itlog_series
        matrix = exp_loc_nilpotent(_x_times_D_series(v, n_max))
        return UmbralOperator(spec, matrix, "expitlog")
    reduced = UmbralSpec(spec.f.scale(one / q))
    inner = umbral_exp_itlog(reduced, n_max).matrix
    qpow = [q**n for n in range(n_max + 1)]
    matrix = compose_ops(diag_op(qpow, n_max, mode=spec.mode), inner)
    return UmbralOperator(spec, matrix, "expitlog")


def _x_times_D_series(v: TruncatedSeries, n_max: int) -> OperatorMatrix:
    """The operator x * v(D) as a square matrix; strictly lowers degree when
    ord(v) >= 2."""
    if v.order < n_max:
        raise PreconditionError("series order too small for the requested matrix")
    vD = op_from_D_series(v.truncate(n_max), n_max)
    cols = [c.shift(1).truncate(n_max) for c in vD.cols]
    return _square(cols, n_max, v.mode)


CONSTRUCTIONS = {
    "garsia": umbral_garsia,
    "steffensen": umbral_steffensen,
    "steffensen2": umbral_steffensen2,
    "bucc": umbral_bucc,
    "expitlog": umbral_exp_itlog,
}


def umbral_inverse(U: UmbralOperator) -> UmbralOperator:
    """Matrix inverse; generated by the compositional inverse of f."""
    inv_spec = UmbralSpec(U.spec.f_inverse)
    return UmbralOperator(inv_spec, op_inverse(U.matrix), "inverse")


def delta_operator(spec: UmbralSpec, s=1, n_in: int | None = None) -> OperatorMatrix:
    """The delta operator of phi^s: the shift-invariant operator f^{-s}(D)."""
    if n_in is None:
        n_in = spec.default_n_max()
    s = coerce(s, spec.mode)
    if s == coerce(1, spec.mode):
        g = spec.f_inverse
    else:
        g = spec.iterate(-s)
    if g.order > n_in:
        g = g.truncate(n_in)
    return op_from_D_series(g, n_in)


def frac_power(spec: UmbralSpec, s, n_max: int | None = None) -> UmbralOperator:
    """phi^s = exp(s x itlog(f)(D)); integer s for any multiplier, rational s
    for multiplier 1 in exact mode."""
    if n_max is None:
        n_max = spec.default_n_max()
    s = coerce(s, spec.mode)
    one = coerce(1, spec.mode)
    if spec.q == one:
        v = spec.itlog_series.scale(s)
        matrix = exp_loc_nilpotent(_x_times_D_series(v, n_max))
        return UmbralOperator(spec, matrix, f"fractional[{s}]")
    if _is_integer(s):
        base = umbral_bucc(spec, n_max).matrix
        return UmbralOperator(spec, op_pow(base, int(s)), f"fractional[{s}]")
    if spec.mode == FLOAT:
        fs = fractional_iterate(spec.f, s)
        return UmbralOperator(spec, umbral_bucc(UmbralSpec(fs), n_max).matrix, f"fractional[{s}]")
    raise PreconditionError(
        "exact fractional powers need multiplier 1 or an integer exponent"
    )


def extract_generator_field(U: UmbralOperator) -> TruncatedSeries:
    """Read V from phi = exp(x V(D)): the matrix logarithm must be supported
    on the single-x row of the normal form, with zero constant term."""
    log_m = log_unipotent(U.matrix)
    nf = normal_form(log_m)
    order = U.matrix.window
    coeffs = [coerce(0, U.matrix.mode)] * (order + 1)
    for (j, k), c in nf.table.items():
        if j != 1:
            raise PreconditionError(
                f"logarithm has support off the linear row at x^{j} D^{k}"
            )
        if k == 0:
            raise PreconditionError("logarithm has a nonzero constant D-term")
        if k <= order:
            coeffs[k] = c
    return TruncatedSeries(coeffs, order, U.matrix.mode)


# -- identity checks --------------------------------------------------------


def julia_residual(f: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """itlog's functional equation: V(f(t)) - f'(t) V(t), zero to order N-1."""
    order = min(f.order, v.order) - 1
    ft = f.truncate(order)
    vt = v.truncate(order)
    return vt.compose(ft) - f.derivative().truncate(order) * vt


def _check_item(identity: str, window: int, d) -> dict:
    """A report entry from a first_discrepancy-style (column, coefficient)."""
    return {
        "identity": identity,
        "window": window,
        "status": "exact-pass" if d is None else "fail",
        "first_discrepancy": None if d is None else {"col": d[0], "coeff": d[1]},
    }


def genfun_check(U: UmbralOperator, t_order: int) -> dict:
    """Compare the columns against the exponential generating function of f:
    the x^k t^n coefficient of both sides must agree for n <= t_order."""
    f = U.spec.f
    if t_order > min(f.order, U.matrix.window):
        raise PreconditionError("t_order exceeds the available window")
    power = TruncatedSeries.one(f.order, f.mode)
    discrepancy = None
    for k in range(t_order + 1):
        if k > 0:
            power = power * f
        for n in range(k, t_order + 1):
            # [x^k t^n] e^{x f(t)} = [t^n] f^k / k!
            rhs = power[n] * (math.factorial(n) // math.factorial(k))
            lhs = U.matrix.col(n).coeff(k)
            if lhs != rhs and discrepancy is None:
                discrepancy = (n, k)
    return _check_item("generating-function", t_order, discrepancy)


def pincherle_ode_residual(U: UmbralOperator) -> OperatorMatrix:
    """Residual of phi' = x phi (f'(D) - 1)."""
    f = U.spec.f
    m = U.matrix
    lhs = pincherle_derivative(m)
    fprime = f.derivative()
    fp_minus_1 = fprime - TruncatedSeries.one(fprime.order, fprime.mode)
    right = compose_ops(m, op_from_D_series(fp_minus_1.truncate(min(fprime.order, m.n_in)), m.n_in))
    rhs = compose_ops(x_op(m.max_out, m.mode), right)
    return op_sub(lhs, rhs)


def binomial_type_residual(U: UmbralOperator, n: int) -> dict:
    """phi_n(x+y) - sum_k binom(n,k) phi_k(x) phi_{n-k}(y) as a bivariate poly."""
    lhs = expand_in_x_plus_y(U.matrix.col(n))
    rhs: dict = {}
    for k in range(n + 1):
        term = product_x_y(
            U.matrix.col(k).scale(math.comb(n, k)), U.matrix.col(n - k)
        )
        for key, val in term.items():
            rhs[key] = rhs.get(key, 0) + val
    return biv_sub(lhs, rhs)


def coeff_identity_scan(spec: UmbralSpec, s, n_max: int = 8):
    """First (n, k) where the fractional-power coefficient identity fails,
    or None; shares one frac_power matrix and one power ladder across the
    whole (n, k) grid."""
    q = spec.q
    s = coerce(s, spec.mode)
    frac = frac_power(spec, s, n_max).matrix
    base = umbral_bucc(spec, n_max).matrix
    powers = [identity_op(n_max, n_max, spec.mode)]
    for _ in range(n_max):
        powers.append(compose_ops(base, powers[-1]))
    one = coerce(1, spec.mode)
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = frac.col(n).coeff(k)
            rhs = coerce(0, spec.mode)
            for p in range(n - k + 1):
                c = powers[p].col(n).coeff(k)
                if c == 0:
                    continue
                term = c * qbinom(s, p, q) * qbinom(n - k - s, n - k - p, q)
                if q == one:
                    qfac = one
                else:
                    expo = (n - p) * (s - p)
                    if not _is_integer(expo):
                        raise PreconditionError("non-integer q-power needs float mode")
                    qfac = q ** int(expo)
                rhs += term * qfac
            if lhs != rhs:
                return (n, k)
    return None


def group_law_checks(spec: UmbralSpec, s, t, n_max: int | None = None) -> dict:
    """The one-parameter group laws of phi^s and its delta operators."""
    if n_max is None:
        n_max = spec.default_n_max()
    s = coerce(s, spec.mode)
    t = coerce(t, spec.mode)
    phi_s = frac_power(spec, s, n_max).matrix
    phi_t = frac_power(spec, t, n_max).matrix
    phi_st = frac_power(spec, s + t, n_max).matrix
    product = compose_ops(phi_s, phi_t)
    items = [
        _check_item(
            "power-additivity",
            min(phi_st.window, product.window),
            first_discrepancy(phi_st, product),
        )
    ]
    q_t = delta_operator(spec, t, n_max)
    q_tm = delta_operator(spec, t - s, n_max)
    lhs = compose_ops(q_t, phi_s)
    rhs = compose_ops(phi_s, q_tm)
    items.append(
        _check_item("delta-conjugation", min(lhs.window, rhs.window), first_discrepancy(lhs, rhs))
    )
    fm_s = spec.iterate(-s)
    fm_t = spec.iterate(-t)
    diamond = fm_s.compose(fm_t)
    direct = spec.iterate(-s - t)
    ok = diamond == direct
    items.append(
        {
            "identity": "delta-diamond-law",
            "window": spec.order,
            "status": "exact-pass" if ok else "fail",
            "first_discrepancy": None,
        }
    )
    return {"items": items, "passed": all(i["status"] == "exact-pass" for i in items)}


def duality_check(spec: UmbralSpec, n_max: int | None = None) -> dict:
    """Swap x and D in the normal form of the composition operator of f and
    compare the rebuilt matrix with the umbral operator of f."""
    if n_max is None:
        n_max = spec.default_n_max()
    f = spec.f
    cf = composition_operator(f, f.order, f.order)
    nf = normal_form(cf)
    rebuilt = NormalForm(
        {(j, k): c for (j, k), c in nf.l_transform().table.items() if k <= n_max},
        spec.mode,
    )
    candidate = op_from_normal_form(rebuilt, n_max, n_max)
    phi = umbral_bucc(spec, n_max).matrix
    return _check_item(
        "x-D-swap-duality", min(candidate.window, phi.window), first_discrepancy(candidate, phi)
    )

