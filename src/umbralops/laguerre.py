"""Degenerate Laguerre polynomials of order p, their associated and
fractional variants, and the identity checks tying the explicit sums to the
operator-exponential constructions.

The family is driven by the vector field -x^{p+1}, whose flow has the closed
form t / (1 + s p t^p)^{1/p}.  Everything here is exact for p >= 1; the p = 0
member (multiplier 1/e) only exists as a float-mode demo.

Each explicit polynomial is one integer view, one pass over k with a running
falling factorial, and the ODE residual of F = sum_j c_j x^j is one pass over
F's integer view: r_j = (n - j) c_j + p (j + alpha) perm(j + p, p) c_{j+p}.
The identity checks have private cores that take the polynomials as rows, and
the operator paths a shared alpha-free factor, so a caller that needs several
checks of one (p, alpha) builds each polynomial and operator once.  The two
paths take their exponentials by different algorithms: the factor of path
(i) as powers of the conjugated x, path (ii) as a matrix power series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bivariate import binomial_convolution_residual
from .operators import (
    NormalForm,
    OperatorMatrix,
    apply_op,
    compose_ops,
    exp_loc_nilpotent,
    first_discrepancy,
    op_from_D_series,
    op_from_normal_form,
)
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, _int_pair, _qbinom_row, _ratios, coerce
from .series import DEFAULT_ORDER, PreconditionError, TruncatedSeries
from .umbral import _check_item, _exp_x_field


@dataclass(frozen=True)
class LaguerreParams:
    """Parameter bundle: degeneracy order p, association parameter alpha,
    fractional exponent s, polynomial index n."""

    p: int
    alpha: object = 0
    s: object = 1
    n: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise PreconditionError("degeneracy order p must be >= 1")
        if self.n < 0:
            raise PreconditionError("polynomial index n must be >= 0")


def _unit_plus_tp(order: int, p: int, c, mode: str) -> TruncatedSeries:
    """The unit series 1 + c t^p at the given order (c dropped if p > order)."""
    coeffs = [coerce(0, mode)] * (order + 1)
    coeffs[0] = coerce(1, mode)
    if p <= order:
        coeffs[p] = coerce(c, mode)
    return TruncatedSeries(coeffs, order, mode)


def laguerre_generator(p: int, s, order: int = DEFAULT_ORDER, mode: str = EXACT) -> TruncatedSeries:
    """The generator series t / (1 + s p t^p)^{1/p} of the s-th family member."""
    if p < 1:
        raise PreconditionError("laguerre_generator requires p >= 1")
    s = coerce(s, mode)
    u = _unit_plus_tp(order, p, s * p, mode)
    return u.pow_scalar(coerce(-1, mode) / p).shift(1)


def laguerre_delta_series(p: int, order: int = DEFAULT_ORDER, mode: str = EXACT) -> TruncatedSeries:
    """The delta-operator symbol t / (1 - p t^p)^{1/p} (the inverse generator)."""
    return laguerre_generator(p, -1, order, mode)


def _lag_field_op(p: int, alpha, n_in: int, mode: str = EXACT) -> OperatorMatrix:
    """The operator -x D^{p+1} - alpha D^p as an exact matrix."""
    nf = NormalForm({(1, p + 1): -1, (0, p): -alpha}, mode)
    return op_from_normal_form(nf, n_in, n_in)


def laguerre_operator_paths(p: int, alpha, n_in: int, mode: str = EXACT, base=None):
    """Both operator constructions of the associated family as matrices:
    (i) the D-series prefactor (1 - p D^p)^{alpha/p} after exp(-x D^{p+1}),
    (ii) the single exponential exp(-x D^{p+1} - alpha D^p).  A caller
    checking several alpha passes ``base``, the alpha-free factor of
    ``_alpha_free_factor``, built once."""
    alpha = coerce(alpha, mode)
    if base is None:
        base = _alpha_free_factor(p, n_in, mode)
    u = _unit_plus_tp(n_in, p, -p, mode)
    pre = op_from_D_series(u.pow_scalar(alpha / p), n_in)
    path1 = compose_ops(pre, base)
    path2 = exp_loc_nilpotent(_lag_field_op(p, alpha, n_in, mode))
    return path1, path2


def _alpha_free_factor(p: int, n_in: int, mode: str = EXACT) -> OperatorMatrix:
    """exp(-x D^{p+1}), the factor of path (i) that no alpha enters: the
    exponential of x v(D) with v = -t^{p+1}, as powers of the conjugated x
    (``_exp_x_field``), where path (ii) sums the matrix power series."""
    v = TruncatedSeries([0] * (p + 1) + [-1], max(n_in, p + 1), mode)
    return _exp_x_field(v, n_in)


def _laguerre_sum(p: int, n: int, alpha, s, mode: str) -> Polynomial:
    """The coefficient sum of index n: sum over k of
    binom((n + alpha)/p - 1, k) n! (-s p)^k / (n - p k)! x^(n - p k), as
    one integer view: the binomials are the running row of ``_qbinom_row``
    at q = 1, and ``_ratios`` puts the entries over one denominator.  Float
    mode makes gbinom's products and divisions in gbinom's order, so exact
    values and float bits are ``gbinom``'s."""
    LaguerreParams(p, alpha, s, n)
    alpha = coerce(alpha, mode)
    c, e = _int_pair(-coerce(s, mode) * p, mode)
    n_fact = math.factorial(n)
    nums, dens = [0] * (n + 1), [1] * (n + 1)
    binomial = _qbinom_row((n + alpha) / p - 1, coerce(1, mode))
    for k in range(n // p + 1):
        x, d = binomial(k)
        nums[n - p * k] = x * n_fact * c**k
        dens[n - p * k] = d * e**k * math.factorial(n - p * k)
    return Polynomial._from_view(*_ratios(nums, dens, mode), mode)


def degenerate_laguerre_explicit(p: int, n: int, alpha=0, mode: str = EXACT) -> Polynomial:
    """The closed-form coefficient sum for the associated polynomial of
    index n: a degree-n polynomial, exact for rational alpha."""
    return _laguerre_sum(p, n, alpha, 1, mode)


def degenerate_laguerre_operator(p: int, n: int, alpha=0, mode: str = EXACT) -> Polynomial:
    """The same polynomial via the operator exponentials; both operator paths
    are computed and must agree (bit-exactly in exact mode, within
    FLOAT_COLUMN_TOL in float mode)."""
    LaguerreParams(p, alpha, 1, n)
    path1, path2 = laguerre_operator_paths(p, alpha, n, mode)
    if first_discrepancy(path1, path2) is not None:
        raise AssertionError("the two operator constructions disagree")
    return apply_op(path2, Polynomial.monomial(n, 1, mode))


def frac_laguerre(p: int, n: int, s, mode: str = EXACT) -> Polynomial:
    """The fractional family member: the alpha = 0 coefficient sum with the
    power (-p)^k replaced by (-s p)^k."""
    return _laguerre_sum(p, n, 0, s, mode)


def laguerre_ode_residual(p: int, n: int, alpha=0, mode: str = EXACT) -> Polynomial:
    """Left-hand side of x p F^(p+1) + alpha p F^(p) - x F' + n F for the
    explicit polynomial F = sum_j c_j x^j, computed in one pass as
    r_j = (n - j) c_j + p (j + alpha) perm(j + p, p) c_{j+p}; must vanish
    identically."""
    return _ode_residual(degenerate_laguerre_explicit(p, n, alpha, mode), p, n, alpha)


def _ode_residual(F: Polynomial, p: int, n: int, alpha) -> Polynomial:
    """The ODE residual of the index-n polynomial F, coefficient by
    coefficient: x p F^(p+1) + alpha p F^(p) has p (j + alpha) perm(j + p, p)
    c_{j+p} at x^j, and n F - x F' has (n - j) c_j; on F's integer view
    over d and alpha = u / w, the residual's view is over d w."""
    nums, d = F._view
    u, w = _int_pair(coerce(alpha, F.mode), F.mode)
    size = len(nums)
    out = []
    for j in range(size):
        r = (n - j) * w * nums[j]
        if j + p < size:
            r += p * math.perm(j + p, p) * (j * w + u) * nums[j + p]
        out.append(r)
    return Polynomial._from_view(out, d * w, F.mode)


def _biv_report(identity: str, resid: dict | set) -> dict:
    """The entry of a bivariate residual: no window, and the smallest
    nonzero (i, n) key as a list on failure."""
    return _check_item(identity, None, not resid, list(min(resid)) if resid else None)


def cross_sequence_check(p: int, n: int, alpha, beta) -> dict:
    """Two-variable convolution identity of the associated family: the
    (alpha+beta)-member at x+y equals the binomial convolution of the
    alpha-member in x with the beta-member in y."""

    def rows(a):
        return [degenerate_laguerre_explicit(p, k, a) for k in range(n + 1)]

    whole = degenerate_laguerre_explicit(p, n, alpha + beta)
    return _cross_sequence_report(whole, rows(alpha), rows(beta), n)


def _cross_sequence_report(whole: Polynomial, left, right, n: int) -> dict:
    """The cross-sequence check of index n on given rows: ``whole`` is the
    (alpha+beta)-member, ``left[k]`` and ``right[k]`` the alpha- and
    beta-members of index k <= n."""
    resid = binomial_convolution_residual(whole, left.__getitem__, right.__getitem__, n)
    return _biv_report("laguerre-cross-sequence", resid)


def laguerre_genfun_check(p: int, alpha, t_order: int) -> dict:
    """Exponential generating function check: sum_n L_n(x) t^n/n! against
    (1 + p t^p)^{-alpha/p} exp(x t / (1 + p t^p)^{1/p}), compared exactly
    at each x^i t^n through degree t_order in t."""
    rows = [degenerate_laguerre_explicit(p, n, alpha) for n in range(t_order + 1)]
    return _genfun_report(p, alpha, rows)


def _genfun_report(p: int, alpha, rows) -> dict:
    """The generating-function check on given rows: ``rows[n]`` is the
    exact index-n polynomial of the alpha-member, through degree
    len(rows) - 1 in t."""
    alpha = coerce(alpha, EXACT)
    t_order = len(rows) - 1
    u = _unit_plus_tp(t_order, p, p, EXACT)
    inner = u.pow_scalar(coerce(-1, EXACT) / p).shift(1)
    term = u.pow_scalar(-alpha / p)
    resid = set()
    for i in range(t_order + 1):
        if i > 0:
            term = (term * inner).scale(coerce(1, EXACT) / i)
        # [x^i t^n]: term = u^(-alpha/p) inner^i / i! against [x^i] L_n / n!
        for n, L in enumerate(rows):
            if term[n] != L.coeff(i) / math.factorial(n):
                resid.add((i, n))
    return _biv_report("laguerre-genfun", resid)


def laguerre_p0_float_demo() -> dict:
    """Float-mode p = 0 member: the generator t/e produces the pure scaling
    operator with columns e^{-n} x^n on the window 8, passing at absolute
    error 1e-12.  Returns the worst absolute error."""
    from .umbral import UmbralSpec, umbral_bucc

    n_max = 8
    order = n_max + 2
    f = TruncatedSeries.t(order, FLOAT).scale(1.0 / math.e)
    U = umbral_bucc(UmbralSpec(f), n_max)
    worst = 0.0
    for n in range(n_max + 1):
        col = U.matrix.col(n)
        for k in range(n + 1):
            want = math.exp(-n) if k == n else 0.0
            worst = max(worst, abs(float(col.coeff(k)) - want))
    return {
        "identity": "p0-scaling-demo",
        "status": "pass" if worst <= 1e-12 else "fail",
        "max_abs_error": worst,
    }
