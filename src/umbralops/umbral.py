"""Umbral operators built by several independent classical constructions,
iterative logarithms, fractional iteration flows and fractional operator
powers, plus the identity checks tying them together.

Every construction returns the same triangular matrix when the generator is
the same; the cross-construction comparison is the engine's core check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice

from .bivariate import binomial_convolution_residual
from .operators import (
    FLOAT_COLUMN_TOL,
    OperatorMatrix,
    NormalForm,
    _apply_ints,
    _D_column,
    _int_op_powers,
    _nonzero_views,
    _view_discrepancy,
    compose_ops,
    composition_operator,
    diag_op,
    first_discrepancy,
    log_unipotent,
    normal_form,
    op_from_D_series,
    op_from_normal_form,
    op_inverse,
    op_sub,
    pincherle_derivative,
    x_op,
)
from .polynomials import Polynomial
from .scalars import (
    EXACT,
    FLOAT,
    _Frozen,
    _canonical,
    _combine,
    _int_pair,
    _mul_ints,
    _nonzero,
    _qbinom_row,
    _ratios,
    _reduced,
    coerce,
)
from .series import PreconditionError, TruncatedSeries, _int_powers


def _is_integer(s) -> bool:
    return s == int(s)


# -- iteration theory -----------------------------------------------------


def itlog(f: TruncatedSeries) -> TruncatedSeries:
    """Iterative logarithm: the generator V of the fractional-iteration flow
    of f, i.e. the unique series with C_f = e^{V(x)D} on truncations.

    After its two refusals it is ``UmbralSpec(f).itlog_series``, the one
    router for itlog, for every generator: at multiplier 1 the log sum of
    the differences Delta^k x that the spec keeps (``_exact_itlog``).
    """
    if f.order < 1 or f[0] != 0:
        raise PreconditionError("itlog requires f(0) = 0")
    if f[1] == 0:
        raise PreconditionError(
            "exact itlog requires multiplier f'(0) = 1" if f.mode == EXACT else "itlog requires f'(0) != 0"
        )
    return UmbralSpec(f).itlog_series


def _forward_differences(f: TruncatedSeries) -> list:
    """The nonzero differences Delta^m x, m = 0..M, of an exact f with
    multiplier 1, as reduced integer views: Delta p = C_f p - p truncated at
    N = f.order.  Delta raises the valuation by at least one, so M < N and
    the M steps of O(N^2) each take O(N^3) scalar operations.  The loop runs
    in the integer view: the columns of C_f are the powers of f's numerators
    (``_int_powers``), taken once as their nonzero pairs, and C_f is
    ``_apply_ints``."""
    size = f.order + 1
    # column j of C_f is f^j truncated at t^N
    cols = _nonzero_views(islice(_int_powers(f, size), size))
    diffs = [([0, 1], 1)]
    for _ in range(1, size):
        image = _apply_ints(cols, *diffs[-1])
        delta = _reduced(*_combine(image, [(-1, 1, diffs[-1])], size))
        if not any(delta[0]):
            break
        diffs.append(delta)
    return diffs


def _newton_sum(diffs: list, s: Fraction, order: int) -> TruncatedSeries:
    """(I + Delta)^s x = sum_m C(s, m) Delta^m x for an exact s and the
    differences ``diffs`` (``_forward_differences``): Newton's
    forward-difference series of the integer iterates, exact for every s
    because Delta is nilpotent on truncations.  The weights C(s, m) =
    C(s, m - 1) (a - (m - 1) b) / (b m) for s = a / b are kept as integer
    pairs in lowest terms, up to the first zero weight (an integer s >= 0
    needs the first s + 1), and summed in m order by one ``_combine``; the
    exact series is built from the sum's view."""
    a, b = s.numerator, s.denominator
    p = q = 1
    terms = [(p, q, diffs[0])]
    for m in range(1, len(diffs)):
        p, q = p * (a - (m - 1) * b), q * b * m
        if not p:
            break
        g = math.gcd(p, q)
        p, q = p // g, q // g
        terms.append((p, q, diffs[m]))
    return TruncatedSeries._from_view(*_combine(([0] * (order + 1), 1), terms, order + 1), order, EXACT)


def _julia_checked(f: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """The float itlog v of f, once it satisfies the Julia equation to
    within FLOAT_COLUMN_TOL times max(1, max |v_n|); otherwise
    PreconditionError names the first failing residual coefficient."""
    tol = FLOAT_COLUMN_TOL * max([1.0] + [abs(c) for c in v])
    # name the first failing coefficient; "not <=" also catches a NaN
    for n, c in enumerate(julia_residual(f, v)):
        if not abs(c) <= tol:
            raise PreconditionError(
                f"float itlog lost precision: Julia residual {c:.3g} at t^{n} exceeds {tol:.3g}"
            )
    return v


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
    the series g^s with g^s o g^r = g^{s+r} and itlog(g^1) = V.

    g^s = sum_k s^k/k! (V D)^k t, and V D raises the valuation by one when
    ord(V) >= 2 (required in both modes), so N = V.order terms are exact.
    On the exact values of V and s it takes the s-free terms (V D)^k t
    (``_lie_terms``), then their weighted sum for s (``_lie_sum``) in V's
    mode (``_in_mode``).  Nothing is kept between calls.  It serves fields
    given without their time-1 map (the Laguerre fields), and its time -1
    sum gives expitlog's delta operator (``_conjugated_x``); a spec takes the
    iterates of its f from the differences of C_f instead
    (``UmbralSpec.iterate``).
    """
    s = coerce(s, V.mode)
    exact_v, exact_s = _exact(V), _exact_scalar(s)
    return _in_mode(_lie_sum(_lie_terms(exact_v), exact_s, V.order), V.mode)


def _lie_terms(V: TruncatedSeries) -> list:
    """The terms (V D)^k t, k < N = V.order, of flow's Lie series as integer
    views, for an exact V with ord(V) >= 2: t's view, then each term V's
    numerators times the nonzero pairs of the last term's derivative
    (``_mul_ints``), reduced by ``_reduced``.  They do not depend on s; flow
    and expitlog's conjugated x (``_conjugated_x``) sum them."""
    nums, d = V._view
    if any(nums[:2]):
        raise PreconditionError("flow requires ord(V) >= 2")
    size = V.order + 1
    terms = [([int(n == 1) for n in range(size)], 1)]
    for _ in range(1, V.order):
        cnums, e = terms[-1]
        deriv = _nonzero([i * x for i, x in enumerate(cnums)][1:])
        terms.append(_reduced(_mul_ints(nums, deriv, size), d * e))
    return terms


def _lie_sum(terms: list, s: Fraction, order: int) -> TruncatedSeries:
    """sum_k s^k/k! terms[k] for an exact s: one ``_combine`` of the terms
    k >= 1 onto terms[0], in k order, and the exact series built from the
    sum's view."""
    a, b = s.numerator, s.denominator
    weighted = [(a**k, b**k * math.factorial(k), term) for k, term in enumerate(terms) if k]
    return TruncatedSeries._from_view(*_combine(terms[0], weighted, order + 1), order, EXACT)


def _exact_scalar(x) -> Fraction:
    """The exact value of a float or a Fraction (a finite float is dyadic)."""
    try:
        return Fraction(*x.as_integer_ratio())
    except (OverflowError, ValueError):
        raise PreconditionError(f"non-finite float {x!r} has no exact value") from None


def _exact(f: TruncatedSeries) -> TruncatedSeries:
    """The exact value of f: each entry of its view as an integer ratio,
    which is exact for an int and for a finite float (a dyadic rational).
    An exact f keeps its view."""
    nums, d = f._view
    try:
        ratios = [x.as_integer_ratio() for x in nums]
    except (OverflowError, ValueError):
        x = next(x for x in nums if not math.isfinite(x))
        raise PreconditionError(f"non-finite float {x!r} has no exact value") from None
    e = math.lcm(*(b for _, b in ratios))
    return TruncatedSeries._from_view([a * (e // b) for a, b in ratios], d * e, f.order, EXACT)


def _in_mode(f: TruncatedSeries, mode: str) -> TruncatedSeries:
    """An exact f in ``mode``: the canonical exact series, or each
    coefficient rounded once (Python rounds int / int correctly); a value
    beyond the float range is an OverflowError in the CLI's words."""
    try:
        return TruncatedSeries._from_view(*f.int_view(), f.order, mode)
    except OverflowError:
        raise OverflowError("float result out of range: an exact value exceeds the largest float") from None


def fractional_iterate(f: TruncatedSeries, s) -> TruncatedSeries:
    """The fractional compositional iterate f^s: ``UmbralSpec(f).iterate(s)``
    for a generator (f(0) = 0, f'(0) != 0), so each call builds a spec; at
    multiplier 1 that is one differences loop (``_forward_differences``).
    Any other series has only its integer iterates s >= 0, by repeated
    composition."""
    s = coerce(s, f.mode)
    if f.order >= 1 and f.valuation() == 1:
        return UmbralSpec(f).iterate(s)
    if not (_is_integer(s) and s >= 0):
        raise PreconditionError("a series that is not a generator has only integer iterates s >= 0")
    return _composed_power(f, int(s))


def _composed_power(base: TruncatedSeries, k: int) -> TruncatedSeries:
    """base composed with itself k >= 0 times, by square-and-multiply under
    composition: O(log k) compositions, the first factor taken as it is."""
    acc = None if k else TruncatedSeries.t(base.order, base.mode)
    while k:
        if k & 1:
            acc = base if acc is None else acc.compose(base)
        k >>= 1
        if k:
            base = base.compose(base)
    return acc


# -- umbral specs and operators --------------------------------------------


class UmbralSpec:
    """A generator series f with f(0) = 0, f'(0) != 0, plus what is derived
    from it, each built once and kept: the compositional inverse, the
    iterative logarithm, at multiplier 1 the differences Delta^m x of
    C_f = I + Delta that give the itlog, every iterate and so f^-1, the
    linearizing coordinate and its inverse, the iterates f^s, and per n_max
    the bucc matrix and its power ladder, the ladder of powers of D/Q that
    both Steffensen constructions read, the expitlog matrix and the
    frac_power matrices.  The spec keeps series, views and matrices, never
    an UmbralOperator, which would refer back to the spec: a cycle that only
    the cyclic collector frees."""

    def __init__(self, f: TruncatedSeries):
        if f.order < 1 or f.valuation() != 1:
            raise PreconditionError("umbral spec requires f(0) = 0 and f'(0) != 0")
        self.f = f
        self._iterates = {}
        self._bucc = {}
        self._bucc_powers = {}
        self._dq_powers = {}
        self._expitlog = {}
        self._frac_powers = {}

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
        """f^-1, which ``iterate(-1)`` returns in both modes: the Newton sum
        of the spec's differences at multiplier 1, rounded once in float mode,
        and ``comp_inverse`` otherwise; an exact spec checks f o f^-1 = t."""
        g = self.iterate(-1) if self.q == 1 else self.f.comp_inverse()
        if self.mode == EXACT and self.f.compose(g) != TruncatedSeries.t(self.order, EXACT):
            raise AssertionError("compositional inverse failed its round trip")
        return g

    @cached_property
    def itlog_series(self) -> TruncatedSeries:
        """itlog(f), the one router for itlog: at multiplier 1 the spec's
        one exact itlog (``_exact_itlog``), which a float f rounds once;
        otherwise the exact refusal, or log(q) psi / psi' on the spec's
        linearizing coordinate (``_koenigs``) in float mode.  Every float
        result runs the Julia precision check (``_julia_checked``)."""
        if self.mode == EXACT:
            if self.q != 1:
                raise PreconditionError("exact itlog requires multiplier f'(0) = 1")
            return self._exact_itlog
        if self.q == 1:
            v = _in_mode(self._exact_itlog, FLOAT)
        else:
            psi = self._koenigs
            v = (psi * psi.derivative().pad(self.order).unit_inverse()).scale(math.log(self.q))
        return _julia_checked(self.f, v)

    @cached_property
    def _differences(self) -> list:
        """The differences Delta^m x (``_forward_differences``) of the exact
        value of f (``_exact``: f itself when it is exact) at multiplier 1."""
        return _forward_differences(_exact(self.f))

    @cached_property
    def _exact_itlog(self) -> TruncatedSeries:
        """The itlog of the exact value of f at multiplier 1: the x-column of
        log(C_f) = log(I + Delta), the log sum sum_k (-1)^{k+1}/k Delta^k x
        of the spec's differences, one ``_combine`` in k order."""
        size = self.order + 1
        diffs = self._differences
        v = _combine(([0] * size, 1), [(1 if k % 2 else -1, k, diffs[k]) for k in range(1, len(diffs))], size)
        if any(v[0][:2]):
            raise AssertionError("iterative logarithm must vanish to second order")
        return TruncatedSeries._from_view(*v, self.order, EXACT)

    @cached_property
    def _koenigs(self) -> TruncatedSeries:
        """psi = ``koenigs_coordinate(f)``, for itlog and the iterates."""
        return koenigs_coordinate(self.f)

    @cached_property
    def _koenigs_inverse(self) -> TruncatedSeries:
        """psi^-1, built only when a non-integer iterate needs it."""
        return self._koenigs.comp_inverse()

    def iterate(self, s) -> TruncatedSeries:
        """f^s, once per s; the one router for iterates.  At multiplier 1,
        every s (integer or not, of either sign, in either mode) is
        (I + Delta)^s x: one binomial-weighted sum of the spec's differences
        (``_newton_sum``) at the exact value of s, put in the spec's mode
        (``_in_mode``).  At other multipliers integer s squares f or the
        cached f^-1, and other s take the exact refusal or, in float mode,
        psi^-1(q^s psi) on the spec's linearizing coordinate (``_koenigs``)."""
        s = coerce(s, self.mode)
        if s not in self._iterates:
            self._iterates[s] = self._iterate(s)
        return self._iterates[s]

    def _iterate(self, s) -> TruncatedSeries:
        if self.q == 1:
            return _in_mode(_newton_sum(self._differences, _exact_scalar(s), self.order), self.mode)
        if _is_integer(s):
            return _composed_power(self.f if s >= 0 else self.f_inverse, abs(int(s)))
        if self.mode == EXACT:
            raise PreconditionError("exact fractional iteration requires multiplier 1 or integer s")
        return self._koenigs_inverse.compose(self._koenigs.scale(self.q**s))

    @cached_property
    def _tangent_part(self) -> "UmbralSpec":
        """The spec of f / q, tangent to the identity: f = (q t) o (f / q)."""
        return UmbralSpec(self.f.scale(1 / self.q))

    def default_n_max(self) -> int:
        # leave headroom: some constructions consume derivative/inverse
        # series whose reliable order is one or two below the f order
        return max(self.order - 2, 1)


class UmbralOperator(_Frozen):
    """An umbral operator matrix plus its UmbralSpec and the construction used."""

    __slots__ = ("spec", "matrix", "provenance")

    def __init__(self, spec: UmbralSpec, matrix: OperatorMatrix, provenance: str):
        self._init(spec=spec, matrix=matrix, provenance=provenance)

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


def _check_order(order: int, n_max: int) -> None:
    """Refuse a matrix whose columns up to n_max need series coefficients
    beyond ``order``."""
    if n_max > order:
        raise PreconditionError("series order too small for the requested matrix")


def _square(views, n_max, mode) -> OperatorMatrix:
    return OperatorMatrix._from_views(views, n_max, n_max, n_max, True, mode)


def umbral_garsia(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 1: phi column n is sum_k x^k/k! * (eval at 0 of f(D)^k x^n),
    which reduces to n!/k! times the t^n coefficient of f^k: with f^k's
    numerators over e_k (``_int_powers``), entry k of column n is the
    numerator times n! over e_k k! (``_ratios``)."""
    if n_max is None:
        n_max = spec.default_n_max()
    f = spec.f
    _check_order(f.order, n_max)
    facts = [math.factorial(n) for n in range(n_max + 1)]
    rows = list(zip(range(n_max + 1), _int_powers(f, n_max + 1)))
    cols = []
    for n in range(n_max + 1):
        tops = [nums[n] * facts[n] for _, (nums, _) in rows[: n + 1]]
        dens = [e * facts[k] for k, (_, e) in rows[: n + 1]]
        cols.append(_ratios(tops, dens, f.mode))
    return UmbralOperator(spec, _square(cols, n_max, f.mode), "garsia")


def umbral_steffensen(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 2 (the transfer formula): phi = Q' (D/Q)^{xD + 1} with
    Q = f^{-1}(D).

    V = xD + 1 is n + 1 on x^n and U = b(D), b = D/Q, commutes with U - 1,
    so U^V = sum_m binom(V, m) (U - 1)^m takes x^n to U^{n+1} x^n:
    phi x^n = Q'(D) b(D)^{n+1} x^n.  Column n is read from the power b^{n+1}
    of the spec's one ladder of powers of b (``_dq_powers``, which
    steffensen2 reads too) by ``_D_column``, and Q'(D)
    (``op_from_D_series``) acts on the columns by ``compose_ops``."""
    if n_max is None:
        n_max = spec.default_n_max()
    # Q' and D/Q lose one order against f
    _check_order(spec.order - 1, n_max)
    cols = []
    for n, (bnums, e) in enumerate(_dq_powers(spec, n_max)[1:]):
        cols.append((_D_column(_nonzero(bnums), n), e))
    qprime = op_from_D_series(spec.f_inverse.derivative().truncate(n_max), n_max)
    matrix = compose_ops(qprime, _square(cols, n_max, spec.mode))
    return UmbralOperator(spec, matrix, "steffensen")


def umbral_steffensen2(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 3 (Rodrigues-style): phi x^n = x (D/Q)^n x^{n-1}, using
    plain series powers per column; column 0 is 1 by the axioms.  The powers
    of D/Q are the spec's one ladder (``_dq_powers``, shared with
    steffensen's transfer formula), and column n is read from the n-th power
    directly: one ``_D_column`` per column."""
    if n_max is None:
        n_max = spec.default_n_max()
    # D/Q loses one order against f
    _check_order(spec.order - 1, n_max)
    mode = spec.mode
    cols = [Polynomial.one(mode)._view]
    for n, (bnums, e) in enumerate(_dq_powers(spec, n_max)[1 : n_max + 1], 1):
        cols.append(([0] + _D_column(_nonzero(bnums), n - 1), e))
    return UmbralOperator(spec, _square(cols, n_max, mode), "steffensen2")


def _dq_powers(spec: UmbralSpec, n_max: int) -> list:
    """b^0, ..., b^(n_max + 1) of b = D/Q, Q = f^-1(D), as the integer views
    of ``_int_powers`` of b truncated at n_max: the one ladder that the
    transfer formula (powers 1 to n_max + 1) and the Rodrigues formula
    (powers 1 to n_max) read, built once per n_max and kept on the spec."""
    if n_max not in spec._dq_powers:
        base = spec.f_inverse.shift_down(1).unit_inverse().truncate(n_max)
        spec._dq_powers[n_max] = list(islice(_int_powers(base, n_max + 1), n_max + 2))
    return spec._dq_powers[n_max]


def umbral_bucc(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 5: phi = sum_k x^k/k! (f(D) - D)^k, exact for any multiplier.

    With g = f - t, column n gets g^k_j (n)_j / k! at x^(n-j+k): the powers
    of g are integer numerators (``_int_powers``) and each column's terms
    are summed once, over one common denominator (``_combine``).  The
    matrix depends on the spec and n_max only, so it is built once per
    n_max and kept on the spec."""
    if n_max is None:
        n_max = spec.default_n_max()
    if n_max not in spec._bucc:
        spec._bucc[n_max] = _bucc_matrix(spec.f, n_max)
    return UmbralOperator(spec, spec._bucc[n_max], "bucc")


def _bucc_powers(spec: UmbralSpec, n_max: int) -> list:
    """phi^0, ..., phi^n_max of the bucc matrix phi: the operator ladder
    (``_int_op_powers``) as it comes, built once per n_max and kept on the
    spec beside the matrix, which, like it, holds no reference to the spec."""
    if n_max not in spec._bucc_powers:
        base = umbral_bucc(spec, n_max).matrix
        spec._bucc_powers[n_max] = list(islice(_int_op_powers(base), n_max + 1))
    return spec._bucc_powers[n_max]


def _bucc_matrix(f: TruncatedSeries, n_max: int) -> OperatorMatrix:
    _check_order(f.order, n_max)
    mode = f.mode
    g = (f - TruncatedSeries.t(f.order, mode)).truncate(n_max)
    one = coerce(1, mode)
    # g(0) = 0, so column n of (f(D) - D)^k has degree at most n - k and
    # its x^k shift stays within degree n
    cols = [[] for _ in range(n_max + 1)]
    for k, (gnums, e) in zip(range(n_max + 1), _int_powers(g, n_max + 1)):
        # (f(D) - D)^k applied to x^n, then multiplied by x^k / k!
        terms = _nonzero(gnums)
        if not terms:
            break
        a, b = _int_pair(one / math.factorial(k), mode)
        for n in range(terms[0][0], n_max + 1):
            cols[n].append((a, b, ([0] * k + _D_column(terms, n), e)))
    return _square([_combine(([], 1), col, n + 1) for n, col in enumerate(cols)], n_max, mode)


def umbral_exp_itlog(spec: UmbralSpec, n_max: int | None = None) -> UmbralOperator:
    """Construction 6 (the flow form): phi = exp(x itlog(f)(D)).

    The exponential is taken as powers of the conjugated x
    (``_exp_x_field``): phi x^n = (x W(D))^n 1 with x W(D) = phi x phi^-1
    the umbral shift x / Q'(D), Q the time -1 flow of itlog(f), in O(N^3).
    Multiplier q != 1 is handled by factoring f = (q t) o (f / q): the
    diagonal stretch by q^n is prepended to the exponential of the
    tangent-to-identity part, whose spec (``_tangent_part``, with its itlog)
    the spec keeps.  The matrix depends on the spec and n_max only, so it
    is built once per n_max and kept on the spec, as bucc's is.
    """
    if n_max is None:
        n_max = spec.default_n_max()
    if n_max not in spec._expitlog:
        spec._expitlog[n_max] = _exp_itlog_matrix(spec, n_max)
    return UmbralOperator(spec, spec._expitlog[n_max], "expitlog")


def _exp_itlog_matrix(spec: UmbralSpec, n_max: int) -> OperatorMatrix:
    q = spec.q
    if q == 1:
        return _exp_x_field(spec.itlog_series, n_max)
    inner = umbral_exp_itlog(spec._tangent_part, n_max).matrix
    qpow = [q**n for n in range(n_max + 1)]
    return compose_ops(diag_op(qpow, n_max, mode=spec.mode), inner)


def _exp_x_field(v: TruncatedSeries, n_max: int) -> OperatorMatrix:
    """exp(x v(D)) as a square matrix, for ord(v) >= 2, in O(N^3): as the
    powers of the conjugated x.  With A = x v(D), A 1 = 0, so e^A 1 = 1 and
    e^A x^n = (x W(D))^n 1 for x W(D) = e^A x e^-A = x / Q'(D), Q the time
    -1 flow of v (``_conjugated_x``): column n + 1 is one ``_apply_ints``
    of column n over the columns of W(D) (``_D_column``), shifted by x.  W
    is put into v's mode once (``_canonical``), so a float v rounds it
    once."""
    wnums, e = _canonical(*_conjugated_x(v, n_max), v.mode)
    terms = _nonzero(wnums)
    field = _nonzero_views([(_D_column(terms, n), e) for n in range(n_max)])
    cols = [Polynomial.one(v.mode)._view]
    for _ in range(n_max):
        out, c = _apply_ints(field, *cols[-1])
        cols.append(_reduced([0] + out, c))
    return _square(cols, n_max, v.mode)


def _conjugated_x(v: TruncatedSeries, n_max: int) -> tuple:
    """The series W with e^A x e^-A = x W(D) for A = x v(D), ord(v) >= 2, as
    an exact integer view of its n_max coefficients below t^n_max, which
    are all that act on the columns up to n_max.

    x W(D) is the umbral shift x / Q'(D) of the delta operator Q(D), with
    Q = e^{-v D} t the time -1 flow of v (the recurrence formula of Rota,
    Kahaner and Odlyzko, "Finite operator calculus", J. Math. Anal. Appl. 42,
    1973), so W = 1 / Q'.  Q is flow's Lie series (``_lie_terms``,
    ``_lie_sum``) on the exact value of v (``_exact``) truncated at n_max."""
    exact_v = _exact(v)
    if any(exact_v._view[0][:2]):
        raise PreconditionError("exp(x v(D)) requires ord(v) >= 2")
    _check_order(v.order, n_max)
    if not n_max:
        return [], 1
    q = _lie_sum(_lie_terms(exact_v.truncate(n_max)), Fraction(-1), n_max)
    return q.derivative().unit_inverse().int_view()


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
    """The delta operator of phi^s: the shift-invariant operator f^{-s}(D),
    with f^{-s} the spec's one iterate at every s (``UmbralSpec.iterate``),
    so at s = 1 it reads ``f_inverse``, in both modes and in the group laws."""
    if n_in is None:
        n_in = spec.default_n_max()
    g = spec.iterate(-coerce(s, spec.mode))
    if g.order > n_in:
        g = g.truncate(n_in)
    return op_from_D_series(g, n_in)


def frac_power(spec: UmbralSpec, s, n_max: int | None = None) -> UmbralOperator:
    """phi^s as the umbral operator of the iterate f^[s].

    The umbral operator of f o g is the product of the umbral operators of f
    and g (Roman, The Umbral Calculus, 1984, ch. 3; Garsia, "An expose of the
    Mullin-Rota theory of polynomials of binomial type", 1973), so phi^s is
    garsia's construction on spec.iterate(s).  Integer s works for any
    multiplier; non-integer s needs multiplier 1 in exact mode, where
    spec.iterate raises otherwise.  The matrix is built once per (s, n_max),
    with n_max resolved to the default first, and kept on the spec.  The
    paper's formula exp(s x V(D)) with V = itlog(f) is kept as the test
    oracle.
    """
    s = coerce(s, spec.mode)
    if n_max is None:
        n_max = spec.default_n_max()
    key = s, n_max
    if key not in spec._frac_powers:
        spec._frac_powers[key] = umbral_garsia(UmbralSpec(spec.iterate(s)), n_max).matrix
    return UmbralOperator(spec, spec._frac_powers[key], f"fractional[{s}]")


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


def _col_coeff(d):
    """A first_discrepancy (column, coefficient) as a report writes it."""
    return None if d is None else {"col": d[0], "coeff": d[1]}


def _check_item(identity: str, window, ok: bool, where=None) -> dict:
    """The one builder of a report entry.  On failure ``first_discrepancy``
    is ``where``: a first_discrepancy tuple reads ``{"col", "coeff"}``
    (``_col_coeff``), any other location is written as it is.  A window of
    None writes no ``window`` key."""
    item = {"identity": identity}
    if window is not None:
        item["window"] = window
    item["status"] = "exact-pass" if ok else "fail"
    item["first_discrepancy"] = None if ok else _col_coeff(where) if isinstance(where, tuple) else where
    return item


def _compare_item(identity: str, lhs: OperatorMatrix, rhs: OperatorMatrix) -> dict:
    """The entry of lhs = rhs on their common window."""
    d = first_discrepancy(lhs, rhs)
    return _check_item(identity, min(lhs.window, rhs.window), d is None, d)


def genfun_check(U: UmbralOperator, t_order: int) -> dict:
    """Compare the columns against the exponential generating function of f
    for n <= t_order.  Its x^k t^n coefficient [t^n] f^k / k! times n! is
    column n, coefficient k of garsia's construction, so the check is
    against that matrix."""
    if t_order > min(U.spec.order, U.matrix.window):
        raise PreconditionError("t_order exceeds the available window")
    return _compare_item("generating-function", U.matrix, umbral_garsia(U.spec, t_order).matrix)


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
    col = U.matrix.col
    return binomial_convolution_residual(col(n), col, col, n)


def coeff_identity_scan(spec: UmbralSpec, s, n_max: int = 8):
    """First (n, k) where the fractional-power coefficient identity fails,
    or None.  It reads the stored integer views of one frac_power matrix and
    of the spec's ladder of bucc powers (``_bucc_powers``, shared by every
    s), so each (n, k) is one integer equality over a running common
    denominator.  The q-binomials ``left(p)`` and ``right(n - k, p)`` are
    rows of ``_qbinom_row`` that fill on first use: a float q-binomial that
    overflows is never computed where it would multiply only zeros."""
    q, mode = spec.q, spec.mode
    s = coerce(s, mode)
    frac = frac_power(spec, s, n_max).matrix._views
    powers = [P._views for P in _bucc_powers(spec, n_max)]
    left = _qbinom_row(s, q)
    right = cache(lambda m: _qbinom_row(m - s, q))
    tangent = q == coerce(1, mode)
    for n in range(n_max + 1):
        for k in range(n + 1):
            num, den = 0, 1
            for p in range(n - k + 1):
                nums, e = powers[p][n]
                if k >= len(nums) or not nums[k]:
                    continue
                (la, lb), (ra, rb) = left(p), right(n - k)(n - k - p)
                x, y = nums[k] * la * ra, e * lb * rb
                if not tangent:
                    expo = (n - p) * (s - p)
                    if not _is_integer(expo):
                        raise PreconditionError("non-integer q-power needs float mode")
                    qa, qb = _int_pair(q ** int(expo), mode)
                    x, y = x * qa, y * qb
                g = math.lcm(den, y)
                num, den = num * (g // den) + x * (g // y), g
            nums, d = frac[n]
            if (nums[k] if k < len(nums) else 0) * den != num * d:
                return (n, k)
    return None


def group_law_checks(spec: UmbralSpec, s, t) -> dict:
    """The one-parameter group laws of phi^s and its delta operators."""
    n_max = spec.default_n_max()
    s = coerce(s, spec.mode)
    t = coerce(t, spec.mode)
    phi_s = frac_power(spec, s, n_max).matrix
    phi_t = frac_power(spec, t, n_max).matrix
    phi_st = frac_power(spec, s + t, n_max).matrix
    q_t = delta_operator(spec, t, n_max)
    q_tm = delta_operator(spec, t - s, n_max)
    diamond = spec.iterate(-s).compose(spec.iterate(-t))
    # the two series compare as the operator columns do: exactly, or within
    # the float column tolerance
    k = _view_discrepancy(diamond._view, spec.iterate(-s - t)._view, spec.mode)
    items = [
        _compare_item("power-additivity", phi_st, compose_ops(phi_s, phi_t)),
        _compare_item("delta-conjugation", compose_ops(q_t, phi_s), compose_ops(phi_s, q_tm)),
        _check_item("delta-diamond-law", spec.order, k is None, {"coeff": k}),
    ]
    return {"items": items, "passed": all(i["status"] == "exact-pass" for i in items)}


def duality_check(spec: UmbralSpec) -> dict:
    """Swap x and D in the normal form of the composition operator of f and
    compare the rebuilt matrix with the umbral operator of f."""
    n_max = spec.default_n_max()
    f = spec.f
    cf = composition_operator(f, f.order, f.order)
    nf = normal_form(cf)
    rebuilt = NormalForm(
        {(j, k): c for (j, k), c in nf.l_transform().table.items() if k <= n_max},
        spec.mode,
    )
    candidate = op_from_normal_form(rebuilt, n_max, n_max)
    return _compare_item("x-D-swap-duality", candidate, umbral_bucc(spec, n_max).matrix)

