"""Linear operators on polynomials as finite column matrices.

An :class:`OperatorMatrix` stores the images of the monomials ``x^0..x^n_in``
as polynomials of degree at most ``max_out``.  Two exactness contracts are
tracked:

* ``window`` -- columns ``0..window`` are trustworthy; columns above it may
  have been corrupted by composing with an operator of limited input range.
* ``complete`` -- when True, the stored columns are the full images (no
  degree truncation happened).  When False, the stored columns are exact
  only up to ``max_out``; such operators arise from genuinely infinite
  images (composition operators, multiplication by a series) and are only
  composed under a valuation-monotonicity side condition that keeps the
  truncated coefficients exact.

Composition bookkeeping: the composed window is the largest ``w`` such that
every column of the right factor up to ``w`` has degree within the left
factor's window.  With a complete right factor the product keeps the left
factor's ``max_out``, which no image can exceed, and its completeness.

An operator stores its columns in the integer view, the idiom of FLINT's
``fmpq_poly`` that :class:`Polynomial` uses too: column n is a list of
integer numerators over one common denominator.  Every kernel, sum, scaling
and comparison works on those views and builds no ``Fraction``; ``cols`` and
``col(n)`` build :class:`Polynomial` columns on every read.  Sums,
scalings and the power sums store their views reduced.  The products visit
only the nonzero entries: ``_apply_ints`` reads each column as its nonzero
pairs (``_nonzero_views``, built once per product) and skips the columns
that have vanished, and ``_add_term`` leaves an accumulator column alone
where the power's column is zero.  The entries are visited in the order of
the full loop, so float mode keeps its bits.  Every operator power comes
from one ladder, ``_int_op_powers``; the power sums (exp, log, ``gen_pow``,
h(Q)) and the normal forms stay in that view, and so does
``op_inverse``: one pass over the columns, upward in n when column n has
degree at most n, downward when it has valuation at least n.
The Pincherle derivatives make no operator product: column m of
U' = U x - x U is U(x^(m+1)) - x U(x^m), and column m of the n-th
derivative is sum_k C(n, k) (-1)^(n-k) x^(n-k) U(x^(m+k)), both summed on
the columns' integer numerators with ``_add_scaled``.
Float mode runs the same loops on the floats, with every denominator 1.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, zip_longest
from typing import Sequence

from .polynomials import Polynomial, poly_from_series
from .scalars import (
    EXACT,
    FLOAT,
    _Frozen,
    _add_scaled,
    _canonical,
    _int_pair,
    _nonzero,
    _reduced,
    _to_ints,
    _trimmed,
    _view_sum,
    check_mode,
    coerce,
    common_mode,
)
from .series import PreconditionError, TruncatedSeries, _int_powers


class WindowUnderflowError(ValueError):
    """An operation left no columns that can be certified exact."""


# Float-mode column_discrepancy tolerance, relative to the column's largest
# coefficient magnitude (at least 1); exact mode compares at zero tolerance.
FLOAT_COLUMN_TOL = 1e-9


class OperatorMatrix(_Frozen):
    """The one stored form is ``_views``: column n as an integer view
    ``(nums, d)`` as the kernels leave it, a list that may keep trailing
    zeros over a denominator that may not be reduced.  The kernels read it
    and never mutate a column's list; ``cols`` and ``col(n)`` build
    canonical :class:`Polynomial` columns from it on every read."""

    __slots__ = ("_views", "n_in", "max_out", "window", "complete", "mode")

    def __init__(
        self,
        cols: Sequence[Polynomial],
        n_in: int,
        max_out: int,
        window: int,
        complete: bool = True,
        mode: str = EXACT,
    ):
        check_mode(mode)
        if len(cols) != n_in + 1:
            raise ValueError("need exactly n_in + 1 columns")
        if window > n_in:
            raise ValueError("window cannot exceed n_in")
        if window < 0:
            raise WindowUnderflowError("operator has an empty exact window")
        for c in cols:
            if c.mode != mode:
                raise ValueError("column mode mismatch")
            if c.degree > max_out:
                raise ValueError("column degree exceeds max_out")
        self._init(
            _views=[c._view for c in cols],
            n_in=n_in, max_out=max_out, window=window, complete=complete, mode=mode,
        )

    @classmethod
    def _from_views(cls, views, n_in, max_out, window, complete, mode) -> "OperatorMatrix":
        """Trusted internal constructor: column n is ``views[n]``, an integer
        view as :meth:`Polynomial._from_view` takes it (any nonzero d in
        exact mode, floats or int zeros over d = 1 in float mode).  The list
        ``views`` is stored as it is; nothing is checked."""
        self = object.__new__(cls)
        self._init(
            _views=views,
            n_in=n_in, max_out=max_out, window=window, complete=complete, mode=mode,
        )
        return self

    @property
    def cols(self) -> tuple:
        """The columns as canonical :class:`Polynomial`s."""
        return tuple([Polynomial._from_view(*v, self.mode) for v in self._views])

    def col(self, n: int) -> Polynomial:
        return Polynomial._from_view(*self._views[n], self.mode)

    def __repr__(self):
        return (
            f"OperatorMatrix(n_in={self.n_in}, max_out={self.max_out}, "
            f"window={self.window}, complete={self.complete})"
        )

    # -- structural predicates (within the window) ----------------------

    def lowers_degree_strictly(self) -> bool:
        return not any(any(nums[n:]) for n, (nums, _) in enumerate(self._views[: self.window + 1]))

    def raises_valuation_strictly(self) -> bool:
        return not any(any(nums[: n + 1]) for n, (nums, _) in enumerate(self._views[: self.window + 1]))

    def is_val_nondecreasing(self) -> bool:
        """Column n has valuation at least n, within the window."""
        return not any(any(nums[:n]) for n, (nums, _) in enumerate(self._views[: self.window + 1]))

    def is_window_zero(self) -> bool:
        return not any(any(nums) for nums, _ in self._views[: self.window + 1])

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n_in": self.n_in,
            "max_out": self.max_out,
            "window": self.window,
            "complete": self.complete,
            "cols": [c.to_json() for c in self.cols],
        }

    @classmethod
    def from_json(cls, obj: dict, mode: str = EXACT) -> "OperatorMatrix":
        cols = [Polynomial.from_json(c, mode) for c in obj["cols"]]
        return cls(
            cols,
            obj["n_in"],
            obj["max_out"],
            obj["window"],
            obj.get("complete", True),
            mode,
        )


# -- constructors -------------------------------------------------------


def diag_op(values: Sequence, n_in: int, max_out: int | None = None, mode: str = EXACT) -> OperatorMatrix:
    """The diagonal operator x^n -> values[n] x^n: one ``coerce`` per column
    and one integer view of the diagonal."""
    if max_out is None:
        max_out = n_in
    nums, d = _to_ints([coerce(values[n], mode) for n in range(n_in + 1)], mode)
    if any(nums[max_out + 1 :]):
        raise ValueError("column degree exceeds max_out")
    # x * 0 keeps the signed float zeros of a scaled monomial; a zero x
    # stores the zero column, so no kernel reads its signed zeros
    views = [([x * 0] * n + [x] if x else [], d) for n, x in enumerate(nums)]
    return OperatorMatrix._from_views(views, n_in, max_out, n_in, True, mode)


def zero_op(n_in: int, max_out: int | None = None, mode: str = EXACT) -> OperatorMatrix:
    return diag_op([0] * (n_in + 1), n_in, max_out, mode)


def identity_op(n_in: int, max_out: int | None = None, mode: str = EXACT) -> OperatorMatrix:
    return diag_op([1] * (n_in + 1), n_in, max_out, mode)


def xD_op(n_in: int, shift: int = 0, mode: str = EXACT) -> OperatorMatrix:
    """The degree operator x*d/dx (plus an integer shift), diagonal n + shift."""
    return diag_op([n + shift for n in range(n_in + 1)], n_in, mode=mode)


def op_from_x_poly(p: Polynomial, n_in: int, max_out: int | None = None) -> OperatorMatrix:
    """Multiplication by the polynomial p(x)."""
    d = max(p.degree, 0)
    if max_out is None:
        max_out = n_in + d
    if max_out < n_in + p.degree:
        raise PreconditionError("output degree overflow: max_out < n_in + deg p")
    cols = [p.shift(n) for n in range(n_in + 1)]
    return OperatorMatrix(cols, n_in, max_out, n_in, True, p.mode)


def x_op(n_in: int, mode: str = EXACT) -> OperatorMatrix:
    return op_from_x_poly(Polynomial.x(mode), n_in)


def op_from_x_series(g: TruncatedSeries, n_in: int, max_out: int | None = None) -> OperatorMatrix:
    """Multiplication by a truncated series in x (max_out-truncated, incomplete)."""
    if max_out is None:
        max_out = max(n_in, g.order)
    p = poly_from_series(g)
    cols = [p.shift(n).truncate(max_out) for n in range(n_in + 1)]
    return OperatorMatrix(cols, n_in, max_out, n_in, False, g.mode)


def op_from_D_series(g: TruncatedSeries, n_in: int, max_out: int | None = None) -> OperatorMatrix:
    """The shift-invariant operator g(D); column n is sum_k g_k (n)_k x^(n-k),
    built on the integer view of g."""
    if max_out is None:
        max_out = n_in
    nums, d = g.int_view()
    terms = _nonzero(nums)
    if terms and n_in - terms[0][0] > max_out:
        raise ValueError("column degree exceeds max_out")
    views = [(_D_column(terms, n), d) for n in range(n_in + 1)]
    return OperatorMatrix._from_views(views, n_in, max_out, min(n_in, g.order), True, g.mode)


def _D_column(terms: list, n: int) -> list:
    """Column n of g(D) in the integer view: g's numerator x_k (n)_k at
    x^(n-k) for the nonzero ``(k, x_k)`` ``terms`` of g, ascending in k."""
    out = [0] * (n + 1)
    for k, x in terms:
        if k > n:
            break
        out[n - k] = x * math.perm(n, k)
    return out


def d_op(n_in: int, mode: str = EXACT) -> OperatorMatrix:
    return op_from_D_series(TruncatedSeries.t(n_in, mode), n_in)


def d_power_op(p: int, n_in: int, mode: str = EXACT) -> OperatorMatrix:
    coeffs = [0] * (n_in + 1)
    if p <= n_in:
        coeffs[p] = 1
    return op_from_D_series(TruncatedSeries(coeffs, n_in, mode), n_in)


def composition_operator(g: TruncatedSeries, n_in: int, max_out: int | None = None) -> OperatorMatrix:
    """C_g: p(x) -> p(g(x)), columns are powers of g truncated at max_out."""
    if g.valuation() is None or g.valuation() < 1:
        raise PreconditionError("composition_operator requires ord(g) >= 1")
    if max_out is None:
        max_out = min(n_in, g.order)
    linear = poly_from_series(g).degree <= 1
    if not linear and max_out > g.order:
        raise PreconditionError(
            "composition operator columns are exact only up to the order of g"
        )
    powers = list(islice(_int_powers(g, max_out + 1), n_in + 1))
    return OperatorMatrix._from_views(powers, n_in, max_out, min(n_in, max_out), linear, g.mode)


# -- application and algebra --------------------------------------------


def _nonzero_views(views) -> list:
    """Each column view ``(nums, d)`` as ``(_nonzero(nums), d)``, the column
    form ``_apply_ints`` reads."""
    return [(_nonzero(nums), d) for nums, d in views]


def _apply_ints(cols, nums: list, e: int):
    """The image of the polynomial P / e, P = ``nums``, under the operator
    whose column d is ``cols[d] = (pairs_d, c_d)``: the nonzero ``(i, y)``
    pairs of its numerators over c_d (``_nonzero_views``); the terms of P
    beyond the last column are dropped.

    The image is sum_d P_d (L / c_d) C_d over e L, L the lcm of the c_d in
    use: one int list up to the last nonzero entry of the columns in use, and
    its denominator.  A column that has vanished (no pairs) is not in use:
    it adds to neither L nor the length.  Only nonzero entries are visited,
    in the order of the full loop over the columns, so float mode (every
    denominator 1) makes the same additions in the same order."""
    terms = [(x, col) for x, col in zip(nums, cols) if x and col[0]]
    lcm = math.lcm(*[c for _, (_, c) in terms])
    out = [0] * max([pairs[-1][0] + 1 for _, (pairs, _) in terms], default=0)
    for x, (pairs, c) in terms:
        x *= lcm // c
        for i, y in pairs:
            out[i] += x * y
    return out, e * lcm


def _apply_raw(U: OperatorMatrix, p: Polynomial) -> Polynomial:
    """sum_d p_d U(x^d) over d <= U.n_in (``_apply_ints``) on the stored
    columns that p's terms reach."""
    nums, e = p._view
    out, d = _apply_ints(_nonzero_views(U._views[: len(nums)]), nums, e)
    return Polynomial._from_view(out, d, U.mode)


def apply_op(U: OperatorMatrix, p: Polynomial) -> Polynomial:
    """Apply U to p; requires deg p within the exact window."""
    common_mode(U.mode, p.mode)
    if p.degree > U.window:
        raise WindowUnderflowError(
            f"polynomial degree {p.degree} exceeds the exact window {U.window}"
        )
    return _apply_raw(U, p)


def _sum_shape(U, V):
    """``(n_in, max_out, window, complete)`` of U + V: the common input
    range; an incomplete operand truncates both at the smaller max_out."""
    n_in = min(U.n_in, V.n_in)
    complete = U.complete and V.complete
    max_out = (max if complete else min)(U.max_out, V.max_out)
    return n_in, max_out, min(U.window, V.window, n_in), complete


def _columnwise(U: OperatorMatrix, V: OperatorMatrix, op) -> OperatorMatrix:
    """op on the views of U and V (``_view_sum``), shaped by ``_sum_shape``,
    each cut as its canonical column is, so float signed zeros are kept, and
    each sum reduced (``_reduced``)."""
    mode = common_mode(U.mode, V.mode)
    n_in, max_out, window, complete = _sum_shape(U, V)
    cap = None if complete else max_out + 1
    pairs = zip(U._views[: n_in + 1], V._views[: n_in + 1])
    views = [
        _reduced(*_view_sum((_trimmed(a[:cap]), c), (_trimmed(b[:cap]), e), op))
        for (a, c), (b, e) in pairs
    ]
    return OperatorMatrix._from_views(views, n_in, max_out, window, complete, mode)


def op_add(U: OperatorMatrix, V: OperatorMatrix) -> OperatorMatrix:
    return _columnwise(U, V, operator.add)


def op_sub(U: OperatorMatrix, V: OperatorMatrix) -> OperatorMatrix:
    return _columnwise(U, V, operator.sub)


def op_scale(U: OperatorMatrix, c) -> OperatorMatrix:
    """c U: the integer view (a, b) of c, taken once, times each stored view,
    reduced (``_reduced``)."""
    a, b = _int_pair(coerce(c, U.mode), U.mode)
    views = [_reduced([a * x for x in nums], b * d) for nums, d in U._views]
    return OperatorMatrix._from_views(views, U.n_in, U.max_out, U.window, U.complete, U.mode)


def _compose_ints(U: OperatorMatrix, V: OperatorMatrix) -> OperatorMatrix:
    """The product U V (V acts first) on the stored views: image column n is
    ``_apply_ints`` of V's column n on U's nonzero pairs, built once per
    product, truncated at the result's max_out and reduced by ``_reduced``.

    With V complete, column n is certified while V's columns up to n have
    degree within U's window; every column of U has degree at most
    U.max_out, so no image overflows it and U's completeness carries over.
    With V incomplete, V's stored columns miss terms above V.max_out; those
    must map above the result's truncation, which needs U
    valuation-nondecreasing and U's window to cover every stored degree."""
    if V.complete:
        window = -1
        for n, (nums, _) in enumerate(V._views[: V.window + 1]):
            if any(nums[U.window + 1 :]):
                break
            window = n
        if window < 0:
            raise WindowUnderflowError("composition left no certified columns")
        max_out, complete = U.max_out, U.complete
    else:
        if not U.is_val_nondecreasing():
            raise PreconditionError(
                "composing onto a truncated operator requires a "
                "valuation-nondecreasing left factor"
            )
        if U.window < V.max_out:
            raise WindowUnderflowError(
                "left factor window does not cover the truncated columns"
            )
        max_out, window, complete = min(U.max_out, V.max_out), V.window, False
    cols = _nonzero_views(U._views)
    views = []
    for nums, e in V._views:
        out, d = _apply_ints(cols, nums, e)
        del out[max_out + 1 :]
        views.append(_reduced(out, d))
    return OperatorMatrix._from_views(views, V.n_in, max_out, window, complete, U.mode)


def compose_ops(U: OperatorMatrix, V: OperatorMatrix) -> OperatorMatrix:
    """Operator product U V (V acts first): ``_compose_ints``, which the
    operator ladder calls directly, so that its steps are not public
    products."""
    common_mode(U.mode, V.mode)
    return _compose_ints(U, V)


def op_inverse(U: OperatorMatrix) -> OperatorMatrix:
    """Inverse of a triangular operator with a nonzero diagonal: with
    U x^n = lam_n x^n + R_n, column n of V = U^-1 is (x^n - V R_n) / lam_n,
    V R_n one ``_apply_ints`` over the nonzero pairs of the columns already
    found, each taken once.  n runs upward when every R_n lies below degree
    n, downward when U is valuation-nondecreasing (a composition operator);
    others are refused."""
    views = U._views
    if U.window < U.n_in or any(any(nums[U.window + 1 :]) for nums, _ in views):
        raise WindowUnderflowError("inverse needs columns beyond the window")
    if not any(any(nums[n + 1 :]) for n, (nums, _) in enumerate(views)):
        order = range(U.n_in + 1)
    elif U.is_val_nondecreasing():
        order = range(U.n_in, -1, -1)
    else:
        raise PreconditionError("operator is not invertibly triangular")
    cols = [None] * (U.n_in + 1)
    found = [None] * (U.n_in + 1)
    for n in order:
        nums, d = views[n]
        lam = nums[n] if n < len(nums) else 0
        if not lam:
            raise PreconditionError("operator is not invertibly triangular")
        # V R_n = out / e reads only the columns found so far
        out, e = _apply_ints(found, nums[:n] + [0] + nums[n + 1 :], d)
        col = [-y * d for y in out] + [0] * (n + 1 - len(out))
        col[n] += e * d
        cols[n] = _canonical(col, e * lam, U.mode)
        found[n] = _nonzero(cols[n][0]), cols[n][1]
    return OperatorMatrix._from_views(cols, U.n_in, U.max_out, U.window, U.complete, U.mode)


def _view_discrepancy(a: tuple, b: tuple, mode: str, magnitude=0):
    """First index where the column views (A, da) and (B, db) differ, or None:
    exact entries by the cross-products A_k db, B_k da; float entries (d = 1)
    that are unequal and farther apart than FLOAT_COLUMN_TOL times the largest
    of 1, ``magnitude`` and every finite entry, so an inf or a nan differs
    from anything but the same inf."""
    (A, da), (B, db) = a, b
    pairs = zip_longest(A, B, fillvalue=0)
    if mode == FLOAT:
        pairs = list(pairs)
        finite = [abs(c) for pair in pairs for c in pair if math.isfinite(c)]
        tol = FLOAT_COLUMN_TOL * max([1.0, magnitude] + finite)
        return next((k for k, (x, y) in enumerate(pairs) if x != y and not abs(x - y) <= tol), None)
    return next((k for k, (x, y) in enumerate(pairs) if x * db != y * da), None)


def column_discrepancy(a: Polynomial, b: Polynomial, magnitude=0):
    """First coefficient index where the columns a and b differ, or None
    (``_view_discrepancy``)."""
    return _view_discrepancy(a._view, b._view, common_mode(a.mode, b.mode), magnitude)


def first_discrepancy(U: OperatorMatrix, V: OperatorMatrix):
    """First (column, coefficient) where U and V differ on the common window
    (``_view_discrepancy``), both capped at max_out if one is incomplete."""
    mode = common_mode(U.mode, V.mode)
    window = min(U.window, V.window)
    cap = None if (U.complete and V.complete) else min(U.max_out, V.max_out) + 1
    for n, ((a, da), (b, db)) in enumerate(zip(U._views[: window + 1], V._views[: window + 1])):
        k = _view_discrepancy((a[:cap], da), (b[:cap], db), mode)
        if k is not None:
            return (n, k)
    return None


def ops_equal(U: OperatorMatrix, V: OperatorMatrix) -> bool:
    return first_discrepancy(U, V) is None


# -- Pincherle calculus ---------------------------------------------------


def pincherle_derivative(U: OperatorMatrix) -> OperatorMatrix:
    """U' = U x - x U: column m is U(x^(m+1)) - x U(x^m), one
    ``_add_scaled`` pass on the stored views.  The input range and window
    shrink by one; a complete U's images grow by one degree, an incomplete
    one's stay truncated at max_out."""
    # the refusals keep the messages of the product form U x - x U
    if U.n_in < 1:
        raise WindowUnderflowError("no room for an extra input degree")
    if U.window < 1:
        raise WindowUnderflowError("composition left no certified columns")
    max_out = U.max_out + 1 if U.complete else U.max_out
    views = U._views
    cols = [
        _add_scaled(views[m + 1], -1, 1, ([0] + nums, d), max_out + 1)
        for m, (nums, d) in enumerate(views[:-1])
    ]
    return OperatorMatrix._from_views(cols, U.n_in - 1, max_out, U.window - 1, U.complete, U.mode)


def nth_pincherle(U: OperatorMatrix, n: int) -> OperatorMatrix:
    """n-th Pincherle derivative, by n first differences
    U(x^(m+1)) - x U(x^m) in the integer view, cross-checked against the
    explicit binomial sum ``_nth_pincherle_explicit``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if U.window < n:
        raise WindowUnderflowError("window too small for the requested derivative")
    iterated = U
    for _ in range(n):
        iterated = pincherle_derivative(iterated)
    if n > 0:
        explicit = _nth_pincherle_explicit(U, n)
        if not ops_equal(iterated, explicit):
            raise AssertionError("the two n-th Pincherle derivative paths disagree")
    return iterated


def _nth_pincherle_explicit(U: OperatorMatrix, n: int) -> OperatorMatrix:
    """The n-th Pincherle derivative as one sum: column m is
    sum_k C(n, k) (-1)^(n-k) x^(n-k) U(x^(m+k)), accumulated by
    ``_add_scaled`` on the columns' integer numerators."""
    # the refusals keep the messages of the product form
    if n > U.n_in:
        raise WindowUnderflowError("operator has an empty exact window")
    if n > U.window:
        raise WindowUnderflowError("composition left no certified columns")
    max_out = U.max_out + n if U.complete else U.max_out
    cols = []
    for m in range(U.n_in - n + 1):
        acc = [], 1
        for k in range(n + 1):
            nums, d = U._views[m + k]
            a = math.comb(n, k) * (-1) ** (n - k)
            acc = _add_scaled(acc, a, 1, ([0] * (n - k) + nums, d), max_out + 1)
        cols.append(acc)
    return OperatorMatrix._from_views(cols, U.n_in - n, max_out, U.window - n, U.complete, U.mode)


# -- exponentials, logarithms, generalized powers -------------------------


def _series_termination_bound(U: OperatorMatrix) -> int:
    return U.n_in + U.max_out + 2


def _int_op_powers(A: OperatorMatrix):
    """A^0, A^1, ..., the one ladder of operator powers: each is
    ``_compose_ints`` of the last with A."""
    power = identity_op(A.n_in, A.max_out, A.mode)
    while True:
        yield power
        power = _compose_ints(power, A)


def _add_term(acc: OperatorMatrix, a, b, power: OperatorMatrix) -> OperatorMatrix:
    """acc + (a / b) power on the stored views: one ``_add_scaled`` pass per
    column, shaped by ``_sum_shape``; where the power's column is zero the
    accumulator's column is kept as it is, cut at the shape's max_out.
    Float mode passes ``(c, 1)``."""
    n_in, max_out, window, complete = _sum_shape(acc, power)
    size = max_out + 1
    cols = []
    for s, p in zip(acc._views[: n_in + 1], power._views[: n_in + 1]):
        if any(p[0]):
            s = _add_scaled(s, a, b, p, size)
        elif len(s[0]) > size:
            s = s[0][:size], s[1]
        cols.append(s)
    return OperatorMatrix._from_views(cols, n_in, max_out, window, complete, acc.mode)


def _stopped(acc: OperatorMatrix) -> OperatorMatrix:
    """A power sum's accumulator as the sum stores it: each view reduced
    once (``_reduced``), where ``_add_term`` keeps the running lcm."""
    views = [_reduced(*v) for v in acc._views]
    return OperatorMatrix._from_views(views, acc.n_in, acc.max_out, acc.window, acc.complete, acc.mode)


def _power_sum(A: OperatorMatrix, acc: OperatorMatrix, coeff, name: str) -> OperatorMatrix:
    """acc + sum_{k >= 1} coeff(k) A^k for A that strictly lowers degree or
    strictly raises valuation, stopping at the first power that vanishes on
    the window.  The powers of ``_int_op_powers`` are summed by
    ``_add_term``."""
    if not (A.lowers_degree_strictly() or A.raises_valuation_strictly()):
        raise PreconditionError(
            f"{name} series needs a strictly degree-lowering or valuation-raising operator"
        )
    powers = islice(_int_op_powers(A), 1, None)
    for k, power in zip(range(1, _series_termination_bound(A) + 1), powers):
        if power.is_window_zero():
            return _stopped(acc)
        a, b = _int_pair(coeff(k), A.mode)
        acc = _add_term(acc, a, b, power)
    raise PreconditionError(f"{name} series did not terminate")


def exp_loc_nilpotent(A: OperatorMatrix) -> OperatorMatrix:
    """exp(A) for A that strictly lowers degree or strictly raises valuation."""
    one = coerce(1, A.mode)
    acc = identity_op(A.n_in, A.max_out, A.mode)
    return _power_sum(A, acc, lambda k: one / math.factorial(k), "exponential")


def log_unipotent(U: OperatorMatrix) -> OperatorMatrix:
    """log(U) for unipotent U (U - 1 strictly lowers degree or raises valuation)."""
    n1 = op_sub(U, identity_op(U.n_in, U.max_out, U.mode))
    one = coerce(1, U.mode)
    acc = zero_op(n1.n_in, n1.max_out, n1.mode)
    return _power_sum(n1, acc, lambda k: one / k * (1 if k % 2 else -1), "logarithm")


def gen_pow(U: OperatorMatrix, V: OperatorMatrix, term_bound: int | None = None) -> OperatorMatrix:
    """Generalized exponentiation U^V = sum_n (U-1)^n binom(V, n).

    The (U-1)^n factor sits to the left of the binomial factor.  The series
    must terminate per column: either U - 1 strictly lowers degree or raises
    valuation, or a term bound is supplied by the caller (e.g. when V is an
    integer diagonal whose falling factorials vanish).
    """
    um1 = op_sub(U, identity_op(U.n_in, U.max_out, U.mode))
    auto = um1.lowers_degree_strictly() or um1.raises_valuation_strictly()
    if not auto and term_bound is None:
        raise PreconditionError(
            "gen_pow series does not terminate; supply a term bound"
        )
    limit = term_bound if term_bound is not None else _series_termination_bound(U)
    acc = identity_op(U.n_in, U.max_out, U.mode)
    bino = identity_op(V.n_in, V.max_out, V.mode)
    powers = islice(_int_op_powers(um1), 1, None)
    for m, power in zip(range(1, limit + 1), powers):
        if auto and power.is_window_zero():
            break
        shifted = op_sub(V, op_scale(identity_op(V.n_in, V.max_out, V.mode), m - 1))
        bino = op_scale(compose_ops(bino, shifted), coerce(1, U.mode) / m)
        acc = _add_term(acc, 1, 1, _compose_ints(power, bino))
    else:
        if auto and term_bound is None:
            raise PreconditionError("gen_pow series did not terminate")
    return _stopped(acc)


# -- normal forms ----------------------------------------------------------


class NormalForm(_Frozen):
    """Normal-ordered coefficient table: entry (j, k) multiplies x^j D^k."""

    __slots__ = ("table", "mode")

    def __init__(self, table: dict, mode: str = EXACT):
        check_mode(mode)
        clean = {}
        for (j, k), c in table.items():
            c = coerce(c, mode)
            if c != 0:
                clean[(int(j), int(k))] = c
        self._init(table=clean, mode=mode)

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.mode == other.mode and self.table == other.table

    def __hash__(self):
        return hash((frozenset(self.table.items()), self.mode))

    def __repr__(self):
        return f"NormalForm({self.table!r})"

    def l_transform(self) -> "NormalForm":
        """The x/D swap: x^j D^k -> x^k D^j (an anti-multiplicative involution)."""
        return NormalForm({(k, j): c for (j, k), c in self.table.items()}, self.mode)


def normal_form(U: OperatorMatrix, k_max: int | None = None, j_max: int | None = None) -> NormalForm:
    """Extract the x-before-D normal-ordered table from an operator matrix:
    row k is sum_j (-1)^(k-j) binom(k, j) x^(k-j) U(x^j) / k!, summed on the
    columns' integer numerators (``_add_scaled``); the table's values are
    read from each row once."""
    if k_max is None:
        k_max = U.window
    if j_max is None:
        j_max = U.max_out
    if k_max > U.window:
        raise WindowUnderflowError("window too small for the requested D-power range")
    table = {}
    for k in range(k_max + 1):
        inner = [], 1
        for j, (nums, d) in enumerate(U._views[: k + 1]):
            shifted = [0] * (k - j) + nums, d
            inner = _add_scaled(inner, (-1) ** (k - j) * math.comb(k, j), 1, shifted, j_max + 1)
        row = Polynomial._from_view(inner[0], inner[1] * math.factorial(k), U.mode)
        table.update(((j, k), c) for j, c in row.terms())
    return NormalForm(table, U.mode)


def op_from_normal_form(nf: NormalForm, n_in: int, max_out: int | None = None) -> OperatorMatrix:
    """Rebuild the matrix of sum a[j][k] x^j D^k, on the table's integer
    numerators over their common denominator."""
    if max_out is None:
        shift = max((j - k for (j, k) in nf.table), default=0)
        max_out = n_in + max(shift, 0)
    nums, d = _to_ints(list(nf.table.values()), nf.mode)
    cols = []
    for n in range(n_in + 1):
        acc = [0] * (max_out + 1)
        for (j, k), x in zip(nf.table, nums):
            if k > n:
                continue
            deg = n - k + j
            if deg > max_out:
                raise PreconditionError("output degree overflow in normal-form rebuild")
            acc[deg] += x * math.perm(n, k)
        cols.append((acc, d))
    return OperatorMatrix._from_views(cols, n_in, max_out, n_in, True, nf.mode)


def km_operator(
    gs: Sequence[TruncatedSeries],
    hs: Sequence[TruncatedSeries],
    Q: OperatorMatrix,
) -> OperatorMatrix:
    """Finite sum of products g_k(x) * h_k(Q) for series g_k in x, h_k in t.
    One ladder of powers of Q (``_int_op_powers``), up to the longest h_k,
    is built per call and read by every h_k."""
    if len(gs) != len(hs):
        raise ValueError("gs and hs must have equal length")
    size = max((len(h._view[0]) for h in hs), default=0)
    powers = list(islice(_int_op_powers(Q), size))
    acc = None
    for g, h in zip(gs, hs):
        gop = op_from_x_series(g, Q.n_in, Q.max_out)
        term = compose_ops(gop, _series_on_powers(h, powers, Q))
        acc = term if acc is None else op_add(acc, term)
    if acc is None:
        raise ValueError("empty expansion")
    return acc


def series_in_operator(h: TruncatedSeries, Q: OperatorMatrix) -> OperatorMatrix:
    """sum_j h_j Q^j, truncated at the order of h: the powers of
    ``_int_op_powers`` summed by ``_series_on_powers``."""
    return _series_on_powers(h, _int_op_powers(Q), Q)


def _series_on_powers(h: TruncatedSeries, powers, Q: OperatorMatrix) -> OperatorMatrix:
    """sum_j h_j powers[j] for the powers Q^0, Q^1, ... of Q, added by
    ``_add_term`` on h's numerators and stopped by ``_stopped``."""
    acc = zero_op(Q.n_in, Q.max_out, Q.mode)
    nums, d = h._view
    for x, power in zip(nums, powers):
        if x:
            acc = _add_term(acc, x, d, power)
    return _stopped(acc)
