"""Scalar arithmetic helpers for the exact (rational) and float coefficient modes.

Exact-mode values are rationals.  A single value crosses the API as a
``fractions.Fraction`` (always in lowest terms with a positive denominator);
a coefficient container stores its values as one integer view ``(nums, d)``,
integer numerators over one reduced denominator, and builds ``Fraction``s
on every read, keeping none.  Float-mode values are plain ``float``, and a
float container stores them as its view with d = 1.  The two modes are never
mixed silently: containers carry a mode tag and binary operations reject
operands of different modes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest

EXACT = "exact"
FLOAT = "float"

MODES = (EXACT, FLOAT)


class ModeMismatchError(TypeError):
    """Raised when exact and float values meet in one operation."""


class PreconditionError(ValueError):
    """A documented operation precondition was violated."""


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return mode


def infer_mode(value) -> str:
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, (int, Fraction)):
        return EXACT
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def coerce(value, mode: str):
    """Convert ``value`` into the canonical representation for ``mode``.

    Integers are accepted in both modes; a float is rejected in exact mode
    and a Fraction is rejected in float mode.
    """
    check_mode(mode)
    if mode == EXACT:
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ModeMismatchError(f"{value!r} is not an exact scalar")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ModeMismatchError(f"{value!r} is not a float scalar")


_ZERO = Fraction(0)


def _to_ints(coeffs, mode: str):
    """Integer view of a coefficient list, the idiom of FLINT's ``fmpq_poly``:
    ``(nums, d)`` with ``coeffs[i] == nums[i] / d``, ``nums`` the numerators
    over ``d``, the least common denominator, so the view is reduced.  Float
    mode passes the values through with ``d = 1``, so a loop over the view
    runs the float field arithmetic unchanged."""
    if mode == FLOAT:
        return list(coeffs), 1
    dens = [c.denominator for c in coeffs]
    d = math.lcm(*dens)
    if d == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (d // q) for c, q in zip(coeffs, dens)], d


def _from_ints(nums, d, mode: str) -> list:
    """The values ``nums[i] / d`` of an integer view (``d`` any nonzero
    integer): one public ``Fraction`` per nonzero entry and one shared
    ``Fraction(0)`` for every zero.  Float mode divides: at d = 1 that is
    ``float(v)``, ``0.0`` for an int zero."""
    if mode == FLOAT:
        return [v / d for v in nums]
    if d == 1:
        return [Fraction(v) if v else _ZERO for v in nums]
    return [Fraction(v, d) if v else _ZERO for v in nums]


def _int_pair(c, mode: str):
    """The integer view ``(a, b)`` of one scalar, ``c == a / b``: numerator
    and denominator in exact mode, ``(c, 1)`` in float mode."""
    [a], b = _to_ints([c], mode)
    return a, b


def _canonical(nums: list, d: int, mode: str):
    """The stored form of the integer view ``(nums, d)``, d any nonzero
    integer: reduced, with d > 0 and gcd(d, *nums) = 1, so equal values have
    equal views.  Float mode stores the values over d = 1: ``v / d``, which
    makes an int zero 0.0 and is a closing division (by n, by k!) in the
    float field.  The result may share ``nums``; no one mutates it."""
    if mode == FLOAT:
        return [v / d for v in nums], 1
    if d < 0:
        nums, d = [-x for x in nums], -d
    return _reduced(nums, d)


def _ratios(nums: list, dens: list, mode: str):
    """An integer view of the entries ``nums[i] / dens[i]``: over the lcm of
    the ``dens`` in exact mode; float mode divides each entry, the rounding
    of one division per coefficient."""
    if mode == FLOAT:
        return [x / b for x, b in zip(nums, dens)], 1
    d = math.lcm(*dens)
    return [x * (d // b) for x, b in zip(nums, dens)], d


def _view_sum(a: tuple, b: tuple, op):
    """op (add or sub) of the integer views a and b (any nonzero d's) over
    the lcm of their d's, the shorter list padded with zeros."""
    (a, da), (b, db) = a, b
    den = math.lcm(da, db)
    if den != da:
        a = [x * (den // da) for x in a]
    if den != db:
        b = [y * (den // db) for y in b]
    return [op(x, y) for x, y in zip_longest(a, b, fillvalue=0)], den


def _nonzero(nums: list) -> list:
    """The ``(j, y)`` pairs of the nonzero entries of ``nums``, ascending in
    j: the operand form of the kernels, which visit nothing else.  A float
    entry counts when it is truthy, so -0.0 is left out and inf and nan
    are kept, as the kernels' ``if y`` tests did."""
    return [(j, y) for j, y in enumerate(nums) if y]


def _mul_ints(a: list, pairs: list, size: int) -> list:
    """The first ``size`` entries of the product of the numerator lists ``a``
    and ``b``, given as ``pairs = _nonzero(b)``: the one integer convolution
    loop.  It visits only the nonzero entries of both, in the order of the
    full double loop, so on float lists it is the float product with the
    same additions in the same order."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            top = size - i
            for j, y in pairs:
                if j >= top:
                    break
                out[i + j] += x * y
    return out


def _reduced(nums: list, d: int):
    """The integer view ``(nums, d)`` divided by ``gcd(d, *nums)``; a
    denominator of 1, the only one float mode has, is left as it is."""
    if d != 1:
        g = math.gcd(d, *nums)
        if g != 1:
            return [x // g for x in nums], d // g
    return nums, d


def _trimmed(nums: list) -> list:
    """``nums`` without its trailing zeros (``nums`` itself if it has none)."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return nums[:n] if n < len(nums) else nums


def _add_scaled(acc: tuple, a, b, power: tuple, size: int):
    """The first ``size`` entries of acc + (a / b) power for the integer
    views acc = (S, s) and power = (P, e): over lcm(s, b e), one integer pass.
    It is the one running-denominator accumulator.  Float mode passes
    ``(c, 1)`` for the scalar and adds ``c * P_i`` to each entry: scaling a
    coefficient list by c, then adding it, in float arithmetic."""
    (nums, s), (pnums, e) = acc, power
    den = math.lcm(s, b * e)
    out = nums[:size]
    if den != s:
        out = [x * (den // s) for x in out]
    out += [0] * (min(size, len(pnums)) - len(out))
    m = a * (den // (b * e))
    for i, y in enumerate(pnums[:size]):
        if y:
            out[i] += m * y
    return out, den


_ZEROS = {EXACT: _ZERO, FLOAT: 0.0}


class _Frozen:
    """Base of the immutable value classes: constructors set the attributes
    once (``_init``, or ``object.__setattr__`` on a hot path)."""

    __slots__ = ()

    def _init(self, **attrs) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Coeffs(_Frozen):
    """The ring core shared by ``TruncatedSeries`` and ``Polynomial``.

    The one stored representation is ``_view``, the reduced integer view
    ``(nums, d)`` of ``_canonical``: the coefficients are ``nums[i] / d``.
    Every ring operation, equality and hashing run on it.  The public
    values, ``coeffs``, are built from it on every read and never kept.

    A subclass supplies ``_key`` (the shape that equality compares besides
    the view), ``_like`` (a same-kind value from an integer view), ``_peer``
    (the checks on a same-kind operand) and ``_product`` (the same-kind
    product).  Operands of another kind are ``NotImplemented``."""

    __slots__ = ("_view", "mode")

    @classmethod
    def _new(cls, view: tuple, mode: str):
        """A value storing the canonical ``view`` and no shape fields yet:
        the one constructor behind the subclasses' ``_from_view``."""
        self = object.__new__(cls)
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "mode", mode)
        return self

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``Fraction``s (exact) or floats."""
        return tuple(_from_ints(*self._view, self.mode))

    def _value(self, k: int):
        """Coefficient k (an index into the view), built alone."""
        return _from_ints([self._view[0][k]], self._view[1], self.mode)[0]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._view == other._view and self._key() == other._key()

    def __hash__(self):
        nums, d = self._view
        return hash((tuple(nums), d, self._key()))

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for zero."""
        for n, x in enumerate(self._view[0]):
            if x:
                return n
        return None

    def terms(self) -> list:
        """The (index, coefficient) pairs of the nonzero coefficients."""
        return [(n, c) for n, c in enumerate(self.coeffs) if c]

    def int_view(self, size: int | None = None):
        """A copy of the integer view ``(nums, d)``, its numerators cut to the
        first ``size`` (all by default); ``nums[i] / d`` is coefficient i."""
        nums, d = self._view
        return nums[:size], d

    def _combine(self, other, op):
        """op (add or sub) on the two views (``_view_sum``)."""
        if type(other) is not type(self):
            return NotImplemented
        self._peer(other)
        return self._like(*_view_sum(self._view, other._view, op))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        nums, d = self._view
        return self._like([-x for x in nums], d)

    def scale(self, c):
        a, b = _int_pair(coerce(c, self.mode), self.mode)
        nums, d = self._view
        return self._like([a * x for x in nums], b * d)

    def __mul__(self, other):
        """Same-kind product, or scaling by a scalar."""
        if type(other) is type(self):
            self._peer(other)
            return self._product(other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__


def _int_pivot(a0, n: int, mode: str):
    """For a fraction-free triangular solve in the integer view with pivot
    ``a0`` over ``n + 1`` unknowns: the solution's common denominator
    ``a0^(n+1)``, over which every step's quotient by ``a0`` is an exact
    integer division, and that division.  Float mode solves in the field:
    denominator 1 and true division, the plain recurrence's rounding."""
    if mode == FLOAT:
        return 1, operator.truediv
    return a0 ** (n + 1), operator.floordiv


def common_mode(a: str, b: str) -> str:
    if a != b:
        raise ModeMismatchError(f"mixed scalar modes: {a} vs {b}")
    return a


def parse_scalar(text: str, mode: str = EXACT):
    """Parse ``"p/q"`` / integer strings (exact) or finite decimal strings
    (float; ``inf``, ``nan`` and values beyond the float range are refused)."""
    check_mode(mode)
    text = text.strip()
    if mode == EXACT:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {text!r}") from exc
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {text!r}")
    return value


def format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def scalar_to_json(value):
    if isinstance(value, float):
        return value
    return format_scalar(Fraction(value))


def scalar_from_json(obj, mode: str):
    if isinstance(obj, str):
        return parse_scalar(obj, mode)
    return coerce(obj, mode)


def gbinom(s, n: int):
    """Generalized binomial coefficient: falling factorial of ``s`` over ``n!``."""
    if n < 0:
        raise ValueError("gbinom requires n >= 0")
    return qbinom(s, n, coerce(1, infer_mode(s)))


def qbinom(s, p: int, q):
    """Gaussian binomial coefficient; at q = 1 it degenerates to ``gbinom``.

    For q != 1 the product formula needs q-powers of s, so s must be an
    integer (any sign) in exact mode; float mode additionally allows real s
    with positive q.  At q = -1, where the formula divides by zero, the
    value is that of the Laurent polynomial in q (``_qbinom_at_minus_one``).
    """
    if p < 0:
        raise ValueError("qbinom requires p >= 0")
    x, d = _qbinom_row(s, q)(p)
    return coerce(x, infer_mode(q)) / d


def _qbinom_row(s, q):
    """``row(p)``, the integer view ``(x, d)`` of qbinom(s, p, q): running
    products of factors x / y over z / w, one multiply each per entry,
    extended only as far as an entry is read; at q = 1, prod_{i<p} (a - i b)
    over b^p p! for s = a / b.  Float mode closes each entry with qbinom's
    one division, so the values keep qbinom's float bits."""
    mode = infer_mode(q)
    tangent = q == coerce(1, mode)
    if tangent:
        a, b = _int_pair(coerce(s, mode), mode)
    elif mode == EXACT:
        if infer_mode(s) != EXACT or Fraction(s).denominator != 1:
            raise ValueError("qbinom with q != 1 requires integer s in exact mode")
        s, q = int(Fraction(s)), Fraction(q)
        if q == -1:
            return lambda p: (_qbinom_at_minus_one(s, p), 1)
    elif q <= 0:
        raise ValueError("qbinom in float mode requires q > 0")
    views = [(1, 1)]
    num = den = 1

    def row(p):
        nonlocal num, den
        for i in range(len(views), p + 1):
            if tangent:
                (x, y), (z, w) = (a - (i - 1) * b, b), (i, 1)
            else:
                (x, y), (z, w) = _int_pair(q ** (s - i + 1) - 1, mode), _int_pair(q**i - 1, mode)
            num, den = num * (x * w), den * (y * z)
            views.append((num / den, 1) if mode == FLOAT else (num, den))
        return views[p]

    return row


def _qbinom_at_minus_one(s: int, p: int) -> int:
    """The Gaussian binomial [s, p]_q at q = -1, an integer: for s >= 0 it
    is 0 when s is even and p odd, else C(floor(s/2), floor(p/2)); for
    s = -a < 0, [-a, p]_q = (-1)^p q^-(p a + p (p - 1) / 2) [a + p - 1, p]_q."""
    sign = 1
    if s < 0:
        sign = (-1) ** (p - s * p + p * (p - 1) // 2)
        s = p - s - 1
    if s % 2 == 0 and p % 2:
        return 0
    return sign * math.comb(s // 2, p // 2)
