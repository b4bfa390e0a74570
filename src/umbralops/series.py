"""Truncated formal power series in one indeterminate.

A :class:`TruncatedSeries` stores the coefficients ``c_0 .. c_N`` of
``t^0 .. t^N`` as one reduced integer view (``scalars._Coeffs``: all
``N + 1`` numerators over one denominator) together with the truncation
order ``N``.  Values are immutable; every operation returns a new series at
the same order and never silently extends it.  Binary operations require
equal orders (use :meth:`TruncatedSeries.truncate` to align) and equal
scalar modes.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Sequence

from .scalars import (
    EXACT,
    FLOAT,
    PreconditionError,
    _ZEROS,
    _Coeffs,
    _add_scaled,
    _canonical,
    _int_pair,
    _int_pivot,
    _mul_ints,
    _nonzero,
    _qbinom_row,
    _ratios,
    _reduced,
    _to_ints,
    check_mode,
    coerce,
    common_mode,
    scalar_from_json,
    scalar_to_json,
)


DEFAULT_ORDER = 12


class TruncatedSeries(_Coeffs):
    __slots__ = ("order",)

    def __init__(self, coeffs: Sequence, order: int | None = None, mode: str = EXACT):
        check_mode(mode)
        coeffs = [coerce(c, mode) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs += [_ZEROS[mode]] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            raise ValueError("more coefficients than order+1")
        self._init(_view=_to_ints(coeffs, mode), order=order, mode=mode)

    @classmethod
    def _from_view(cls, nums: list, d: int, order: int, mode: str) -> "TruncatedSeries":
        """Trusted internal constructor from an integer view: ``nums / d``
        (d any nonzero integer) holds exactly ``order + 1`` coefficients in
        ``mode``: ints in exact mode, floats (or int zeros) in float mode.
        Neither checks ``mode`` nor pads; ``nums`` is not copied."""
        self = cls._new(_canonical(nums, d, mode), mode)
        object.__setattr__(self, "order", order)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int, mode: str = EXACT) -> "TruncatedSeries":
        return cls([], order, mode)

    @classmethod
    def one(cls, order: int, mode: str = EXACT) -> "TruncatedSeries":
        return cls([1], order, mode)

    @classmethod
    def t(cls, order: int, mode: str = EXACT) -> "TruncatedSeries":
        return cls([0, 1], order, mode)

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedSeries":
        mode = EXACT if any(isinstance(c, str) for c in obj["coeffs"]) or not obj["coeffs"] else FLOAT
        mode = obj.get("mode", mode)
        coeffs = [scalar_from_json(c, mode) for c in obj["coeffs"]]
        return cls(coeffs, obj["order"], mode)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [scalar_to_json(c) for c in self.coeffs]}

    # -- basics -------------------------------------------------------

    def __getitem__(self, n: int):
        return self._value(n)

    def _key(self):
        return (self.order, self.mode)

    def _like(self, nums: list, d: int) -> "TruncatedSeries":
        """A series at this order and mode from an integer view of
        ``order + 1`` coefficients."""
        return TruncatedSeries._from_view(nums, d, self.order, self.mode)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, order={self.order})"

    def is_zero(self) -> bool:
        return not any(self._view[0])

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend the order")
        nums, d = self._view
        return TruncatedSeries._from_view(nums[: order + 1], d, order, self.mode)

    def _peer(self, other: "TruncatedSeries") -> None:
        common_mode(self.mode, other.mode)
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; truncate explicitly"
            )

    # -- ring operations (the rest are _Coeffs') -----------------------

    def _product(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series product truncated at the order (``scalars._mul_ints``)."""
        (a, da), (b, db) = self._view, other._view
        return self._like(_mul_ints(a, _nonzero(b), self.order + 1), da * db)

    # perfbench/tracing.py looks the traced methods up in the class's own
    # __dict__, so the product is bound here as well as in _Coeffs
    __mul__ = __rmul__ = _Coeffs.__mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("shift requires k >= 0")
        nums, d = self._view
        return self._like(([0] * k + nums)[: self.order + 1], d)

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the order drops by one (the top coefficient
        of the derivative would need an unknown coefficient of self)."""
        if self.order == 0:
            return TruncatedSeries.zero(0, self.mode)
        nums, d = self._view
        out = [i * x for i, x in enumerate(nums)][1:]
        return TruncatedSeries._from_view(out, d, self.order - 1, self.mode)

    def pad(self, order: int) -> "TruncatedSeries":
        """Extend with zero coefficients.  The caller asserts that the true
        coefficients in the padded range are zero (or irrelevant)."""
        if order < self.order:
            raise ValueError("pad cannot shrink the order")
        nums, d = self._view
        return TruncatedSeries._from_view(nums + [0] * (order - self.order), d, order, self.mode)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by t^k; requires valuation >= k.  The order drops by k."""
        v = self.valuation()
        if v is not None and v < k:
            raise PreconditionError(f"series is not divisible by t^{k}")
        if self.order < k:
            raise ValueError("order too small")
        nums, d = self._view
        return TruncatedSeries._from_view(nums[k:], d, self.order - k, self.mode)

    # -- composition and inversion --------------------------------------

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(t)) truncated at the common order; requires g(0) = 0.

        Horner evaluation on the stored views f = a / d and g = G / e:
        acc <- acc G + a_k, each product one ``_mul_ints`` on G's nonzero
        pairs (built once) reduced by ``_reduced``, each constant one
        ``_add_scaled``.  Float mode runs the same loop with d = e = 1,
        skipping zero coefficients."""
        self._peer(g)
        if g._view[0][0]:
            raise PreconditionError("compose requires ord(g) >= 1 (g(0) = 0)")
        size = self.order + 1
        a, d = self._view
        G, e = g._view
        G = _nonzero(G)
        acc = [0] * size, 1
        for c in reversed(a):
            acc = _reduced(_mul_ints(acc[0], G, size), acc[1] * e)
            if c:
                acc = _add_scaled(acc, c, d, ([1], 1), size)
        return self._like(*acc)

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse g with f(g) = g(f) = t, by Lagrange inversion:
        with f = t h, [t^n] g = [t^(n-1)] h^(-n) / n.  One unit inverse and
        ``order`` powers from ``_int_powers``, O(N^3)."""
        nums = self._view[0]
        if nums[0] or self.order < 1 or not nums[1]:
            raise PreconditionError("comp_inverse requires f(0) = 0 and f'(0) != 0")
        hinv = self.shift_down(1).unit_inverse()
        powers = islice(_int_powers(hinv, self.order), 1, self.order + 1)
        tops, dens = [0], [1]
        for n, (pnums, e) in enumerate(powers, 1):
            tops.append(pnums[n - 1])
            dens.append(e * n)
        return self._like(*_ratios(tops, dens, self.mode))

    def unit_inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term.

        Fraction-free in the integer view: with
        self = a / d, the inverse is d b / a_0^(N+1) for the integers
        b_0 = a_0^N, b_m = -(sum_k a_k b_(m-k)) / a_0, each quotient exact.
        Float mode runs the same recurrence in the field (b_0 = 1 / a_0)."""
        a, d = self._view
        if not a[0]:
            raise PreconditionError("unit_inverse requires f(0) != 0")
        n = self.order
        den, quo = _int_pivot(a[0], n, self.mode)
        b = [quo(den, a[0])]
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m + 1):
                s += a[k] * b[m - k]
            b.append(quo(-s, a[0]))
        return self._like([d * v for v in b], den)

    # -- transcendental expansions ---------------------------------------

    def _has_unit_constant(self) -> bool:
        """f(0) = 1: the constant numerator equals the denominator."""
        nums, d = self._view
        return nums[0] == d

    def exp(self) -> "TruncatedSeries":
        if self._view[0][0]:
            raise PreconditionError("exp requires f(0) = 0")
        one = TruncatedSeries.one(self.order, self.mode)
        return _power_sum(self, one, lambda k: _int_pair(one[0] / math.factorial(k), self.mode))

    def log1(self) -> "TruncatedSeries":
        if not self._has_unit_constant():
            raise PreconditionError("log1 requires f(0) = 1")
        one = TruncatedSeries.one(self.order, self.mode)
        zero = TruncatedSeries.zero(self.order, self.mode)
        return _power_sum(self - one, zero, lambda k: _int_pair((-one[0]) ** (k + 1) / k, self.mode))

    def pow_scalar(self, alpha) -> "TruncatedSeries":
        """Generalized binomial series: f^alpha for a series with f(0) = 1,
        its binomials gbinom(alpha, k) read from one ``_qbinom_row``."""
        if not self._has_unit_constant():
            raise PreconditionError("pow_scalar requires f(0) = 1")
        one = TruncatedSeries.one(self.order, self.mode)
        return _power_sum(self - one, one, _qbinom_row(coerce(alpha, self.mode), one[0]))


def _int_powers(g: TruncatedSeries, size: int):
    """g^0, g^1, ... in the integer view: the first ``size`` numerators of
    each power over its denominator, one ``_mul_ints`` on g's nonzero pairs
    (built once for the whole ladder) and one ``_reduced`` per power.  It is
    the one ladder of series powers."""
    nums, d = g._view
    pairs = _nonzero(nums)
    power = [1] + [0] * (size - 1), 1
    while True:
        yield power
        power = _reduced(_mul_ints(power[0], pairs, size), power[1] * d)


def _power_sum(u: TruncatedSeries, acc: TruncatedSeries, coeff) -> TruncatedSeries:
    """acc + sum_{k >= 1} (a / b) u^k for u(0) = 0, (a, b) = coeff(k), stopping
    at the first vanishing power: the powers of ``_int_powers`` summed by
    ``_add_scaled``."""
    size = u.order + 1
    acc = acc._view
    for k, power in enumerate(islice(_int_powers(u, size), 1, size), 1):
        if not any(power[0]):
            break
        acc = _add_scaled(acc, *coeff(k), power, size)
    return u._like(*acc)


def series_from_tail(coeffs: Iterable, order: int, mode: str = EXACT) -> TruncatedSeries:
    """Build a generator series from coefficients of t^1, t^2, ... (c_0 = 0)."""
    tail = list(coeffs)
    if len(tail) > order:
        raise ValueError("more tail coefficients than the truncation order")
    return TruncatedSeries([0] + tail, order, mode)
