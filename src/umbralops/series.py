"""Truncated formal power series in one indeterminate.

A :class:`TruncatedSeries` stores plain coefficients ``c_0 .. c_N`` of
``t^0 .. t^N`` together with the truncation order ``N``.  Values are
immutable; every operation returns a new series at the same order and never
silently extends it.  Binary operations require equal orders (use
:meth:`TruncatedSeries.truncate` to align) and equal scalar modes.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Sequence

from .scalars import (
    EXACT,
    FLOAT,
    _ZEROS,
    _Coeffs,
    _add_scaled,
    _convolve,
    _from_ints,
    _int_pivot,
    _mul_ints,
    _reduced,
    _to_ints,
    check_mode,
    coerce,
    common_mode,
    gbinom,
    scalar_from_json,
    scalar_to_json,
)


DEFAULT_ORDER = 12


class PreconditionError(ValueError):
    """A documented operation precondition was violated."""


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
        self._init(coeffs=tuple(coeffs), order=order, mode=mode)

    @classmethod
    def _raw(cls, coeffs: Sequence, order: int, mode: str) -> "TruncatedSeries":
        """Trusted internal constructor: neither checks ``mode`` nor coerces
        nor pads.  ``coeffs`` must hold exactly ``order + 1`` coefficients,
        each already canonical for ``mode`` (``Fraction`` in exact mode,
        ``float`` in float mode), e.g. the result of arithmetic on
        coefficients of same-mode series or ``coerce(0, mode)`` padding."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mode", mode)
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
        return self.coeffs[n]

    def _key(self):
        return (self.coeffs, self.order, self.mode)

    def _like(self, coeffs) -> "TruncatedSeries":
        """A series at this order and mode from ``order + 1`` coefficients."""
        return TruncatedSeries._raw(coeffs, self.order, self.mode)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, order={self.order})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend the order")
        return TruncatedSeries._raw(self.coeffs[: order + 1], order, self.mode)

    def _peer(self, other: "TruncatedSeries") -> None:
        common_mode(self.mode, other.mode)
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; truncate explicitly"
            )

    # -- ring operations (the rest are _Coeffs') -----------------------

    def _product(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series product truncated at the order (``scalars._convolve``)."""
        return self._like(_convolve(self.coeffs, other.coeffs, self.order + 1, self.mode))

    # perfbench/tracing.py looks the traced methods up in the class's own
    # __dict__, so the product is bound here as well as in _Coeffs
    __mul__ = __rmul__ = _Coeffs.__mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("shift requires k >= 0")
        zeros = [_ZEROS[self.mode]] * k
        return self._like((zeros + list(self.coeffs))[: self.order + 1])

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the order drops by one (the top coefficient
        of the derivative would need an unknown coefficient of self)."""
        if self.order == 0:
            return TruncatedSeries.zero(0, self.mode)
        out = [i * c for i, c in enumerate(self.coeffs)][1:]
        return TruncatedSeries._raw(out, self.order - 1, self.mode)

    def pad(self, order: int) -> "TruncatedSeries":
        """Extend with zero coefficients.  The caller asserts that the true
        coefficients in the padded range are zero (or irrelevant)."""
        if order < self.order:
            raise ValueError("pad cannot shrink the order")
        zeros = [_ZEROS[self.mode]] * (order - self.order)
        return TruncatedSeries._raw(list(self.coeffs) + zeros, order, self.mode)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by t^k; requires valuation >= k.  The order drops by k."""
        v = self.valuation()
        if v is not None and v < k:
            raise PreconditionError(f"series is not divisible by t^{k}")
        if self.order < k:
            raise ValueError("order too small")
        return TruncatedSeries._raw(self.coeffs[k:], self.order - k, self.mode)

    # -- composition and inversion --------------------------------------

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(t)) truncated at the common order; requires g(0) = 0.

        Horner evaluation in the integer view: with f = a / d and g = G / e
        (``int_view``, g's taken once), acc <- acc G + a_k, each product one
        ``_mul_ints`` reduced by ``_reduced``, each constant one
        ``_add_scaled``; ``Fraction``s are built once, at the end.  Float
        mode runs the same loop with d = e = 1, skipping zero coefficients."""
        self._peer(g)
        if g.coeffs[0] != 0:
            raise PreconditionError("compose requires ord(g) >= 1 (g(0) = 0)")
        size = self.order + 1
        a, d = self.int_view()
        G, e = g.int_view()
        acc = [0] * size, 1
        for c in reversed(a):
            acc = _reduced(_mul_ints(acc[0], G, size), acc[1] * e)
            if c:
                acc = _add_scaled(acc, c, d, ([1], 1), size)
        return self._like(_from_ints(*acc, self.mode))

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse g with f(g) = g(f) = t, by Lagrange inversion:
        with f = t h, [t^n] g = [t^(n-1)] h^(-n) / n.  One unit inverse and
        ``order`` powers from ``_int_powers``, O(N^3)."""
        if self.coeffs[0] != 0 or self.order < 1 or self.coeffs[1] == 0:
            raise PreconditionError("comp_inverse requires f(0) = 0 and f'(0) != 0")
        hinv = self.shift_down(1).unit_inverse()
        powers = islice(_int_powers(hinv, self.order), 1, self.order + 1)
        g = [_ZEROS[self.mode]]
        for n, (nums, e) in enumerate(powers, 1):
            g += _from_ints([nums[n - 1]], e * n, self.mode)
        return TruncatedSeries._raw(g, self.order, self.mode)

    def unit_inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term.

        Fraction-free in the integer view of ``scalars._to_ints``: with
        self = a / d, the inverse is d b / a_0^(N+1) for the integers
        b_0 = a_0^N, b_m = -(sum_k a_k b_(m-k)) / a_0, each quotient exact.
        Float mode runs the same recurrence in the field (b_0 = 1 / a_0)."""
        if self.coeffs[0] == 0:
            raise PreconditionError("unit_inverse requires f(0) != 0")
        n = self.order
        a, d = self.int_view()
        den, quo = _int_pivot(a[0], n, self.mode)
        b = [quo(den, a[0])]
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m + 1):
                s += a[k] * b[m - k]
            b.append(quo(-s, a[0]))
        return TruncatedSeries._raw(_from_ints([d * v for v in b], den, self.mode), n, self.mode)

    # -- transcendental expansions ---------------------------------------

    def exp(self) -> "TruncatedSeries":
        if self.coeffs[0] != 0:
            raise PreconditionError("exp requires f(0) = 0")
        one = coerce(1, self.mode)
        return _power_sum(self, TruncatedSeries.one(self.order, self.mode), lambda k: one / math.factorial(k))

    def log1(self) -> "TruncatedSeries":
        one = coerce(1, self.mode)
        if self.coeffs[0] != one:
            raise PreconditionError("log1 requires f(0) = 1")
        u = self - TruncatedSeries.one(self.order, self.mode)
        return _power_sum(u, TruncatedSeries.zero(self.order, self.mode), lambda k: (one if k % 2 else -one) / k)

    def pow_scalar(self, alpha) -> "TruncatedSeries":
        """Generalized binomial series: f^alpha for a series with f(0) = 1."""
        if self.coeffs[0] != coerce(1, self.mode):
            raise PreconditionError("pow_scalar requires f(0) = 1")
        alpha = coerce(alpha, self.mode)
        u = self - TruncatedSeries.one(self.order, self.mode)
        return _power_sum(u, TruncatedSeries.one(self.order, self.mode), lambda k: gbinom(alpha, k))


def _int_powers(g: TruncatedSeries, size: int):
    """g^0, g^1, ... in the integer view: the first ``size`` numerators of
    each power over its denominator, one ``_mul_ints`` and one ``_reduced``
    per power.  It is the one ladder of series powers."""
    nums, d = g.int_view()
    power = TruncatedSeries.one(size - 1, g.mode).int_view()
    while True:
        yield power
        power = _reduced(_mul_ints(power[0], nums, size), power[1] * d)


def _power_sum(u: TruncatedSeries, acc: TruncatedSeries, coeff) -> TruncatedSeries:
    """acc + sum_{k >= 1} coeff(k) u^k for u(0) = 0, stopping at the first
    vanishing power: the powers of ``_int_powers`` summed by ``_add_scaled``."""
    size = u.order + 1
    acc = acc.int_view()
    for k, power in enumerate(islice(_int_powers(u, size), 1, size), 1):
        if not any(power[0]):
            break
        [a], b = _to_ints([coeff(k)], u.mode)
        acc = _add_scaled(acc, a, b, power, size)
    return u._like(_from_ints(*acc, u.mode))


def series_from_tail(coeffs: Iterable, order: int, mode: str = EXACT) -> TruncatedSeries:
    """Build a generator series from coefficients of t^1, t^2, ... (c_0 = 0)."""
    tail = list(coeffs)
    if len(tail) > order:
        raise ValueError("more tail coefficients than the truncation order")
    return TruncatedSeries([0] + tail, order, mode)
