"""Exact polynomials in x with canonical (trimmed) coefficient vectors."""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .scalars import (
    EXACT,
    _convolve,
    check_mode,
    coerce,
    common_mode,
    scalar_from_json,
    scalar_to_json,
)
from .series import TruncatedSeries


class Polynomial:
    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: Sequence = (), mode: str = EXACT):
        check_mode(mode)
        coeffs = [coerce(c, mode) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _raw(cls, coeffs: Sequence, mode: str) -> "Polynomial":
        """Trusted internal constructor: trims trailing zeros but neither
        checks ``mode`` nor coerces.  Every coefficient must already be
        canonical for ``mode`` (``Fraction`` in exact mode, ``float`` in float
        mode), e.g. the result of arithmetic on coefficients of same-mode
        polynomials or ``coerce(0, mode)`` padding."""
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs[:n])
        object.__setattr__(self, "mode", mode)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, mode: str = EXACT) -> "Polynomial":
        return cls((), mode)

    @classmethod
    def one(cls, mode: str = EXACT) -> "Polynomial":
        return cls((1,), mode)

    @classmethod
    def monomial(cls, n: int, c=1, mode: str = EXACT) -> "Polynomial":
        return cls([0] * n + [c], mode)

    @classmethod
    def x(cls, mode: str = EXACT) -> "Polynomial":
        return cls((0, 1), mode)

    @classmethod
    def from_json(cls, obj, mode: str = EXACT) -> "Polynomial":
        return cls([scalar_from_json(c, mode) for c in obj], mode)

    def to_json(self):
        return [scalar_to_json(c) for c in self.coeffs]

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return coerce(0, self.mode)

    def valuation(self) -> int | None:
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.mode))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        zero = coerce(0, common_mode(self.mode, other.mode))
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=zero)
        return Polynomial._raw([x + y for x, y in pairs], self.mode)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        zero = coerce(0, common_mode(self.mode, other.mode))
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=zero)
        return Polynomial._raw([x - y for x, y in pairs], self.mode)

    def __neg__(self):
        return Polynomial._raw([-c for c in self.coeffs], self.mode)

    def scale(self, c) -> "Polynomial":
        c = coerce(c, self.mode)
        return Polynomial._raw([c * a for a in self.coeffs], self.mode)

    def __mul__(self, other):
        """Polynomial product (``scalars._convolve``), or scaling by a scalar."""
        if isinstance(other, Polynomial):
            common_mode(self.mode, other.mode)
            if self.is_zero() or other.is_zero():
                return Polynomial.zero(self.mode)
            size = len(self.coeffs) + len(other.coeffs) - 1
            return Polynomial._raw(_convolve(self.coeffs, other.coeffs, size, self.mode), self.mode)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift requires k >= 0")
        return Polynomial._raw([coerce(0, self.mode)] * k + list(self.coeffs), self.mode)

    def truncate(self, max_degree: int) -> "Polynomial":
        return Polynomial._raw(self.coeffs[: max_degree + 1], self.mode)

    def derivative(self, times: int = 1) -> "Polynomial":
        p = self
        for _ in range(times):
            p = Polynomial._raw([i * c for i, c in enumerate(p.coeffs)][1:], p.mode)
        return p


def poly_from_series(f: TruncatedSeries) -> Polynomial:
    """The polynomial truncation underlying a series (coefficients as-is)."""
    return Polynomial(list(f.coeffs), f.mode)
