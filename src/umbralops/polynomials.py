"""Exact polynomials in x with canonical (trimmed) coefficient vectors."""

from __future__ import annotations

from typing import Sequence

from .scalars import (
    EXACT,
    _ZEROS,
    _Coeffs,
    _convolve,
    check_mode,
    coerce,
    common_mode,
    scalar_from_json,
    scalar_to_json,
)
from .series import TruncatedSeries


class Polynomial(_Coeffs):
    __slots__ = ()

    def __init__(self, coeffs: Sequence = (), mode: str = EXACT):
        check_mode(mode)
        coeffs = [coerce(c, mode) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._init(coeffs=tuple(coeffs), mode=mode)

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
        return _ZEROS[self.mode]

    def is_zero(self) -> bool:
        return not self.coeffs

    def _key(self):
        return (self.coeffs, self.mode)

    def _like(self, coeffs) -> "Polynomial":
        """A polynomial in this mode, trailing zeros of ``coeffs`` trimmed."""
        return Polynomial._raw(coeffs, self.mode)

    def _peer(self, other: "Polynomial") -> None:
        common_mode(self.mode, other.mode)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def _product(self, other: "Polynomial") -> "Polynomial":
        """Polynomial product (``scalars._convolve``)."""
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.mode)
        size = len(self.coeffs) + len(other.coeffs) - 1
        return self._like(_convolve(self.coeffs, other.coeffs, size, self.mode))

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift requires k >= 0")
        return self._like([_ZEROS[self.mode]] * k + list(self.coeffs))

    def truncate(self, max_degree: int) -> "Polynomial":
        return self._like(self.coeffs[: max_degree + 1])

    def derivative(self, times: int = 1) -> "Polynomial":
        p = self
        for _ in range(times):
            p = p._like([i * c for i, c in enumerate(p.coeffs)][1:])
        return p


def poly_from_series(f: TruncatedSeries) -> Polynomial:
    """The polynomial truncation underlying a series (coefficients as-is)."""
    return Polynomial(list(f.coeffs), f.mode)
