"""Exact polynomials in x with canonical (trimmed) coefficient vectors,
stored as one reduced integer view (``scalars._Coeffs``)."""

from __future__ import annotations

from typing import Sequence

from .scalars import (
    EXACT,
    _ZEROS,
    _Coeffs,
    _canonical,
    _mul_ints,
    _nonzero,
    _to_ints,
    _trimmed,
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
        coeffs = _trimmed([coerce(c, mode) for c in coeffs])
        self._init(_view=_to_ints(coeffs, mode), mode=mode)

    @classmethod
    def _from_view(cls, nums: list, d: int, mode: str) -> "Polynomial":
        """Trusted internal constructor from an integer view: ``nums / d``
        (d any nonzero integer) in ``mode``, ints in exact mode, floats (or
        int zeros) in float mode.  Trims trailing zeros but does not check
        ``mode``; ``nums`` is not copied."""
        nums, d = _canonical(nums, d, mode)
        return cls._new((_trimmed(nums), d), mode)

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
        return len(self._view[0]) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self._view[0]):
            return self._value(k)
        return _ZEROS[self.mode]

    def is_zero(self) -> bool:
        return not self._view[0]

    def _key(self):
        return self.mode

    def _like(self, nums: list, d: int) -> "Polynomial":
        """A polynomial in this mode from an integer view, trailing zeros
        trimmed."""
        return Polynomial._from_view(nums, d, self.mode)

    def _peer(self, other: "Polynomial") -> None:
        common_mode(self.mode, other.mode)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def _product(self, other: "Polynomial") -> "Polynomial":
        """Polynomial product (``scalars._mul_ints``)."""
        (a, da), (b, db) = self._view, other._view
        if not a or not b:
            return Polynomial.zero(self.mode)
        return self._like(_mul_ints(a, _nonzero(b), len(a) + len(b) - 1), da * db)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift requires k >= 0")
        nums, d = self._view
        return self._like([0] * k + nums, d)

    def truncate(self, max_degree: int) -> "Polynomial":
        nums, d = self._view
        return self._like(nums[: max_degree + 1], d)

    def derivative(self, times: int = 1) -> "Polynomial":
        p = self
        for _ in range(times):
            nums, d = p._view
            p = p._like([i * x for i, x in enumerate(nums)][1:], d)
        return p


def poly_from_series(f: TruncatedSeries) -> Polynomial:
    """The polynomial truncation underlying a series (coefficients as-is)."""
    return Polynomial._from_view(*f.int_view(), f.mode)
