"""Exact bivariate residual for the two-variable convolution identities.

Bivariate polynomials are dicts mapping (x-power, y-power) to a scalar;
zero coefficients are dropped so that equality is plain dict equality.
"""

from __future__ import annotations

import math

from .polynomials import Polynomial


def binomial_convolution_residual(p: Polynomial, a, b, n: int) -> dict:
    """p(x + y) - sum_k binom(n, k) a(k)(x) b(n - k)(y), where ``a`` and
    ``b`` map an index to its polynomial; zero for a sequence of binomial
    type (a = b) or a cross-sequence pair."""
    out: dict = {}
    for m, c in p.terms():
        for i in range(m + 1):
            out[(i, m - i)] = out.get((i, m - i), 0) + c * math.comb(m, i)
    for k in range(n + 1):
        px = a(k).scale(math.comb(n, k))
        py = b(n - k).terms()
        for i, u in px.terms():
            for j, v in py:
                out[(i, j)] = out.get((i, j), 0) - u * v
    return {k: v for k, v in out.items() if v != 0}
