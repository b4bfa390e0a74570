"""Minimal exact bivariate polynomial helpers for two-variable identity checks.

Bivariate polynomials are dicts mapping (x-power, y-power) to a scalar;
zero coefficients are dropped so that equality is plain dict equality.
"""

from __future__ import annotations

import math

from .polynomials import Polynomial


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v != 0}


def biv_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return _clean(out)


def expand_in_x_plus_y(p: Polynomial) -> dict:
    """p(x + y) as a bivariate polynomial."""
    out: dict = {}
    for m, c in enumerate(p.coeffs):
        if c == 0:
            continue
        for i in range(m + 1):
            key = (i, m - i)
            out[key] = out.get(key, 0) + c * math.comb(m, i)
    return _clean(out)


def product_x_y(px: Polynomial, py: Polynomial) -> dict:
    """px(x) * py(y)."""
    out: dict = {}
    for i, a in enumerate(px.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(py.coeffs):
            if b != 0:
                out[(i, j)] = out.get((i, j), 0) + a * b
    return _clean(out)
