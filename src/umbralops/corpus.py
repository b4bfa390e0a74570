"""The fixed generator corpus used by the verify suites and tests.

The manifest is a JSON list of {"name", "coeffs"} entries where coeffs are
the tail coefficients of t^1, t^2, ... as "num/den" strings (the constant
term is always zero for a generator).  A seeded randomized extension corpus
can be appended for broader property coverage.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

from .scalars import parse_scalar
from .series import DEFAULT_ORDER, series_from_tail


def load_corpus(path: str | None = None, order: int = DEFAULT_ORDER):
    """Load the corpus manifest as a list of (name, TruncatedSeries) pairs.

    The built-in manifest (``path`` None) is truncated to ``order``: the
    truncation of a generator is the same generator at a lower order.  A
    user manifest is not: it raises ValueError unless it is valid JSON
    holding a non-empty list of {"name": str, "coeffs": [str, ...]} objects
    whose coefficients parse and fit the order; the message names the entry
    that breaks a rule.
    """
    if path is None:
        text = resources.files("umbralops").joinpath("data/corpus.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus manifest is not valid JSON: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise ValueError("corpus manifest must be a non-empty JSON list")
    out = []
    for i, entry in enumerate(entries, 1):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValueError(f'corpus entry {i} is not an object with a string "name"')
        where = f"corpus entry {i} ({entry['name']!r})"
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs or not all(isinstance(c, str) for c in coeffs):
            raise ValueError(f'{where}: "coeffs" must be a non-empty list of strings')
        if path is None:
            coeffs = coeffs[:order]
        try:
            f = series_from_tail([parse_scalar(c) for c in coeffs], order)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        out.append((entry["name"], f))
    return out


def random_generators(seed: int, count: int = 5, order: int = DEFAULT_ORDER):
    """Deterministic extension corpus: sparse exact generators with small
    rational coefficients and multiplier 1."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tail = [Fraction(1)]
        for n in range(2, order + 1):
            if rng.random() < 0.4:
                tail.append(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            else:
                tail.append(Fraction(0))
        out.append((f"random-{seed}-{i}", series_from_tail(tail, order)))
    return out
