"""The benchmark's three workloads: seeded request lists and their output checks.

A request is one call into the public API of ``umbralops``.  ``Request.run``
is the timed part; ``Request.check`` runs afterwards, untimed, and classifies
the outcome as ``"ok"``, ``"known-defect"`` (a probe that still fails the way
the recorded defect does) or ``"fail"``.

Checks are against ``reference.json`` where a reference applies (the default
seed at full size, and the seed-independent CLI commands always); otherwise
they fall back to the program's own zero-tolerance checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import umbralops
from umbralops import (
    CONSTRUCTIONS,
    TruncatedSeries,
    UmbralSpec,
    first_discrepancy,
    frac_power,
    fractional_iterate,
    julia_residual,
    load_corpus,
    random_generators,
    run_verify,
    series_from_tail,
)
from umbralops import cli

DEFAULT_SEED = 7
REFERENCE_PATH = Path(__file__).with_name("reference.json")

VERIFY_ORDER = umbralops.DEFAULT_ORDER
CORPUS_SUITES = ("formulas", "duality", "itlog", "ode", "genfun", "group", "coeff")
CORPUS_WIDE_SUITES = ("kernel", "laguerre", "float")

# The generator named in the ROADMAP baseline: t + t^2 - t^3/3 + 2t^4.
ROADMAP_TAIL = (Fraction(1), Fraction(1), Fraction(-1, 3), Fraction(2))

# Every CLI command of README.md except `verify --suite all` (verify-default
# covers it).  These do not depend on the seed.
README_COMMANDS = (
    ("series", "invert", "--f", "1,1"),
    ("series", "itlog", "--f", "1,1", "--format", "json"),
    ("series", "iterate", "--f", "1,1", "--s", "1/2"),
    ("series", "compose", "--f", "1,1", "--g", "1,-1"),
    ("umbral", "--f", "1,-1,1,-1,1,-1,1,-1,1,-1,1,-1", "--n", "4", "--formulas", "all"),
    ("laguerre", "--p", "2", "--n", "5", "--alpha", "1", "--check"),
    ("laguerre", "--p", "1", "--n", "4", "--s", "1/2"),
    ("verify", "--suite", "formulas,duality"),
)

# Known-defect probes (ROADMAP open item 5): both fail at the commit that
# defined this benchmark.  A probe that still fails exactly as recorded is
# "known-defect"; one that passes is "ok"; anything else is "fail".
DEFECT_PROBES = (
    ("verify", "--suite", "laguerre"),  # 5(i): KeyError 'window' in pretty format
    ("umbral", "--mode", "float", "--f", "1,0.5", "--formulas", "all"),  # 5(ii): exit 1
)

# The seeded generators of deep-o28 and cli-readme: t + c2 t^2 + ... + c8 t^8
# with every ci nonzero, drawn with the coefficient law of random_generators
# (numerator +-1..3, denominator 1..4).  random_generators' own members cost
# 0.3 s to 5 s each at order 28, depending mostly on whether c2 is zero, and
# reorder the cli requests by cost; a fixed support keeps the work of every
# seed of the same shape.
SEEDED_DEGREE = 8


@dataclass(frozen=True)
class Size:
    """One benchmark size; the smoke size shrinks every workload."""

    builtin: int | None = None  # built-in generators in verify-default (None: all)
    verify_random: int = 3
    deep_order: int = 28
    deep_random: int = 3
    full: bool = True


FULL = Size()
SMOKE = Size(builtin=2, verify_random=1, deep_order=12, deep_random=1, full=False)
SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass
class Request:
    key: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str]


# -- digests ------------------------------------------------------------


def _strip_timing(obj):
    """Drop timing fields (``*_ms``, ``elapsed*``) so digests ignore them."""
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if not (k.endswith("_ms") or k.startswith("elapsed"))
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def items_digest(items) -> str:
    stripped = [_strip_timing(it) for it in items]
    stripped.sort(key=lambda it: (it["suite"], it["identity"], it["case"]))
    return digest(stripped)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _tail_strings(f: TruncatedSeries) -> list[str]:
    return [str(c) for c in f.coeffs[1:]]


# -- verify-default -----------------------------------------------------


def build_verify_default(corpus, seed: int, workdir: Path, size: Size, ref: dict | None):
    order = VERIFY_ORDER
    corpus = corpus[: size.builtin] + random_generators(seed, size.verify_random, order)
    workdir.mkdir(parents=True, exist_ok=True)
    manifests = []
    for name, f in corpus:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps([{"name": name, "coeffs": _tail_strings(f)}]))
        manifests.append((name, str(path)))
    expected = ref["verify-default"]["requests"] if ref else None

    def check(key):
        def _check(report, exc):
            if exc is not None:
                return "fail"
            if not all(it["status"] == "exact-pass" for it in report["items"]):
                return "fail"
            if expected is not None and items_digest(report["items"]) != expected[key]:
                return "fail"
            return "ok"

        return _check

    requests = []
    for suite in CORPUS_SUITES:
        for name, path in manifests:
            key = f"{suite}/{name}"
            run = lambda suite=suite, path=path: run_verify(suite, corpus_path=path, order=order)
            requests.append(Request(key, run, check(key)))
    for suite in CORPUS_WIDE_SUITES:
        key = f"{suite}/*"
        run = lambda suite=suite: run_verify(suite, seed, order=order)
        requests.append(Request(key, run, check(key)))
    return requests


def merged_check(outputs, ref: dict | None) -> bool:
    """The per-request reports, merged and sorted, equal ``run_verify("all")``."""
    items = [it for report in outputs if report is not None for it in report["items"]]
    if ref is None:
        return all(it["status"] == "exact-pass" for it in items)
    return items_digest(items) == ref["verify-default"]["all"]


# -- deep-o28 -----------------------------------------------------------


def seeded_generators(seed: int, count: int, order: int):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tail = [Fraction(1)] + [
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            for _ in range(2, SEEDED_DEGREE + 1)
        ]
        out.append((f"dense-{seed}-{i}", series_from_tail(tail, order)))
    return out


def deep_generators(seed: int, size: Size):
    roadmap = ("roadmap", series_from_tail(list(ROADMAP_TAIL), size.deep_order))
    return [roadmap] + seeded_generators(seed, size.deep_random, size.deep_order)


def deep_request(f: TruncatedSeries) -> dict:
    spec = UmbralSpec(f)
    ops = {name: build(spec) for name, build in CONSTRUCTIONS.items()}
    base = ops["garsia"].matrix
    agree = all(first_discrepancy(base, op.matrix) is None for op in ops.values())
    half = fractional_iterate(f, Fraction(1, 2))
    root = frac_power(spec, Fraction(1, 2))
    julia_zero = julia_residual(f, spec.itlog_series).is_zero()
    return {
        "agree": agree,
        "julia_zero": julia_zero,
        "results": (base, spec.itlog_series, half, root.matrix),
    }


def deep_digest(out: dict) -> str:
    return digest([r.to_json() for r in out["results"]])


def build_deep(seed: int, size: Size, ref: dict | None):
    expected = ref["deep-o28"]["requests"] if ref else None

    def check(key):
        def _check(out, exc):
            if exc is not None or not (out["agree"] and out["julia_zero"]):
                return "fail"
            if expected is not None and deep_digest(out) != expected[key]:
                return "fail"
            return "ok"

        return _check

    return [
        Request(name, lambda f=f: deep_request(f), check(name))
        for name, f in deep_generators(seed, size)
    ]


# -- cli-readme ---------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    code: int | None
    stdout: str
    error: str | None

    def digest(self) -> str:
        return digest({"code": self.code, "stdout": self.stdout, "error": self.error})


def run_cli(argv) -> CliOutcome:
    """``umbralops.cli.main(argv)`` with stdout and stderr captured; an
    exception escaping ``main`` is part of the outcome."""
    out = io.StringIO()
    err = io.StringIO()
    code = None
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an escaping exception is the outcome under test
            error = f"{type(exc).__name__}: {exc}"
    return CliOutcome(code, out.getvalue(), error)


def _parse_pretty_series(stdout: str, order: int) -> TruncatedSeries:
    _, _, body = stdout.strip().partition(": ")
    return TruncatedSeries([Fraction(c) for c in body.split(", ")], order)


def _seeded_checks(f: TruncatedSeries, g: TruncatedSeries):
    """Zero-tolerance checks of the seeded series commands' printed results."""
    order = f.order
    t = TruncatedSeries.t(order)
    return {
        "invert": lambda h: f.compose(h) == t,
        "itlog": lambda v: julia_residual(f, v).is_zero(),
        "iterate": lambda h: h.compose(h) == f,
        "compose": lambda h: h == f.compose(g),
    }


def cli_commands(seed: int):
    """(key, argv, probe) for every command, in request order."""
    _, f = seeded_generators(seed, 1, umbralops.DEFAULT_ORDER)[0]
    tail = ",".join(_tail_strings(f))
    cmds = [(" ".join(argv), argv, False) for argv in README_COMMANDS]
    seeded = [
        ("series", "itlog", "--f", tail),
        ("series", "invert", "--f", tail),
        ("series", "iterate", "--f", tail, "--s", "1/2"),
        ("series", "compose", "--f", tail, "--g", "1,-1"),
        ("umbral", "--f", tail, "--formulas", "all"),
    ]
    cmds += [(f"seeded:{' '.join(a[:2])}", a, False) for a in seeded]
    cmds += [(" ".join(argv), argv, True) for argv in DEFECT_PROBES]
    return f, cmds


def build_cli(seed: int, reference: dict, ref: dict | None):
    f, cmds = cli_commands(seed)
    g = series_from_tail([Fraction(1), Fraction(-1)], f.order)
    semantic = _seeded_checks(f, g)
    fixed_ref = reference["cli-readme"]["requests"]
    seeded_ref = ref["cli-readme"]["requests"] if ref else {}

    def check(key, argv, probe):
        def _check(out, exc):
            if exc is not None:
                return "fail"
            want = fixed_ref.get(key) if not key.startswith("seeded:") else seeded_ref.get(key)
            if probe:
                if out.error is None and out.code == 0:
                    return "ok"
                return "known-defect" if want is not None and out.digest() == want else "fail"
            if out.error is not None or out.code != 0:
                return "fail"
            if want is not None:
                return "ok" if out.digest() == want else "fail"
            if argv[0] == "series":
                return "ok" if semantic[argv[1]](_parse_pretty_series(out.stdout, f.order)) else "fail"
            return "ok"

        return _check

    return [
        Request(key, lambda argv=argv: run_cli(argv), check(key, argv, probe))
        for key, argv, probe in cmds
    ]


# -- entry point --------------------------------------------------------

WORKLOADS = ("verify-default", "deep-o28", "cli-readme")


def build(workload: str, seed: int, workdir: Path, size: Size = FULL):
    """Load the corpus and build the workload's seeded request list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    reference = load_reference()
    ref = reference if size.full and seed == DEFAULT_SEED else None
    corpus = load_corpus(order=VERIFY_ORDER)
    if workload == "verify-default":
        return build_verify_default(corpus, seed, workdir, size, ref)
    if workload == "deep-o28":
        return build_deep(seed, size, ref)
    return build_cli(seed, reference, ref)

