"""Command-line front end: construct, compare, tabulate, and verify.

Exit codes: 0 success / all identities pass, 1 identity failure or a failed
internal cross-check, 2 usage, parse, precondition or file error, or a float
result out of range.  Rationals cross the boundary as "num/den" strings in
exact mode; generator series are given as tail coefficients "c1,c2,..." of
t^1, t^2, ... (the constant term is always zero).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .laguerre import (
    _ode_residual,
    degenerate_laguerre_explicit,
    frac_laguerre,
    laguerre_operator_paths,
)
from .operators import column_discrepancy, first_discrepancy
from .polynomials import Polynomial
from .scalars import _ZEROS, EXACT, FLOAT, format_scalar, parse_scalar
from .series import DEFAULT_ORDER, PreconditionError, TruncatedSeries, series_from_tail
from .umbral import (
    CONSTRUCTIONS,
    UmbralSpec,
    _col_coeff,
    fractional_iterate,
    itlog,
)
from .verify import SUITES, run_verify


class UsageError(ValueError):
    pass


def _order_default() -> int:
    env = os.environ.get("UMBRAL_ORDER")
    if env is None:
        return DEFAULT_ORDER
    try:
        order = int(env)
    except ValueError as exc:
        raise UsageError(f"UMBRAL_ORDER must be an integer, got {env!r}") from exc
    if order < 2:
        raise UsageError("UMBRAL_ORDER must be >= 2")
    return order


def _parse_tail(text: str, order: int, mode: str) -> TruncatedSeries:
    parts = [p.strip() for p in text.split(",")]
    tail = []
    for i, part in enumerate(parts):
        if not part:
            raise UsageError(f"empty coefficient at position {i + 1} in --f")
        try:
            tail.append(parse_scalar(part, mode))
        except ValueError as exc:
            raise UsageError(f"bad coefficient at position {i + 1}: {exc}") from exc
    if len(tail) > order:
        raise UsageError(
            f"{len(tail)} coefficients exceed the truncation order {order}"
        )
    return series_from_tail(tail, order, mode)


def _text(c) -> str:
    """An exact result value as text.  One whose numerator or denominator
    has more digits than Python converts to text is refused (exit 2) in the
    CLI's words; the interpreter's limit stays as it is."""
    try:
        return format_scalar(c)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise UsageError(f"a result has more than {limit} digits to print; try a lower --order") from None


def _cell(c):
    """A result value as JSON; a float result that overflowed to inf or nan
    is out of range (exit 2) rather than printed."""
    if isinstance(c, float):
        if not math.isfinite(c):
            raise OverflowError(f"float result out of range: {c!r}")
        return c
    return _text(Fraction(c))


def _series_row(f: TruncatedSeries):
    return [_cell(c) for c in f]


def _poly_text(coeffs: tuple) -> str:
    if not coeffs:
        return "0"
    parts = []
    for k, c in reversed(list(enumerate(coeffs))):
        if c == 0:
            continue
        if k == 0:
            parts.append(_text(c))
        else:
            mono = "x" if k == 1 else f"x^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_text(c)}*{mono}")
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _poly_table(label: str, polys):
    """JSON rows, pretty lines and CSV rows of a table whose row i is the
    degree-i polynomial ``polys[i]``, printed as ``<label>_i``."""
    rows, pretty, csv_rows = [], [], []
    for i, poly in enumerate(polys):
        coeffs = poly.coeffs
        row = coeffs[: i + 1] + (_ZEROS[poly.mode],) * (i + 1 - len(coeffs))
        rows.append([_cell(c) for c in row])
        pretty.append(f"{label}_{i} = {_poly_text(coeffs)}")
        csv_rows.extend([i, k, _text(c)] for k, c in enumerate(row))
    return rows, pretty, csv_rows


def _emit(payload: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv output is not available for this command")
        for row in csv_rows:
            print(",".join(str(cell) for cell in row))
    else:
        for line in payload.get("pretty", []):
            print(line)


def cmd_series(args) -> int:
    order = args.order
    mode = args.mode
    f = _parse_tail(args.f, order, mode)
    if args.action == "itlog":
        out = itlog(f)
    elif args.action == "invert":
        out = UmbralSpec(f).f_inverse
    elif args.action == "iterate":
        if args.s is None:
            raise UsageError("iterate requires --s")
        out = fractional_iterate(f, parse_scalar(args.s, mode))
    elif args.action == "compose":
        if args.g is None:
            raise UsageError("compose requires --g")
        g = _parse_tail(args.g, order, mode)
        out = f.compose(g)
    else:
        raise UsageError(f"unknown series action {args.action!r}")
    row = _series_row(out)
    payload = {
        "action": args.action,
        "series": {"order": out.order, "coeffs": row},
        "pretty": [f"order {out.order}: " + ", ".join(map(str, row))],
    }
    _emit(payload, args.format, csv_rows=[row])
    return 0


def cmd_umbral(args) -> int:
    order = args.order
    mode = args.mode
    f = _parse_tail(args.f, order, mode)
    spec = UmbralSpec(f)
    if args.formulas == "all":
        names = list(CONSTRUCTIONS)
    else:
        names = [n.strip() for n in args.formulas.split(",") if n.strip()]
    for name in names:
        if name not in CONSTRUCTIONS:
            raise UsageError(f"unknown formula {name!r}; choose from {list(CONSTRUCTIONS)}")
    if not names:
        raise UsageError("--formulas must select at least one construction")
    n = args.n if args.n is not None else spec.default_n_max()
    if n < 0:
        raise UsageError("--n must be >= 0")
    if n > spec.default_n_max():
        raise UsageError(
            f"--n {n} exceeds the certified window {spec.default_n_max()} at order {order}"
        )
    ops = {name: CONSTRUCTIONS[name](spec, spec.default_n_max()) for name in names}
    base_name = names[0]
    base = ops[base_name]
    agreement = {name: _col_coeff(first_discrepancy(base.matrix, ops[name].matrix)) for name in names[1:]}
    table, pretty, csv_rows = _poly_table("phi", [base.matrix.col(i) for i in range(n + 1)])
    if any(d is not None for d in agreement.values()):
        pretty.append("DISAGREEMENT: " + json.dumps(agreement))
    elif len(names) > 1:
        pretty.append(
            f"all of {', '.join(names)} agree on window {base.matrix.window}"
        )
    payload = {
        "formula": base_name,
        "window": base.matrix.window,
        "columns": table,
        "agreement": agreement,
        "pretty": pretty,
    }
    _emit(payload, args.format, csv_rows=csv_rows)
    return 0 if all(d is None for d in agreement.values()) else 1


def cmd_laguerre(args) -> int:
    mode = args.mode
    if args.p < 1:
        raise UsageError(
            "laguerre requires --p >= 1 (the p = 0 member is a float scaling demo, "
            "run by verify --suite float)"
        )
    n = args.n
    if n < 0:
        raise UsageError("--n must be >= 0")
    alpha = parse_scalar(args.alpha, mode)
    s = parse_scalar(args.s, mode)
    if args.check and s != 1:
        raise UsageError(
            "--check covers the s = 1 family only; "
            "verify --suite laguerre checks the fractional members"
        )
    if s != 1 and alpha != 0:
        raise UsageError("fractional --s requires --alpha 0")
    polys = []
    check_fail = False
    if args.check:
        # the field operator lowers degree, so column i of each path is the
        # index-i polynomial
        path1, path2 = laguerre_operator_paths(args.p, alpha, n, mode)
        if first_discrepancy(path1, path2) is not None:
            raise AssertionError("the two operator constructions disagree")
    for i in range(n + 1):
        if s == 1:
            poly = degenerate_laguerre_explicit(args.p, i, alpha, mode)
            if args.check:
                other = path2.col(i)
                resid = _ode_residual(poly, args.p, i, alpha)
                biggest = max((abs(c) for c in poly), default=0)
                if (
                    column_discrepancy(poly, other) is not None
                    or column_discrepancy(resid, Polynomial.zero(mode), biggest) is not None
                ):
                    check_fail = True
        else:
            poly = frac_laguerre(args.p, i, s, mode)
        polys.append(poly)
    rows, pretty, csv_rows = _poly_table("L", polys)
    if args.check:
        pretty.append("identity grid: " + ("FAIL" if check_fail else "pass"))
    payload = {
        "p": args.p,
        "alpha": _cell(alpha),
        "s": _cell(s),
        "rows": rows,
        "pretty": pretty,
    }
    if args.check:
        payload["check"] = "fail" if check_fail else "pass"
    _emit(payload, args.format, csv_rows=csv_rows)
    return 1 if check_fail else 0


def cmd_verify(args) -> int:
    if args.mode == FLOAT:
        raise UsageError("verify runs the exact corpus; its float suite needs no flag: use --suite float")
    report = run_verify(
        suites=args.suite,
        seed=args.seed,
        corpus_path=args.corpus,
        order=args.order,
    )
    # every item has umbral._check_item's keys; the laguerre cross-sequence
    # and generating-function items certify no window and carry no window key
    if args.format == "pretty":
        for item in report["items"]:
            status = item["status"]
            line = f"[{status:>10}] {item['suite']}/{item['identity']} :: {item['case']}"
            if item.get("window") is not None:
                line += f" (window {item['window']})"
            if item["first_discrepancy"] is not None:
                line += f" first discrepancy {item['first_discrepancy']}"
            print(line)
        print(f"{'PASS' if report['passed'] else 'FAIL'}: {len(report['items'])} checks")
    elif args.format == "csv":
        for item in report["items"]:
            print(
                ",".join(
                    str(x)
                    for x in (item["suite"], item["identity"], item["case"], item.get("window", ""), item["status"])
                )
            )
    else:
        print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``umbral`` command line, which the caller may
    change without affecting ``main``."""
    parser = argparse.ArgumentParser(
        prog="umbral",
        description="Exact operational-calculus engine for umbral operators.",
    )
    parser.add_argument("--order", type=int, default=None, help="truncation order (default 12, or UMBRAL_ORDER)")
    parser.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    parser.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=argparse.SUPPRESS)
    common.add_argument("--mode", choices=[EXACT, FLOAT], default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["json", "csv", "pretty"], default=argparse.SUPPRESS)

    p_series = sub.add_parser("series", help="series-level operations", parents=[common])
    p_series.add_argument("action", choices=["itlog", "invert", "iterate", "compose"])
    p_series.add_argument("--f", required=True, help="tail coefficients c1,c2,... of the series")
    p_series.add_argument("--g", help="second series for compose")
    p_series.add_argument("--s", help="iteration exponent for iterate")
    p_series.set_defaults(fn=cmd_series)

    p_umbral = sub.add_parser("umbral", help="umbral operator tables and cross-formula diffs", parents=[common])
    p_umbral.add_argument("--f", required=True, help="tail coefficients of the generator")
    p_umbral.add_argument("--n", type=int, default=None, help="largest polynomial index to print")
    p_umbral.add_argument("--formulas", default="garsia", help="comma list or 'all'")
    p_umbral.set_defaults(fn=cmd_umbral)

    p_lag = sub.add_parser("laguerre", help="degenerate Laguerre tables", parents=[common])
    p_lag.add_argument("--p", type=int, required=True)
    p_lag.add_argument("--alpha", default="0")
    p_lag.add_argument("--s", default="1")
    p_lag.add_argument("--n", type=int, default=6)
    p_lag.add_argument("--check", action="store_true", help="also run the identity grid on each row")
    p_lag.set_defaults(fn=cmd_laguerre)

    p_verify = sub.add_parser("verify", help="run identity suites", parents=[common])
    p_verify.add_argument("--suite", default="all", help=f"'all' or comma list from {sorted(SUITES)}")
    p_verify.add_argument("--seed", type=int, default=None, help="adds a deterministic random extension corpus")
    p_verify.add_argument("--corpus", default=None, help="path to an alternative corpus manifest")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


# main's one parser per process, built on its first call rather than at
# import: parsing leaves it unchanged, and building it costs more than most
# commands.  Its set_defaults bound the cmd_* functions as they were then.
_parser = functools.cache(build_parser)


# argparse reads "-1,1" or "-1/2" after a flag as another flag; these options
# take scalar values, so such a token is joined to its flag as --flag=value
_SCALAR_FLAGS = ("--f", "--g", "--s", "--alpha")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _SCALAR_FLAGS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run the ``umbral`` command line on ``argv`` (default ``sys.argv[1:]``)
    and return its exit code, as listed in the module docstring.

    Bad input is reported on stderr with exit code 2, never raised, so main
    may be called repeatedly in one process.  It builds its parser once, on
    the first call; the ``UMBRAL_ORDER`` default and ``sys.stdout`` and
    ``sys.stderr`` are read on every call.
    """
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.order is None:
            args.order = _order_default()
        if args.order < 2:
            raise UsageError("--order must be >= 2")
        return args.fn(args)
    except (UsageError, PreconditionError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
