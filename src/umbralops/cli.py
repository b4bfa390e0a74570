"""Command-line front end: construct, compare, tabulate, and verify.

Exit codes: 0 success / all identities pass, 1 identity failure or a failed
internal cross-check, 2 usage, parse, precondition or file error.  Rationals
cross the boundary as "num/den" strings in exact mode; generator series are
given as tail coefficients "c1,c2,..." of t^1, t^2, ... (the constant term is
always zero).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .laguerre import (
    degenerate_laguerre_explicit,
    degenerate_laguerre_operator,
    frac_laguerre,
    laguerre_ode_residual,
)
from .operators import column_discrepancy, first_discrepancy
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, format_scalar, parse_scalar, scalar_to_json
from .series import DEFAULT_ORDER, PreconditionError, TruncatedSeries, series_from_tail
from .umbral import (
    CONSTRUCTIONS,
    UmbralSpec,
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


def _series_row(f: TruncatedSeries):
    return [scalar_to_json(c) for c in f.coeffs]


def _poly_text(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        if k == 0:
            parts.append(format_scalar(c))
        else:
            mono = "x" if k == 1 else f"x^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{format_scalar(c)}*{mono}")
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


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
        out = f.comp_inverse()
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
    payload = {
        "action": args.action,
        "series": {"order": out.order, "coeffs": _series_row(out)},
        "pretty": [f"order {out.order}: " + ", ".join(map(str, _series_row(out)))],
    }
    _emit(payload, args.format, csv_rows=[_series_row(out)])
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
    if n > spec.default_n_max():
        raise UsageError(
            f"--n {n} exceeds the certified window {spec.default_n_max()} at order {order}"
        )
    ops = {name: CONSTRUCTIONS[name](spec, spec.default_n_max()) for name in names}
    base_name = names[0]
    base = ops[base_name]
    diffs = {}
    for name in names[1:]:
        diffs[name] = first_discrepancy(base.matrix, ops[name].matrix)
    table = []
    pretty = []
    csv_rows = []
    for i in range(n + 1):
        col = base.matrix.col(i)
        table.append([scalar_to_json(col.coeff(k)) for k in range(i + 1)])
        pretty.append(f"phi_{i} = {_poly_text(col)}")
        for k in range(i + 1):
            csv_rows.append([i, k, format_scalar(col.coeff(k))])
    agreement = {
        name: None if d is None else {"col": d[0], "coeff": d[1]}
        for name, d in diffs.items()
    }
    if any(d is not None for d in diffs.values()):
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
    return 0 if all(d is None for d in diffs.values()) else 1


def cmd_laguerre(args) -> int:
    mode = args.mode
    if args.p < 1:
        raise UsageError(
            "laguerre requires --p >= 1 (the p = 0 member is a float scaling demo, "
            "run by verify --suite float)"
        )
    alpha = parse_scalar(args.alpha, mode)
    s = parse_scalar(args.s, mode)
    n = args.n
    rows = []
    pretty = []
    csv_rows = []
    check_fail = False
    for i in range(n + 1):
        if s == 1:
            poly = degenerate_laguerre_explicit(args.p, i, alpha, mode)
            if args.check:
                other = degenerate_laguerre_operator(args.p, i, alpha, mode)
                resid = laguerre_ode_residual(args.p, i, alpha, mode)
                biggest = max((abs(c) for c in poly.coeffs), default=0)
                if (
                    column_discrepancy(poly, other) is not None
                    or column_discrepancy(resid, Polynomial.zero(mode), biggest) is not None
                ):
                    check_fail = True
        else:
            if alpha != 0:
                raise UsageError("fractional --s requires --alpha 0")
            poly = frac_laguerre(args.p, i, s, mode)
        rows.append([scalar_to_json(poly.coeff(k)) for k in range(i + 1)])
        pretty.append(f"L_{i} = {_poly_text(poly)}")
        for k in range(i + 1):
            csv_rows.append([i, k, format_scalar(poly.coeff(k))])
    if args.check:
        pretty.append("identity grid: " + ("FAIL" if check_fail else "pass"))
    payload = {
        "p": args.p,
        "alpha": scalar_to_json(alpha),
        "s": scalar_to_json(s),
        "rows": rows,
        "pretty": pretty,
    }
    if args.check:
        payload["check"] = "fail" if check_fail else "pass"
    _emit(payload, args.format, csv_rows=csv_rows)
    return 1 if check_fail else 0


def cmd_verify(args) -> int:
    report = run_verify(
        suites=args.suite,
        seed=args.seed,
        corpus_path=args.corpus,
        order=args.order,
    )
    # laguerre cross-sequence and generating-function items carry no window
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
    parser = build_parser()
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
    except (UsageError, PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
