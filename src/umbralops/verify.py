"""Identity verification suites over the fixed corpus.

A per-case suite takes one corpus entry, its name and its UmbralSpec; a
corpus-wide suite takes every (name, spec) case with the order and the seed.
Each returns a list of report items, all written by one builder
(``umbral._check_item``) with their keys in one order: the suite, the
identity being checked, the case (corpus entry or parameter point), the
exactness window on which it was certified (none for the two bivariate
Laguerre identities), a pass/fail status, and the first discrepancy when one
exists.  Identity failures are report content, never exceptions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .corpus import load_corpus, random_generators
from .laguerre import (
    _alpha_free_factor,
    _cross_sequence_report,
    _genfun_report,
    _ode_residual,
    degenerate_laguerre_explicit,
    frac_laguerre,
    laguerre_delta_series,
    laguerre_generator,
    laguerre_operator_paths,
    laguerre_p0_float_demo,
)
from .operators import (
    NormalForm,
    OperatorMatrix,
    apply_op,
    compose_ops,
    d_op,
    d_power_op,
    diag_op,
    exp_loc_nilpotent,
    first_discrepancy,
    gen_pow,
    identity_op,
    km_operator,
    log_unipotent,
    normal_form,
    nth_pincherle,
    op_add,
    op_from_D_series,
    op_from_normal_form,
    op_from_x_poly,
    op_from_x_series,
    op_scale,
    op_sub,
    pincherle_derivative,
    xD_op,
)
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT
from .series import DEFAULT_ORDER, PreconditionError, TruncatedSeries
from .umbral import (
    CONSTRUCTIONS,
    UmbralSpec,
    _check_item,
    _compare_item,
    _lie_sum,
    _lie_terms,
    coeff_identity_scan,
    duality_check,
    extract_generator_field,
    frac_power,
    genfun_check,
    group_law_checks,
    itlog,
    julia_residual,
    pincherle_ode_residual,
    umbral_bucc,
    umbral_exp_itlog,
    umbral_garsia,
)

SCHEMA_VERSION = 1


def _from_report(suite, case, report):
    """A ``_check_item`` entry placed in a suite and a case, in the one key
    order: suite, identity, case, window, status, first_discrepancy."""
    return {"suite": suite, "identity": report["identity"], "case": case, **report}


def _item(suite, identity, case, window, ok, where=None):
    return _from_report(suite, case, _check_item(identity, window, ok, where))


def _compare(suite, identity, case, lhs, rhs):
    return _from_report(suite, case, _compare_item(identity, lhs, rhs))


def suite_formulas(name, spec):
    base = umbral_garsia(spec).matrix
    return [
        _compare("formulas", f"cross-formula:{cname}", name, base, builder(spec).matrix)
        for cname, builder in CONSTRUCTIONS.items()
        if cname != "garsia"
    ]


def suite_duality(name, spec):
    return [_from_report("duality", name, duality_check(spec))]


def suite_itlog(name, spec):
    if spec.q != 1:
        return []
    v = spec.itlog_series
    U = umbral_exp_itlog(spec)
    window = U.matrix.window
    try:
        extracted_ok = extract_generator_field(U) == v.truncate(window)
    except PreconditionError:
        # the logarithm left the linear row: no field to extract
        extracted_ok = False
    resid = julia_residual(spec.f, v)
    return [
        _item("itlog", "field-extraction", name, window, extracted_ok),
        _item(
            "itlog",
            "julia-equation",
            name,
            resid.order,
            resid.is_zero(),
            None if resid.is_zero() else {"coeff": resid.valuation()},
        ),
    ]


def suite_ode(name, spec):
    resid = pincherle_ode_residual(umbral_bucc(spec))
    return [_item("ode", "derivation-equation", name, resid.window, resid.is_window_zero())]


def suite_genfun(name, spec):
    rep = genfun_check(umbral_bucc(spec), min(8, spec.order - 2))
    return [_from_report("genfun", name, rep)]


_TANGENT_GROUP_PAIRS = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(-1, 1), Fraction(1, 2)),
)


def suite_group(name, spec):
    pairs = _TANGENT_GROUP_PAIRS if spec.q == 1 else ((2, 3),)
    return [
        _from_report("group", f"{name}[s={s},t={t}]", it)
        for s, t in pairs
        for it in group_law_checks(spec, s, t)["items"]
    ]


def suite_coeff(name, spec):
    n_max = min(8, spec.order - 2)
    exponents = (Fraction(1, 2), Fraction(2), Fraction(-1)) if spec.q == 1 else (2, 3)
    items = []
    for s in exponents:
        bad = coeff_identity_scan(spec, s, n_max)
        case = f"{name}[s={s}]"
        items.append(_item("coeff", "fractional-coefficient-identity", case, n_max, bad is None, bad))
    return items


def _random_normal_form(rng, j_max=3, k_max=3, terms=4) -> NormalForm:
    table = {}
    for _ in range(terms):
        j = rng.randint(0, j_max)
        k = rng.randint(0, k_max)
        table[(j, k)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return NormalForm(table)


def _random_poly(rng, deg=3) -> Polynomial:
    return Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])


def suite_kernel(cases, order, seed):
    items = []
    rng = random.Random(0 if seed is None else seed)
    n0 = 6

    # commutator [D, x] = 1 via the derivative rule x' = 1 and D' = 1
    dprime = pincherle_derivative(d_op(n0 + 1))
    one = identity_op(dprime.n_in, dprime.max_out)
    items.append(_compare("kernel", "commutator-D-x", "D", dprime, one))

    # Leibniz rule and the derivation property on seeded sparse operators
    for i in range(25):
        nf = _random_normal_form(rng)
        U = op_from_normal_form(nf, n0 + 6, n0 + 9)
        p = _random_poly(rng)
        P = op_from_x_poly(p, n0)
        lhs = compose_ops(U, P)
        rhs = None
        try:
            for k in range(p.degree + 1):
                Uk = nth_pincherle(U, k)
                pk = p.derivative(k).scale(Fraction(1, math.factorial(k)))
                if pk.is_zero():
                    continue
                # Uk on inputs up to x^n0: its first n0 + 1 columns, the
                # shape of the product Uk 1 with the identity on that range
                head = OperatorMatrix._from_views(
                    Uk._views[: n0 + 1], n0, Uk.max_out, min(n0, Uk.window), Uk.complete, Uk.mode
                )
                term = compose_ops(op_from_x_poly(pk, Uk.max_out), head)
                rhs = term if rhs is None else op_add(rhs, term)
        except AssertionError:
            # the two n-th Pincherle derivative paths disagree
            items.append(_item("kernel", "operator-leibniz-rule", f"random-{i}", lhs.window, False))
            continue
        items.append(_compare("kernel", "operator-leibniz-rule", f"random-{i}", lhs, rhs))

    for i in range(10):
        A = op_from_normal_form(_random_normal_form(rng), n0 + 6, n0 + 9)
        B = op_from_normal_form(_random_normal_form(rng), n0 + 6, n0 + 9)
        lhs = pincherle_derivative(compose_ops(A, B))
        rhs = op_add(
            compose_ops(pincherle_derivative(A), B),
            compose_ops(A, pincherle_derivative(B)),
        )
        items.append(_compare("kernel", "derivative-is-derivation", f"random-{i}", lhs, rhs))

    # both iterated-derivative paths agree (nth_pincherle cross-checks internally)
    try:
        for i in range(5):
            U = op_from_normal_form(_random_normal_form(rng), n0 + 6, n0 + 9)
            nth_pincherle(U, 3)
        items.append(_item("kernel", "iterated-derivative-paths", "random", n0, True))
    except AssertionError:
        items.append(_item("kernel", "iterated-derivative-paths", "random", n0, False))

    # x^n D^n equals the falling factorial of the degree operator
    for n in range(5):
        lhs = compose_ops(op_from_x_poly(Polynomial.monomial(n, 1), n0), d_power_op(n, n0))
        rhs = diag_op([math.perm(m, n) for m in range(n0 + 1)], n0)
        items.append(_compare("kernel", "degree-falling-factorial", f"n={n}", lhs, rhs))

    # exponentiation identity: sum x^n V^n / n! = (e^x)^V for V = f(D) - D
    f = TruncatedSeries([0, 1, 1], order)
    spec = UmbralSpec(f)
    n_max = spec.default_n_max()
    v_series = TruncatedSeries([0, 0, 1], n_max)
    V = op_from_D_series(v_series, n_max)
    exp_x = TruncatedSeries(
        [Fraction(1, math.factorial(k)) for k in range(n_max + 1)], n_max
    )
    eU = op_from_x_series(exp_x, n_max, n_max)
    items.append(
        _compare("kernel", "exponentiation-identity", "f=t+t^2", gen_pow(eU, V), umbral_bucc(spec, n_max).matrix)
    )

    # exp / log inversion on the corpus umbral matrices
    for name, g_spec in cases:
        if g_spec.q != 1:
            continue
        U = umbral_bucc(g_spec).matrix
        back = exp_loc_nilpotent(log_unipotent(U))
        items.append(_compare("kernel", "exp-log-roundtrip", name, U, back))

    # normal-form round trip and the x/D swap on random tables
    for i in range(10):
        nf = _random_normal_form(rng)
        U = op_from_normal_form(nf, n0 + 6, n0 + 9)
        back = normal_form(U, k_max=3, j_max=3)
        ok = back == nf
        items.append(_item("kernel", "normal-form-roundtrip", f"random-{i}", U.window, ok))
        ok2 = nf.l_transform().l_transform() == nf
        items.append(_item("kernel", "swap-involution", f"random-{i}", U.window, ok2))

    # the swap is anti-multiplicative: rebuilt matrices of L(UV) and L(V)L(U)
    for i in range(5):
        nfa = _random_normal_form(rng, terms=2)
        nfb = _random_normal_form(rng, terms=2)
        A = op_from_normal_form(nfa, n0 + 8, n0 + 12)
        B = op_from_normal_form(nfb, n0 + 4, n0 + 8)
        prod_nf = normal_form(compose_ops(A, B), k_max=n0, j_max=n0 + 12)
        lhs = op_from_normal_form(prod_nf.l_transform(), n0, n0 + 12)
        LA = op_from_normal_form(nfa.l_transform(), n0 + 4, n0 + 8)
        LB = op_from_normal_form(nfb.l_transform(), n0 + 8, n0 + 12)
        items.append(_compare("kernel", "swap-anti-multiplicative", f"random-{i}", lhs, compose_ops(LB, LA)))

    # two-sided expansion in x-series and delta-operator series rebuilding
    # the direct construction
    n_max = spec.default_n_max()
    gs = [
        TruncatedSeries([0] * k + [Fraction(1, math.factorial(k))], n_max)
        for k in range(n_max + 1)
    ]
    diff = (spec.f - TruncatedSeries.t(spec.f.order, spec.f.mode)).truncate(n_max)
    hs = [TruncatedSeries.one(n_max)]
    for k in range(n_max):
        hs.append(hs[-1] * diff)
    km = km_operator(gs, hs, d_op(n_max))
    direct = umbral_bucc(spec, n_max).matrix
    items.append(_compare("kernel", "two-sided-expansion", "f=t+t^2", km, direct))

    # placement of the binomial factors matters: search for an operator pair
    # where the two orderings of the generalized power differ
    base = op_from_D_series(TruncatedSeries([1, -1], n0), n0)
    expo = xD_op(n0)
    left = gen_pow(base, expo, term_bound=n0 + 2)
    um1 = op_sub(base, identity_op(n0, n0))
    right = identity_op(n0, n0)
    power = identity_op(n0, n0)
    bino = identity_op(n0, n0)
    for m in range(1, n0 + 3):
        power = compose_ops(power, um1)
        shifted = op_sub(expo, op_scale(identity_op(n0, n0), m - 1))
        bino = op_scale(compose_ops(bino, shifted), Fraction(1, m))
        right = op_add(right, compose_ops(bino, power))
    d = first_discrepancy(left, right)
    items.append(
        _item("kernel", "power-placement-counterexample", "(1-D)^(xD)", n0, d is not None, None)
    )

    return items


def suite_laguerre(cases, order, seed):
    items = []
    for p in (1, 2, 3):
        # every check of this p reads one table of explicit polynomials,
        # rows[alpha][n], built once, and the operator paths of every alpha
        # share one alpha-free factor
        rows = {}
        base = _alpha_free_factor(p, 10)
        for alpha in (-1, 0, 1, 2):
            rows[alpha] = [degenerate_laguerre_explicit(p, n, alpha) for n in range(11)]
            # the field operator lowers degree, so column n of each path is
            # the index-n polynomial
            path1, path2 = laguerre_operator_paths(p, alpha, 10, EXACT, base)
            bad = [n for n, row in enumerate(rows[alpha]) if not path1.col(n) == path2.col(n) == row]
            where = {"n": bad[0]} if bad else None
            ok_ode = all(_ode_residual(F, p, n, alpha).is_zero() for n, F in enumerate(rows[alpha]))
            case = f"p={p},alpha={alpha}"
            items.append(_item("laguerre", "explicit-vs-operator", case, 10, not bad, where))
            items.append(_item("laguerre", "ode-residual", case, 10, ok_ode))
        for alpha, beta in ((1, -1), (0, 2)):
            rep = _cross_sequence_report(rows[alpha + beta][6], rows[alpha], rows[beta], 6)
            items.append(_from_report("laguerre", f"p={p},alpha={alpha},beta={beta}", rep))
        rep = _genfun_report(p, 1, rows[1][:8])
        items.append(_from_report("laguerre", f"p={p},alpha=1", rep))
        # closed-form flow against the general machinery: both times share
        # the field's one set of Lie terms
        v = TruncatedSeries([0] * (p + 1) + [-1], order)
        terms = _lie_terms(v)
        for s in (1, Fraction(1, 2)):
            ok = _lie_sum(terms, Fraction(s), order) == laguerre_generator(p, s, order)
            items.append(_item("laguerre", "flow-closed-form", f"p={p},s={s}", order, ok))
        ok = laguerre_delta_series(p, order - 1) == laguerre_generator(p, 1, order - 1).comp_inverse()
        items.append(_item("laguerre", "delta-series", f"p={p}", order - 1, ok))
        # fractional members against the general fractional power
        spec = UmbralSpec(laguerre_generator(p, 1, order))
        for s in (Fraction(1, 2), 2):
            P = frac_power(spec, s)
            ok = all(
                apply_op(P.matrix, Polynomial.monomial(n, 1)) == frac_laguerre(p, n, s)
                for n in range(min(9, P.matrix.window + 1))
            )
            items.append(_item("laguerre", "fractional-member", f"p={p},s={s}", 8, ok))
    return items


def suite_float(cases, order, seed):
    items = []
    demo = laguerre_p0_float_demo()
    items.append(
        _item(
            "float",
            demo["identity"],
            "f=t/e",
            8,
            demo["status"] == "pass",
            {"max_abs_error": demo["max_abs_error"]},
        )
    )
    f = TruncatedSeries([0.0, 2.0], order, FLOAT)
    v = itlog(f)
    err = max(
        abs(v[n] - (math.log(2.0) if n == 1 else 0.0)) for n in range(order + 1)
    )
    items.append(
        _item("float", "scaling-field", "f=2t", order, err <= 1e-12, {"max_abs_error": err} if err > 1e-12 else None)
    )
    return items


_CORPUS_WIDE = ("kernel", "laguerre", "float")
# Lowest truncation order each suite can run at: kernel's exponentiation
# identity builds the series t^2 at the default window order - 2, and
# laguerre's flow generators are -t^(p+2) for p up to 3.
_MIN_ORDER = {"kernel": 4, "laguerre": 4}
SUITES = {
    "formulas": suite_formulas,
    "duality": suite_duality,
    "itlog": suite_itlog,
    "ode": suite_ode,
    "genfun": suite_genfun,
    "group": suite_group,
    "coeff": suite_coeff,
    "kernel": suite_kernel,
    "laguerre": suite_laguerre,
    "float": suite_float,
}


def run_verify(
    suites="all",
    seed: int | None = None,
    corpus_path: str | None = None,
    order: int = DEFAULT_ORDER,
) -> dict:
    """Run the requested suites and assemble the versioned report."""
    if suites == "all":
        suites = SUITES
    elif isinstance(suites, str):
        suites = [s.strip() for s in suites.split(",") if s.strip()]
    names = list(dict.fromkeys(suites))
    if not names:
        raise ValueError("no suite selected")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name}")
        if order < _MIN_ORDER.get(name, 0):
            raise ValueError(f"suite {name} needs order >= {_MIN_ORDER[name]}, got {order}")
    corpus = load_corpus(corpus_path, order)
    if seed is not None:
        corpus = corpus + random_generators(seed, count=3, order=order)
    # every generator is checked here, whichever suites run, and its spec is
    # shared so each derived series is computed once per generator
    cases = [(name, UmbralSpec(f)) for name, f in corpus]
    items = []
    for name in names:
        fn = SUITES[name]
        if name in _CORPUS_WIDE:
            items.extend(fn(cases, order, seed))
        else:
            for case in cases:
                items.extend(fn(*case))
    items.sort(key=lambda it: (it["suite"], it["identity"], it["case"]))
    passed = all(it["status"] == "exact-pass" for it in items)
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": names,
        "order": order,
        "seed": seed,
        "passed": passed,
        "items": items,
    }
