"""Helpers shared by the test modules (imported as ``helpers``: pytest puts
this directory on ``sys.path`` for the test files in it)."""

import math
import random
import shlex
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path

import pytest

from umbralops import operators, series, umbral
from umbralops.corpus import load_corpus, random_generators
from umbralops.operators import (
    FLOAT_COLUMN_TOL,
    OperatorMatrix,
    WindowUnderflowError,
    _sum_shape,
    compose_ops,
    exp_loc_nilpotent,
    op_add,
    op_from_D_series,
    op_from_x_poly,
    op_scale,
    op_sub,
)
from umbralops.polynomials import Polynomial
from umbralops.scalars import (
    EXACT,
    FLOAT,
    _int_pair,
    _mul_ints,
    _nonzero,
    _qbinom_row,
    _reduced,
    coerce,
    common_mode,
    gbinom,
    qbinom,
)
from umbralops.series import PreconditionError, TruncatedSeries, series_from_tail

# the orders of the oracle tests, which compare an integer-view kernel with
# the Fraction loop it replaced
ORACLE_ORDERS = [12, 20, pytest.param(28, marks=pytest.mark.slow)]

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands():
    """The argv after ``umbral`` of every command line in README.md's shell
    blocks, in README order."""
    argvs, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("umbral "):
            argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


def _add_scaled(acc: tuple, a, b, power: tuple, size: int):
    """The first ``size`` entries of acc + (a / b) power for the integer
    views acc = (S, s) and power = (P, e), over lcm(s, b e): the running
    accumulator that rescales the partial sum whenever its lcm grows, one
    call per term.  The oracle for ``scalars._combine``, which takes the lcm
    of all terms once.  Float mode passes ``(c, 1)`` for the scalar."""
    (nums, s), (pnums, e) = acc, power
    den = math.lcm(s, b * e)
    out = nums[:size]
    if den != s:
        out = [x * (den // s) for x in out]
    out += [0] * (min(size, len(pnums)) - len(out))
    m = a * (den // (b * e))
    for i, y in enumerate(pnums[:size]):
        if y:
            out[i] += m * y
    return out, den


def newton_sum_loop(diffs, s, order):
    """sum_m C(s, m) diffs[m] with the weight stepped as a ``Fraction`` and
    the sum kept by ``_add_scaled``, stopping at the first zero weight: the
    oracle for ``umbral._newton_sum``, which keeps the weights as integer
    pairs and sums once."""
    size = order + 1
    g, weight = ([0] * size, 1), Fraction(1)
    for m, diff in enumerate(diffs):
        if m:
            weight = weight * (s - m + 1) / m
            if not weight:
                break
        g = _add_scaled(g, weight.numerator, weight.denominator, diff, size)
    return TruncatedSeries._from_view(*g, order, EXACT)


def oracle_generators(order):
    """The corpus and three seeded random generators at ``order``, plus each
    multiplier-1 generator with its multiplier set to 2 and to -1/2."""
    gens = load_corpus(order=order) + random_generators(7, 3, order)
    return gens + [
        (f"{name}*{q}", TruncatedSeries([0, q] + list(f.coeffs[2:]), order))
        for name, f in gens
        if f[1] == 1
        for q in (Fraction(2), Fraction(-1, 2))
    ]


def dense_generators(seed, count, order):
    """``count`` generators t + c2 t^2 + ... + c8 t^8 with every ci nonzero,
    numerator +-1..3 over 1..4: the shape of the benchmark's deep-o28
    generators ``dense-<seed>-<i>``."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tail = [Fraction(1)] + [
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(2, 9)
        ]
        out.append((f"dense-{seed}-{i}", series_from_tail(tail, order)))
    return out


def split_by_multiplier(corpus):
    """Partition (name, series) pairs into multiplier-1 and general lists."""
    tangent, general = [], []
    for name, f in corpus:
        (tangent if f[1] == 1 else general).append((name, f))
    return tangent, general


def in_mode(f, mode):
    """The series f, or its coefficients as floats in float mode."""
    if mode == EXACT:
        return f
    return TruncatedSeries([float(c) for c in f.coeffs], f.order, FLOAT)


def assert_same_op(got, want):
    """Equal shape fields, and equal columns: canonical ``Fraction``s that
    compare equal, or floats with the same bits."""
    assert (got.n_in, got.max_out, got.window, got.complete, got.mode) == (
        want.n_in,
        want.max_out,
        want.window,
        want.complete,
        want.mode,
    )
    assert len(got.cols) == len(want.cols)
    kind = Fraction if got.mode == EXACT else float
    for g, w in zip(got.cols, want.cols):
        assert all(type(c) is kind for c in g.coeffs)
        assert not g.coeffs or g.coeffs[-1] != 0
        if got.mode == EXACT:
            assert g.coeffs == w.coeffs
        else:
            assert [c.hex() for c in g.coeffs] == [c.hex() for c in w.coeffs]


def assert_same_series(got, want):
    """Equal order and mode, and equal coefficients: canonical ``Fraction``s
    that compare equal, or floats with the same bits."""
    assert (got.order, got.mode) == (want.order, want.mode)
    if got.mode == EXACT:
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.coeffs == want.coeffs
    else:
        assert all(type(c) is float for c in got.coeffs)
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs]


def pincherle_loop(U):
    """The Pincherle derivative U x - x U as two operator products with
    x-multiplication matrices: the oracle for the column differences of
    ``operators.pincherle_derivative``."""
    if U.n_in < 1:
        raise WindowUnderflowError("no room for an extra input degree")
    xs = op_from_x_poly(Polynomial.x(U.mode), U.n_in - 1, U.n_in)
    ux = compose_ops(U, xs)
    xbig = op_from_x_poly(Polynomial.x(U.mode), U.max_out, U.max_out + 1)
    xu = compose_ops(xbig, U)
    return op_sub(ux, xu)


def nth_pincherle_explicit_loop(U, n):
    """sum_k C(n, k) (-x)^(n-k) U x^k as operator products, scalings and
    sums: the oracle for ``operators._nth_pincherle_explicit``."""
    acc = None
    for k in range(n + 1):
        xk = op_from_x_poly(Polynomial.monomial(k, 1, U.mode), U.n_in - n, U.n_in)
        mxk = op_from_x_poly(
            Polynomial.monomial(n - k, (-1) ** (n - k), U.mode), U.max_out, U.max_out + n - k
        )
        term = op_scale(compose_ops(mxk, compose_ops(U, xk)), math.comb(n, k))
        acc = term if acc is None else op_add(acc, term)
    return acc


def laguerre_sum_gbinom(p, n, alpha, s, mode):
    """The explicit Laguerre coefficient sum with a fresh ``gbinom`` per
    coefficient: the oracle for ``laguerre._laguerre_sum``."""
    alpha = coerce(alpha, mode)
    s = coerce(s, mode)
    top = (n + alpha) / p
    coeffs = [coerce(0, mode)] * (n + 1)
    for k in range(n // p + 1):
        c = gbinom(top - 1, k) * math.factorial(n) * (-s * p) ** k
        coeffs[n - p * k] = coerce(c, mode) / math.factorial(n - p * k)
    return Polynomial(coeffs, mode)


def laguerre_ode_chain(F, p, n, alpha):
    """x p F^(p+1) + alpha p F^(p) - x F' + n F as a chain of polynomial
    derivatives, scalings, shifts and sums: the oracle for
    ``laguerre._ode_residual``."""
    alpha = coerce(alpha, F.mode)
    out = F.derivative(p + 1).shift(1).scale(p)
    out = out + F.derivative(p).scale(alpha * p)
    out = out - F.derivative(1).shift(1)
    return out + F.scale(n)


def coeff_identity_scan_loop(spec, s, n_max=8):
    """The coefficient identity scan as a loop on ``Fraction``s: each
    coefficient read through ``Polynomial.coeff`` and a fresh ``qbinom`` per
    (m, p).  The oracle for ``umbral.coeff_identity_scan``; it reads
    ``frac_power`` and the bucc power ladder through the module, so a
    patched matrix reaches both."""
    q = spec.q
    s = coerce(s, spec.mode)
    frac = umbral.frac_power(spec, s, n_max).matrix
    powers = umbral._bucc_powers(spec, n_max)
    left = cache(lambda p: qbinom(s, p, q))
    right = cache(lambda m, p: qbinom(m - s, m - p, q))
    one = coerce(1, spec.mode)
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = frac.col(n).coeff(k)
            rhs = coerce(0, spec.mode)
            for p in range(n - k + 1):
                c = powers[p].col(n).coeff(k)
                if c == 0:
                    continue
                term = c * left(p) * right(n - k, p)
                if q == one:
                    qfac = one
                else:
                    expo = (n - p) * (s - p)
                    if expo != int(expo):
                        raise PreconditionError("non-integer q-power needs float mode")
                    qfac = q ** int(expo)
                rhs += term * qfac
            if lhs != rhs:
                return (n, k)
    return None


def op_inverse_loop(U):
    """The inverse of a triangular operator by back-substitution on
    ``Fraction``s (floats in float mode), each column read through
    ``Polynomial.coeff`` and ``terms()``: the oracle for
    ``operators.op_inverse``.  It is exponential in the order on a
    valuation-nondecreasing operator and never returns on one that is not
    triangular."""
    zero = coerce(0, U.mode)
    size = max(U.n_in, U.max_out) + 1
    cols = []
    for n in range(U.n_in + 1):
        # w accumulates the preimage of x^n; r is what is left to reach
        w = [zero] * size
        r = [zero] * size
        r[n] = coerce(1, U.mode)
        d = n
        while True:
            while d >= 0 and not r[d]:
                d -= 1
            if d < 0:
                break
            if d > U.window:
                raise WindowUnderflowError("inverse needs columns beyond the window")
            lead = U.cols[d].coeff(d)
            if lead == 0:
                raise PreconditionError("operator is not invertibly triangular")
            c = r[d] / lead
            w[d] += c
            for i, a in U.cols[d].terms():
                r[i] -= c * a
            d = max(d, U.cols[d].degree)
        cols.append(Polynomial(w, U.mode))
    return OperatorMatrix(cols, U.n_in, U.max_out, U.window, U.complete, U.mode)


def column_discrepancy_loop(a, b, magnitude=0):
    """First coefficient index where the Polynomial columns a and b differ,
    or None, on their canonical coefficients: the oracle for
    ``operators.column_discrepancy``.  Float entries differ when unequal and
    farther apart than the tolerance of the finite entries."""
    mode = common_mode(a.mode, b.mode)
    pairs = [(a.coeff(k), b.coeff(k)) for k in range(max(a.degree, b.degree) + 1)]
    tol = 0
    if mode == FLOAT:
        finite = [abs(c) for pair in pairs for c in pair if math.isfinite(c)]
        tol = FLOAT_COLUMN_TOL * max([1.0, magnitude] + finite)
    for k, (x, y) in enumerate(pairs):
        if x != y and not abs(x - y) <= tol:
            return k
    return None


def first_discrepancy_loop(U, V):
    """``column_discrepancy_loop`` on the Polynomial columns of U and V over
    the common window, truncated at the smaller max_out when either is
    incomplete: the oracle for ``operators.first_discrepancy``."""
    common_mode(U.mode, V.mode)
    window = min(U.window, V.window)
    cap = None if (U.complete and V.complete) else min(U.max_out, V.max_out)
    ucols, vcols = U.cols, V.cols
    for n in range(window + 1):
        a, b = ucols[n], vcols[n]
        if cap is not None:
            a, b = a.truncate(cap), b.truncate(cap)
        k = column_discrepancy_loop(a, b)
        if k is not None:
            return (n, k)
    return None


def columnwise_loop(U, V, op):
    """op (``operator.add`` or ``sub``) on the Polynomial columns of U and V,
    through the validating constructor: the oracle for ``op_add`` and
    ``op_sub``."""
    mode = common_mode(U.mode, V.mode)
    n_in, max_out, window, complete = _sum_shape(U, V)
    pairs = zip(U.cols[: n_in + 1], V.cols[: n_in + 1])
    if complete:
        cols = [op(a, b) for a, b in pairs]
    else:
        cols = [op(a.truncate(max_out), b.truncate(max_out)) for a, b in pairs]
    return OperatorMatrix(cols, n_in, max_out, window, complete, mode)


def op_scale_loop(U, c):
    """``Polynomial.scale`` on each column of U: the oracle for
    ``operators.op_scale``."""
    cols = [p.scale(c) for p in U.cols]
    return OperatorMatrix(cols, U.n_in, U.max_out, U.window, U.complete, U.mode)


def mul_ints_loop(a, b, size):
    """The integer convolution as the double loop over every entry of the
    numerator lists a and b, skipping the zero ones: the oracle for
    ``scalars._mul_ints``, which is handed only b's nonzero pairs."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                if y:
                    out[j] += x * y
    return out


def apply_ints_loop(cols, nums, e):
    """The image of nums / e under the column views ``cols``, looping over
    every entry of every column in use, vanished columns too, which count in
    the lcm and the output length: the oracle for ``operators._apply_ints``,
    which is handed only the columns' nonzero pairs."""
    terms = [(x, c) for x, c in zip(nums, cols) if x]
    lcm = math.lcm(*[c for _, (_, c) in terms])
    out = [0] * max([len(cnums) for _, (cnums, _) in terms], default=0)
    for x, (cnums, c) in terms:
        x *= lcm // c
        for i, y in enumerate(cnums):
            if y:
                out[i] += x * y
    return out, e * lcm


def flow_loop(V, s):
    """The time-s flow sum_k s^k/k! (V D)^k t with each term built as it is
    added, one loop per call: the oracle for ``umbral.flow`` and the
    multiplier-1 iterates, which evaluate terms built once.  A float V runs
    on the exact values of V and s and rounds each coefficient once."""
    s = coerce(s, V.mode)
    if V.mode == FLOAT:
        exact = TruncatedSeries([Fraction(c) for c in V.coeffs], V.order)
        g = flow_loop(exact, Fraction(s))
        return TruncatedSeries([float(c) for c in g.coeffs], V.order, FLOAT)
    nums, d = V.int_view()
    if any(nums[:2]):
        raise PreconditionError("flow requires ord(V) >= 2")
    size = V.order + 1
    g = cur = TruncatedSeries.t(V.order, EXACT).int_view()
    for k in range(1, V.order):
        cnums, e = cur
        deriv = _nonzero([i * x for i, x in enumerate(cnums)][1:])
        cur = _reduced(_mul_ints(nums, deriv, size), d * e)
        g = _add_scaled(g, s.numerator**k, s.denominator**k * math.factorial(k), cur, size)
    return TruncatedSeries._from_view(*g, V.order, EXACT)


def x_times_D_series(v, n_max):
    """The operator x v(D) as a square matrix, which strictly lowers degree
    when ord(v) >= 2."""
    umbral._check_order(v.order, n_max)
    vD = op_from_D_series(v.truncate(n_max), n_max)
    return umbral._square([(([0] + nums)[: n_max + 1], d) for nums, d in vD._views], n_max, v.mode)


def exp_x_field_loop(v, n_max):
    """exp(x v(D)) as the matrix power series of x v(D) (``exp_loc_nilpotent``):
    the oracle for ``umbral._exp_x_field``, which takes the exponential as
    powers of the conjugated x."""
    return exp_loc_nilpotent(x_times_D_series(v, n_max))


def conjugated_x_loop(v, n_max):
    """The series W with e^A x e^-A = x W(D) for A = x v(D) by Hadamard's
    lemma, one loop per call: the oracle for ``umbral._conjugated_x``, which
    takes W = 1 / Q' for the time -1 flow Q of v.  The operators x w(D)
    bracket as vector fields, [x v(D), x w(D)] = x (v' w - v w')(D), so
    W = sum_k W_k / k! with W_0 = 1 and W_{k+1} = v' W_k - v W_k'; ord W_k >= k,
    so the sum stops at the first W_k that vanishes, or after n_max terms.
    It runs on the exact value of v and returns an integer view of W's n_max
    coefficients below t^n_max."""
    nums, d = umbral._exact(v)._view
    if any(nums[:2]):
        raise PreconditionError("exp(x v(D)) requires ord(v) >= 2")
    umbral._check_order(v.order, n_max)
    nums = nums[: n_max + 1]
    dnums = [i * x for i, x in enumerate(nums)][1:]
    w = total = [int(n == 0) for n in range(n_max)], 1
    for k in range(1, n_max):
        wnums, e = w
        a = _mul_ints(dnums, _nonzero(wnums), n_max)
        b = _mul_ints(nums, _nonzero([i * x for i, x in enumerate(wnums)][1:]), n_max)
        w = _reduced([x - y for x, y in zip(a, b)], d * e)
        if not any(w[0]):
            break
        total = _add_scaled(total, 1, math.factorial(k), w, n_max)
    return total


# the exponents of the Newton sums that the one-denominator oracle compares
NEWTON_EXPONENTS = [Fraction(*p) for p in ((1, 2), (-1, 2), (1, 1), (-1, 1), (1, 3), (5, 6), (-3, 2), (2, 1))]
NEWTON_EXPONENTS += [Fraction(3), Fraction(7, 3)]


def _chain(acc, terms, size):
    """acc + sum (a / b) power over ``terms`` by one ``_add_scaled`` per
    term, in order: the running accumulator that ``_combine`` replaced."""
    for a, b, power in terms:
        acc = _add_scaled(acc, a, b, power, size)
    return acc


def view_key(view):
    """An integer view as a comparable value: exact entries as they are,
    float entries by their bits (an int zero stays an int)."""
    nums, d = view
    return [x.hex() if isinstance(x, float) else x for x in nums], d


def _series_key(g):
    return g.order, g.mode, view_key(g._view)


def _power_sum_chain(u, acc, coeff):
    """``series._power_sum`` by the running accumulator."""
    size = u.order + 1
    acc = acc._view
    for k, power in enumerate(islice(series._int_powers(u, size), 1, size), 1):
        if not any(power[0]):
            break
        acc = _add_scaled(acc, *coeff(k), power, size)
    return u._like(*acc)


def _bucc_chain(f, n_max):
    """``umbral._bucc_matrix`` with each column summed term by term by the
    running accumulator, as stored views."""
    mode = f.mode
    g = (f - TruncatedSeries.t(f.order, mode)).truncate(n_max)
    cols = [([], 1)] * (n_max + 1)
    for k, (gnums, e) in zip(range(n_max + 1), series._int_powers(g, n_max + 1)):
        terms = _nonzero(gnums)
        if not terms:
            break
        a, b = _int_pair(coerce(1, mode) / math.factorial(k), mode)
        for n in range(terms[0][0], n_max + 1):
            column = [0] * k + operators._D_column(terms, n), e
            cols[n] = _add_scaled(cols[n], a, b, column, n + 1)
    return umbral._square(cols, n_max, mode)._views


def _binomial_terms(window, n):
    """The terms of ``operators._binomial_column_sum`` over ``window``."""
    return [(math.comb(n, j) * (-1) ** (n - j), 1, ([0] * (n - j) + v, d)) for j, (v, d) in enumerate(window)]


def combine_site_mismatches(f):
    """The sites where the one-denominator sums (``scalars._combine``) of
    the generator f, in its mode, differ from the running accumulator
    (``_add_scaled``) term by term: at multiplier 1 the Newton sums at
    ``NEWTON_EXPONENTS``, the itlog log sum and the Lie sums of its flow;
    at every multiplier bucc's stored views, exp, log1 and pow_scalar of
    f / 3, and the binomial column sums of C_f's Pincherle derivatives.
    Exact results compare as stored views, floats by their bits."""
    mode, order = f.mode, f.order
    size = order + 1
    spec = umbral.UmbralSpec(f)
    bad = []

    def scalar(s):
        return s if mode == EXACT else float(s)

    def differ(got, want):
        return _series_key(got) != _series_key(umbral._in_mode(want, mode))

    if spec.q == 1:
        diffs = spec._differences
        for s in NEWTON_EXPONENTS:
            if differ(spec.iterate(scalar(s)), newton_sum_loop(diffs, umbral._exact_scalar(scalar(s)), order)):
                bad.append(f"newton {s}")
        log_terms = [(1 if k % 2 else -1, k, diffs[k]) for k in range(1, len(diffs))]
        v = TruncatedSeries._from_view(*_chain(([0] * size, 1), log_terms, size), order, EXACT)
        if _series_key(spec._exact_itlog) != _series_key(v) or differ(spec.itlog_series, v):
            bad.append("itlog")
        V = spec.itlog_series
        terms = umbral._lie_terms(umbral._exact(V))
        for s in (Fraction(1, 2), Fraction(-1), Fraction(7, 3)):
            a, b = umbral._exact_scalar(scalar(s)).as_integer_ratio()
            weighted = [(a**k, b**k * math.factorial(k), t) for k, t in enumerate(terms) if k]
            want = TruncatedSeries._from_view(*_chain(terms[0], weighted, size), order, EXACT)
            if differ(umbral.flow(V, scalar(s)), want):
                bad.append(f"lie {s}")
    n_max = spec.default_n_max()
    got = umbral.umbral_bucc(spec, n_max).matrix._views
    if list(map(view_key, got)) != list(map(view_key, _bucc_chain(f, n_max))):
        bad.append("bucc")
    one, zero = TruncatedSeries.one(order, mode), TruncatedSeries.zero(order, mode)
    u = f.scale(scalar(Fraction(1, 3)))
    exp_coeff = lambda k: _int_pair(one[0] / math.factorial(k), mode)
    log_coeff = lambda k: _int_pair((-one[0]) ** (k + 1) / k, mode)
    sums = [
        ("exp", u.exp(), _power_sum_chain(u, one, exp_coeff)),
        ("log1", (one + u).log1(), _power_sum_chain(u, zero, log_coeff)),
    ]
    for alpha in (Fraction(2, 3), Fraction(-1, 2)):
        x = scalar(alpha)
        want = _power_sum_chain(u, one, _qbinom_row(x, one[0]))
        sums.append((f"pow {alpha}", (one + u).pow_scalar(x), want))
    bad += [name for name, got, want in sums if _series_key(got) != _series_key(want)]
    views = operators.composition_operator(f, min(order, 12), min(order, 12))._views
    for n in (1, 2, 3):
        size = len(views) + n
        windows = [views[m : m + n + 1] for m in range(len(views) - n)]
        got = [view_key(operators._binomial_column_sum(w, n, size)) for w in windows]
        if got != [view_key(_chain(([], 1), _binomial_terms(w, n), size)) for w in windows]:
            bad.append(f"binomial {n}")
    return bad
