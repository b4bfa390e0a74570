"""Corpus loading and the verify runner."""

import hashlib
import json
import sys

import pytest

from helpers import split_by_multiplier
from umbralops import laguerre, operators, polynomials, scalars, series, umbral, verify
from umbralops.corpus import load_corpus, random_generators
from umbralops.operators import OperatorMatrix
from umbralops.polynomials import Polynomial
from umbralops.series import PreconditionError
from umbralops.verify import SUITES, run_verify


def test_corpus_shape():
    corpus = load_corpus()
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names)) == 8
    tangent, general = split_by_multiplier(corpus)
    assert len(tangent) == 5
    assert len(general) == 3
    for _, f in corpus:
        assert f.order == 12
        assert f[0] == 0
        assert f[1] != 0


@pytest.mark.parametrize("order", [4, 8, 11])
def test_builtin_corpus_truncates_to_the_order(order):
    full = load_corpus()
    short = load_corpus(order=order)
    assert [name for name, _ in short] == [name for name, _ in full]
    assert [f for _, f in short] == [f.truncate(order) for _, f in full]


def test_corpus_from_explicit_path(tmp_path):
    manifest = tmp_path / "c.json"
    manifest.write_text(json.dumps([{"name": "x", "coeffs": ["1", "1/2"]}]))
    corpus = load_corpus(str(manifest), order=6)
    assert corpus[0][0] == "x"
    from fractions import Fraction

    assert corpus[0][1].coeffs[:3] == (Fraction(0), Fraction(1), Fraction(1, 2))


def test_random_generators_deterministic():
    a = random_generators(5, count=2)
    b = random_generators(5, count=2)
    assert [f for _, f in a] == [f for _, f in b]
    for _, f in a:
        assert f[1] == 1


def test_run_verify_single_suite():
    report = run_verify(suites="duality")
    assert report["schema_version"] == 1
    assert report["passed"]
    assert all(item["suite"] == "duality" for item in report["items"])


def test_run_verify_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_verify(suites="nope")


def test_run_verify_items_sorted():
    report = run_verify(suites="ode,itlog")
    keys = [(i["suite"], i["identity"], i["case"]) for i in report["items"]]
    assert keys == sorted(keys)


def test_all_suite_names_runnable():
    assert set(SUITES) == {
        "formulas",
        "duality",
        "itlog",
        "ode",
        "genfun",
        "group",
        "coeff",
        "kernel",
        "laguerre",
        "float",
    }


def test_verify_all_report_digest():
    # every item of the seed-7 report; the same digest is verify-default.all
    # in perfbench/reference.json
    items = run_verify("all", 7, order=12)["items"]
    items = sorted(items, key=lambda it: (it["suite"], it["identity"], it["case"]))
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    assert len(items) == 332
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "db959c70527b15f34d7edf0bd9ef2542a244b8526b239629a3a782c3865619c3"
    )


@pytest.mark.slow
def test_verify_all_report_digest_at_order_20():
    items = run_verify("all", 7, order=20)["items"]
    items = sorted(items, key=lambda it: (it["suite"], it["identity"], it["case"]))
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    assert len(items) == 332
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "27f849b09f09b27f01a46e694ccb8fcfed8e4cdd3a1eaab7fad6cf884215779c"
    )


@pytest.mark.slow
def test_verify_all_report_digest_at_order_40():
    items = run_verify("all", 7, order=40)["items"]
    items = sorted(items, key=lambda it: (it["suite"], it["identity"], it["case"]))
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    assert len(items) == 332
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "cbd04493adaaa2a498ca02411d6b0f6374d0088c6fa50cb9fa3b82f0ffe9221e"
    )


ITEM_KEYS = ("suite", "identity", "case", "window", "status", "first_discrepancy")
NO_WINDOW = {"laguerre-cross-sequence", "laguerre-genfun"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_item_has_the_keys_in_one_order(seed):
    # one builder writes every item; the two bivariate Laguerre identities
    # certify no window and write no window key
    items = run_verify("all", seed)["items"]
    for it in items:
        keys = tuple(k for k in ITEM_KEYS if k != "window" or it["identity"] not in NO_WINDOW)
        assert tuple(it) == keys, it
    assert sum(it["identity"] in NO_WINDOW for it in items) == 9


def _add_x_to_column_4(M):
    """M with x added to column 4: still unipotent, so every suite runs."""
    views = list(M._views)
    nums, d = views[4]
    views[4] = [nums[0], nums[1] + d] + nums[2:], d
    return OperatorMatrix._from_views(views, M.n_in, M.max_out, M.window, M.complete, M.mode)


def _skew_bucc(monkeypatch):
    real = umbral._bucc_matrix
    monkeypatch.setattr(umbral, "_bucc_matrix", lambda f, n_max: _add_x_to_column_4(real(f, n_max)))


def _skew_garsia(monkeypatch):
    # the garsia matrices that frac_power and genfun_check build
    real = umbral.umbral_garsia

    def skewed(spec, n_max=None):
        U = real(spec, n_max)
        return umbral.UmbralOperator(spec, _add_x_to_column_4(U.matrix), U.provenance)

    monkeypatch.setattr(umbral, "umbral_garsia", skewed)


@pytest.mark.parametrize(
    "skew, suites",
    [
        (_skew_bucc, {"formulas", "kernel", "duality", "genfun"}),
        (_skew_garsia, {"genfun", "group"}),
    ],
)
def test_failing_operator_comparisons_read_col_and_coeff(monkeypatch, skew, suites):
    skew(monkeypatch)
    report = run_verify("formulas,kernel,duality,genfun,group")
    failed = [it for it in report["items"] if it["status"] == "fail"]
    assert {it["suite"] for it in failed} == suites
    for it in failed:
        where = it["first_discrepancy"]
        assert list(where) == ["col", "coeff"], it
        assert where["col"] <= 4 <= it["window"]


def test_laguerre_path_disagreement_is_a_failed_item(monkeypatch):
    real = laguerre.laguerre_operator_paths

    def skewed(*args):
        path1, path2 = real(*args)
        cols = list(path2.cols)
        if len(cols) > 3:
            cols[3] = cols[3] + Polynomial.one()
        return path1, OperatorMatrix(cols, path2.n_in, path2.max_out, path2.window, path2.complete)

    # in both modules: degenerate_laguerre_operator builds the paths too
    for module in (laguerre, verify):
        monkeypatch.setattr(module, "laguerre_operator_paths", skewed, raising=False)
    report = run_verify("laguerre")
    assert not report["passed"]
    failed = [it for it in report["items"] if it["status"] == "fail"]
    assert {it["identity"] for it in failed} == {"explicit-vs-operator"}
    assert len(failed) == 12
    assert all(it["first_discrepancy"] == {"n": 3} for it in failed)


def test_pincherle_path_disagreement_fails_the_leibniz_items(monkeypatch):
    from umbralops import operators

    real = operators._nth_pincherle_explicit
    monkeypatch.setattr(
        operators, "_nth_pincherle_explicit", lambda U, n: operators.op_scale(real(U, n), 2)
    )
    report = run_verify("kernel")
    assert not report["passed"]
    failed = [it for it in report["items"] if it["status"] == "fail"]
    assert {it["identity"] for it in failed} == {"operator-leibniz-rule", "iterated-derivative-paths"}
    leibniz = [it for it in report["items"] if it["identity"] == "operator-leibniz-rule"]
    assert all(it["status"] == "fail" and it["first_discrepancy"] is None for it in leibniz)
    assert {it["window"] for it in leibniz} == {6}


def test_field_extraction_precondition_is_a_failed_item(monkeypatch):
    def off_row(U):
        raise PreconditionError("logarithm has support off the linear row at x^2 D^3")

    monkeypatch.setattr(verify, "extract_generator_field", off_row)
    report = run_verify("itlog")
    assert not report["passed"]
    statuses = {(it["identity"], it["status"]) for it in report["items"]}
    assert statuses == {("field-extraction", "fail"), ("julia-equation", "exact-pass")}


def test_run_verify_deduplicates_suites_and_refuses_empty_selection():
    report = run_verify("float,duality,float")
    assert report["suites"] == ["float", "duality"]
    once = run_verify("float")["items"] + run_verify("duality")["items"]
    assert sorted(map(json.dumps, report["items"])) == sorted(map(json.dumps, once))
    for empty in (",", " , ", []):
        with pytest.raises(ValueError):
            run_verify(empty)


def test_run_verify_computes_itlog_once_per_generator(monkeypatch):
    # 5 tangent corpus generators, plus one reduced spec per general-multiplier
    # generator inside umbral_exp_itlog (formulas' expitlog construction):
    # each spec's itlog and iterates read its one set of differences
    calls = []
    real = umbral._forward_differences

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(umbral, "_forward_differences", counted)
    assert run_verify("formulas,itlog,group,coeff")["passed"]
    assert len(calls) == 8


def test_run_verify_builds_each_bucc_matrix_once(monkeypatch):
    # one build per spec and n_max: the 11 generators at the default n_max
    # (formulas, duality, ode, genfun and kernel's exp-log round trip share
    # it) and at coeff's n_max 8, kernel's own spec of t + t^2 and the float
    # Laguerre demo; umbral_bucc was called, and built, 85 times before the
    # matrix was kept on the spec
    calls = []
    real = umbral._bucc_matrix

    def counted(f, n_max):
        calls.append((f, n_max))
        return real(f, n_max)

    monkeypatch.setattr(umbral, "_bucc_matrix", counted)
    assert run_verify("all", 7)["passed"]
    assert len(calls) == 24
    # kernel's t + t^2 is also the corpus entry shifted-quadratic
    assert len(set(calls)) == 23


def test_group_and_coeff_suites_build_each_specs_lie_terms_once(monkeypatch):
    # every multiplier-1 iterate of a spec is a Newton sum of the differences
    # of its f, built once: for each of the 5 tangent corpus generators and
    # the 3 seeded ones.  When the iterate router called flow, each new
    # exponent rebuilt the Lie terms
    calls = []
    real = umbral._forward_differences

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(umbral, "_forward_differences", counted)
    assert run_verify("group,coeff", 7)["passed"]
    tangent, _ = split_by_multiplier(load_corpus() + random_generators(7, 3, 12))
    assert sorted(map(repr, calls)) == sorted(repr(f) for _, f in tangent)


def test_verify_all_builds_each_expitlog_and_frac_power_matrix_once(monkeypatch):
    # expitlog: one exponential per tangent spec (8) and per general spec's
    # tangent part (3), shared by the formulas and itlog suites, which built
    # 19.  Each is taken as powers of the conjugated x (_exp_x_field), and
    # none by the matrix power series exp_loc_nilpotent, which the kernel
    # and Laguerre suites still call.  frac_power: per tangent spec the
    # group suite's 6 exponents at the default n_max and the coeff suite's 3
    # at n_max 8 (72), per general spec 3 and 2 (15), and the Laguerre
    # suite's 6; 117 when the group suite built s = 1/2 twice more and the
    # coeff suite once more per tangent spec
    exps, matrix_exps, garsia = [], [], []
    real_exp, real_garsia = umbral._exp_x_field, umbral.umbral_garsia
    real_matrix_exp = operators.exp_loc_nilpotent

    def counted_exp(v, n_max):
        exps.append(v)
        return real_exp(v, n_max)

    def counted_matrix_exp(A):
        matrix_exps.append(sys._getframe(1).f_globals["__name__"])
        return real_matrix_exp(A)

    def counted_garsia(spec, n_max=None):
        if sys._getframe(1).f_code.co_name == "frac_power":
            garsia.append((spec.f, n_max))
        return real_garsia(spec, n_max)

    monkeypatch.setattr(umbral, "_exp_x_field", counted_exp)
    for module in (operators, umbral, laguerre, verify):
        if hasattr(module, "exp_loc_nilpotent"):
            monkeypatch.setattr(module, "exp_loc_nilpotent", counted_matrix_exp)
    monkeypatch.setattr(umbral, "umbral_garsia", counted_garsia)
    assert run_verify("all", 7)["passed"]
    assert len(exps) == 11
    assert set(matrix_exps) == {"umbralops.laguerre", "umbralops.verify"}
    assert len(garsia) == 93


def test_kernel_suite_makes_219_operator_products(monkeypatch):
    # the Pincherle derivatives are column differences with no operator
    # product; built from products by x-multiplication matrices, and
    # cross-checked by more of them, they made the suite's count 1171.  The
    # Leibniz items cut each derivative's input range by taking its first
    # columns; as 98 products with an identity matrix they made the count
    # 317.  Two products with an identity right factor remain: D^0 in the
    # degree-falling-factorial items and h_0(Q) = 1 in km_operator
    calls = []
    real = operators.compose_ops

    def counted(U, V):
        calls.append((U, V))
        return real(U, V)

    for module in (operators, umbral, verify, laguerre):
        monkeypatch.setattr(module, "compose_ops", counted)
    assert run_verify("kernel", 7)["passed"]
    assert len(calls) == 219


def test_formulas_and_kernel_suites_count_their_integer_view_conversions(monkeypatch):
    # coefficient containers store the integer view, so scalars._to_ints runs
    # only where values enter it: public constructors, scalings, power-sum
    # coefficients, diagonals and normal-form tables.  With Fraction storage
    # every int_view converted: the counts were 776 (formulas) and 10906
    # (kernel).  steffensen's transfer formula reads column n from the power
    # (D/Q)^(n + 1) and builds no TruncatedSeries.one for a binomial sum:
    # formulas went from 221 to 210, one conversion fewer per generator.
    # op_scale takes its scalar's integer view once, not once per column:
    # kernel went from 921 to 553.  km_operator builds one ladder of powers
    # of Q for all its h_k, not one per h_k, so ten fewer ladders build an
    # identity operator: kernel went from 553 to 543.  expitlog takes its
    # exponential as powers of the conjugated x, with no identity operator
    # and no power-series coefficient to convert, only its constant column
    # 1: formulas went from 210 to 131, 90 conversions fewer and 11 more
    real = scalars._to_ints
    calls = []

    def counted(coeffs, mode):
        calls.append(mode)
        return real(coeffs, mode)

    for module in (scalars, series, polynomials, operators, umbral):
        if getattr(module, "_to_ints", None) is real:
            monkeypatch.setattr(module, "_to_ints", counted)
    counts = {}
    for suite in ("formulas", "kernel"):
        calls.clear()
        assert run_verify(suite, 7)["passed"]
        counts[suite] = len(calls)
    assert counts == {"formulas": 131, "kernel": 543}


def test_laguerre_suite_builds_each_alpha_free_factor_once(monkeypatch):
    # per p, one exp(-x D^(p+1)) shared by the four alpha, as powers of the
    # conjugated x, and one single matrix exponential per alpha; with the
    # factor built per alpha the count was 24, and 15 when both kinds were
    # matrix exponentials
    fields, exps = [], []
    real_field, real_exp = laguerre._exp_x_field, laguerre.exp_loc_nilpotent

    def counted_field(v, n_max):
        fields.append(v)
        return real_field(v, n_max)

    def counted_exp(A):
        exps.append(A)
        return real_exp(A)

    monkeypatch.setattr(laguerre, "_exp_x_field", counted_field)
    monkeypatch.setattr(laguerre, "exp_loc_nilpotent", counted_exp)
    assert run_verify("laguerre", 7)["passed"]
    assert (len(fields), len(exps)) == (3, 12)


def test_verify_all_builds_each_fields_lie_terms_once(monkeypatch):
    # the Lie terms once per field and truncation: the Laguerre suite's 3
    # fields -t^(p+1), each shared by its flows at s = 1 and 1/2, and the
    # time -1 flows behind expitlog's conjugated x, for the 11 expitlog
    # fields (8 multiplier-1 specs, 3 tangent parts) and the 3 alpha-free
    # factors exp(-x D^(p+1)).
    # The specs' iterates, the Laguerre generators' fractional members
    # included, are Newton sums and build no Lie terms: each spec builds its
    # differences once, for the 8 tangent specs, the 3 tangent parts of the
    # other corpus generators and the 3 Laguerre generators
    calls, specs = [], []
    real, real_differences = umbral._lie_terms, umbral._forward_differences

    def counted(V):
        calls.append(V)
        return real(V)

    def counted_differences(f):
        specs.append(f)
        return real_differences(f)

    for module in (umbral, verify):
        monkeypatch.setattr(module, "_lie_terms", counted)
    monkeypatch.setattr(umbral, "_forward_differences", counted_differences)
    assert run_verify("all", 7)["passed"]
    assert len(calls) == 3 + 11 + 3
    assert len(specs) == 8 + 3 + 3


def test_coeff_suite_reads_the_bucc_ladder_as_integer_views(monkeypatch):
    # the scan reads the ladder's stored views, so no power of it builds
    # its Polynomial columns
    def refuse(*args):
        raise AssertionError("an operator built its Polynomial columns")

    monkeypatch.setattr(operators.OperatorMatrix, "cols", property(refuse))
    monkeypatch.setattr(operators.OperatorMatrix, "col", refuse)
    for name, f in load_corpus():
        spec = umbral.UmbralSpec(f)
        assert all(it["status"] == "exact-pass" for it in verify.suite_coeff(name, spec))
        ladder = spec._bucc_powers[8]
        assert len(ladder) == 9


def test_laguerre_suite_builds_each_explicit_row_once(monkeypatch):
    # 132 rows, rows[alpha][n] for 3 p, 4 alpha and n <= 10, read by every
    # check of one p, plus 54 fractional members; with each check building
    # its own rows the count was 432
    calls = []
    real = laguerre._laguerre_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laguerre, "_laguerre_sum", counted)
    assert run_verify("laguerre", 7)["passed"]
    assert len(calls) == 186
    assert len(set(calls)) == 186


def test_suite_registry_matches_function_names():
    # the benchmark tracer keys verify.suite.<name>.s on these names
    for name, fn in SUITES.items():
        assert getattr(verify, f"suite_{name}") is fn
