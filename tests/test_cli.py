"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import first_discrepancy_loop, in_mode, readme_cli_commands

import umbralops
from umbralops import cli, verify
from umbralops.cli import main
from umbralops.corpus import load_corpus, random_generators
from umbralops.series import DEFAULT_ORDER, TruncatedSeries
from umbralops.umbral import CONSTRUCTIONS, UmbralSpec
from umbralops.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_invert(capsys):
    code, out, _ = run_cli(capsys, "series", "invert", "--f", "1,1")
    assert code == 0
    assert "0, 1, -1, 2, -5, 14" in out


def test_series_itlog_json(capsys):
    code, out, _ = run_cli(capsys, "series", "itlog", "--f", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"][2] == "1"
    assert payload["series"]["coeffs"][3] == "-1"


def test_series_half_iterate_squares_back(capsys):
    code, out, _ = run_cli(
        capsys, "series", "iterate", "--f", "1,1", "--s", "1/2", "--format", "json"
    )
    assert code == 0
    half = json.loads(out)["series"]["coeffs"]
    tail = ",".join(half[1:])
    code, out, _ = run_cli(
        capsys, "series", "compose", "--f", tail, "--g", tail, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["series"]["coeffs"][:4] == ["0", "1", "1", "0"]


def test_umbral_all_formulas_agree(capsys):
    code, out, _ = run_cli(
        capsys, "umbral", "--f", "1,-1,1,-1,1,-1,1,-1,1,-1,1,-1", "--n", "2", "--formulas", "all"
    )
    assert code == 0
    assert "x^2 - 2*x" in out
    assert "agree" in out


def test_umbral_q2_pair(capsys):
    code, out, _ = run_cli(
        capsys, "umbral", "--f", "2,1", "--n", "2", "--formulas", "bucc,expitlog"
    )
    assert code == 0
    assert "agree" in out


def test_umbral_identity_generator(capsys):
    code, out, _ = run_cli(capsys, "umbral", "--f", "1", "--n", "3")
    assert code == 0
    assert "phi_3 = x^3" in out


def test_umbral_csv(capsys):
    code, out, _ = run_cli(
        capsys, "umbral", "--f", "1,1", "--n", "2", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert ["2", "1", "2"] in rows  # phi_2 = x^2 + 2x for f = t + t^2


def test_laguerre_table(capsys):
    code, out, _ = run_cli(capsys, "laguerre", "--p", "2", "--n", "3")
    assert code == 0
    assert "L_3 = x^3 - 6*x" in out


def test_laguerre_alpha(capsys):
    code, out, _ = run_cli(capsys, "laguerre", "--p", "1", "--alpha", "1", "--n", "1")
    assert code == 0
    assert "L_1 = x - 1" in out


def test_laguerre_check_flag(capsys):
    code, out, _ = run_cli(capsys, "laguerre", "--p", "1", "--n", "4", "--check")
    assert code == 0
    assert "identity grid: pass" in out


def test_laguerre_check_builds_the_operator_paths_once(capsys, monkeypatch):
    from umbralops import laguerre

    # one alpha-free factor exp(-x D^3) as powers of the conjugated x and
    # one single matrix exponential; both were matrix exponentials before
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
    code, out, _ = run_cli(capsys, "laguerre", "--p", "2", "--n", "5", "--alpha", "1", "--check")
    assert code == 0
    assert "identity grid: pass" in out
    assert (len(fields), len(exps)) == (1, 1)


def test_laguerre_check_builds_each_row_once(capsys, monkeypatch):
    # the ODE residual reads the printed row; built again for the residual,
    # the count was 12
    from umbralops import laguerre

    calls = []
    real = laguerre._laguerre_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laguerre, "_laguerre_sum", counted)
    code, out, _ = run_cli(capsys, "laguerre", "--p", "2", "--n", "5", "--alpha", "1", "--check")
    assert code == 0
    assert "identity grid: pass" in out
    assert len(calls) == 6


def test_laguerre_check_path_disagreement_is_exit_1(capsys, monkeypatch):
    from umbralops import cli
    from umbralops.operators import op_scale

    real = cli.laguerre_operator_paths

    def skewed(*args):
        path1, path2 = real(*args)
        return path1, op_scale(path2, 2)

    monkeypatch.setattr(cli, "laguerre_operator_paths", skewed)
    code, out, err = run_cli(capsys, "laguerre", "--p", "1", "--n", "3", "--check")
    assert code == 1
    assert out == ""
    assert err == "error: internal cross-check failed: the two operator constructions disagree\n"


def test_integer_iterate_with_a_large_exponent_finishes(capsys):
    code, out, _ = run_cli(
        capsys, "series", "iterate", "--f", "1,1", "--s", "10000000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["series"]["coeffs"][2] == "10000000"


def test_float_iterate_with_a_huge_integer_exponent_fails_fast(capsys):
    # the exact flow's coefficients cannot round to finite floats; the
    # failure comes after N series products, not ~1000 squarings
    start = time.process_time()
    code, out, err = run_cli(
        capsys, "--mode", "float", "series", "iterate", "--f", "1,1", "--s", "1e300"
    )
    assert time.process_time() - start < 2
    assert code == 2
    assert out == ""
    assert err == "error: float result out of range: an exact value exceeds the largest float\n"


def test_laguerre_rejects_p0(capsys):
    code, _, err = run_cli(capsys, "laguerre", "--p", "0", "--n", "2")
    assert code == 2
    assert "p >= 1" in err


def test_verify_formulas_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert all(item["status"] == "exact-pass" for item in report["items"])


def test_verify_deterministic_with_seed(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "--suite", "duality", "--seed", "7", "--format", "json"
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "--suite", "duality", "--seed", "7", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("where", ["before", "after"])
def test_verify_refuses_float_mode(capsys, where):
    # verify runs the exact corpus whatever --mode says; a float request is
    # refused before any suite runs, wherever the flag stands
    verb = ["verify", "--suite", "float"]
    argv = ["--mode", "float", *verb] if where == "before" else [*verb, "--mode", "float"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify runs the exact corpus")
    assert "--suite float" in err
    # an explicit exact mode is the default and still runs
    code, out, _ = run_cli(capsys, "--mode", "exact", *verb)
    assert code == 0
    assert out.endswith("PASS: 2 checks\n")


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "series", "itlog", "--f", "nope")
    assert code == 2
    assert "bad coefficient" in err


def test_env_order_override(capsys, monkeypatch):
    monkeypatch.setenv("UMBRAL_ORDER", "8")
    code, out, _ = run_cli(capsys, "series", "invert", "--f", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"]["order"] == 8


def test_bad_env_order(capsys, monkeypatch):
    monkeypatch.setenv("UMBRAL_ORDER", "many")
    code, _, err = run_cli(capsys, "series", "invert", "--f", "1,1")
    assert code == 2


def test_usage_error_on_unknown_flag(capsys):
    code = main(["series", "itlog", "--nonsense"])
    assert code == 2


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_command_repeats_in_one_process(capsys, argv):
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and first[2] == ""
    assert run_cli(capsys, *argv) == first


@pytest.mark.parametrize(
    "between, code",
    [(("series", "itlog", "--nonsense"), 2), (("--help",), 0), (("laguerre", "--help"), 0)],
)
def test_usage_error_or_help_leaves_the_next_command_unchanged(capsys, between, code):
    argv = ("laguerre", "--p", "1", "--n", "4", "--s", "1/2", "--format", "csv")
    before = run_cli(capsys, *argv)
    got, out, err = run_cli(capsys, *between)
    assert got == code
    # argparse writes to the sys.stdout or sys.stderr of the call
    assert (out if code == 0 else err).startswith("usage: umbral")
    assert run_cli(capsys, *argv) == before


def test_umbral_order_is_read_on_every_call(capsys, monkeypatch):
    orders = []
    for env in ("6", "9", None):
        if env is None:
            monkeypatch.delenv("UMBRAL_ORDER", raising=False)
        else:
            monkeypatch.setenv("UMBRAL_ORDER", env)
        code, out, _ = run_cli(capsys, "series", "itlog", "--f", "1,1", "--format", "json")
        assert code == 0
        orders.append(json.loads(out)["series"]["order"])
    assert orders == [6, 9, DEFAULT_ORDER]


def test_main_builds_one_parser_and_build_parser_a_new_one_each_call(capsys, monkeypatch):
    for argv in (("series", "invert", "--f", "1,1"), ("--help",), ("series", "itlog", "--nonsense")):
        main(list(argv))
    parser = cli._parser()
    assert cli._parser() is parser
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not parser

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run_cli(capsys, "series", "invert", "--f", "1,1")[0] == 0
    assert cli._parser() is parser


def test_importing_the_package_builds_no_parser():
    # set-up cost: the parser is built by the first main call, not at import
    env = {**os.environ, "PYTHONPATH": str(Path(umbralops.__file__).resolve().parents[1])}
    probe = "import umbralops, umbralops.cli as cli; print(cli._parser.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (0, "0\n")


def test_float_umbral_agrees_within_column_tolerance(capsys):
    code, out, _ = run_cli(capsys, "--mode", "float", "umbral", "--f", "1,0.5", "--formulas", "all")
    assert code == 0
    assert "agree" in out


def test_float_umbral_reports_ill_conditioning(capsys):
    # steffensen's transfer formula takes one power of D/Q per column, with
    # no cancelling binomial sum: at order 16 the multiplier-1 generator
    # t + t^2/2 agrees
    code, out, _ = run_cli(
        capsys, "--mode", "float", "--order", "16", "umbral", "--f", "1,0.5", "--formulas", "all"
    )
    assert code == 0
    assert "agree" in out
    # at multiplier 1/2 the float constructions still drift beyond the
    # tolerance from column 12: steffensen at (12, 0), and expitlog, which
    # rounds its conjugated x once, from column 13, at (13, 1)
    code, out, _ = run_cli(
        capsys, "--mode", "float", "--order", "16", "umbral", "--f", "0.5,1,-0.25", "--formulas", "all"
    )
    assert code == 1
    assert '"steffensen": {"col": 12, "coeff": 0}' in out
    assert '"expitlog": {"col": 13, "coeff": 1}' in out


@pytest.mark.parametrize("order", [12, 16, 20])
def test_float_umbral_agreement_matches_the_polynomial_comparator(capsys, order):
    # the float constructions of the corpus, three seeded generators and the
    # ill-conditioned t/2 + t^2 - t^3/4, compared through the CLI with the
    # view comparator and here with the Polynomial-path oracle
    gens = [f for _, f in load_corpus(order=order) + random_generators(7, 3, order)]
    gens.append(in_mode(TruncatedSeries([0, Fraction(1, 2), 1, Fraction(-1, 4)], order), "float"))
    agreements = []
    for f in gens:
        tail = ",".join(repr(float(c)) for c in f.coeffs[1:])
        code, out, _ = run_cli(
            capsys, "--mode", "float", "--order", str(order), "umbral", f"--f={tail}",
            "--formulas", "all", "--format", "json",
        )
        spec = UmbralSpec(in_mode(f, "float"))
        ops = [build(spec, spec.default_n_max()).matrix for build in CONSTRUCTIONS.values()]
        want = {}
        for name, U in zip(list(CONSTRUCTIONS)[1:], ops[1:]):
            d = first_discrepancy_loop(ops[0], U)
            want[name] = None if d is None else {"col": d[0], "coeff": d[1]}
        agreement = json.loads(out)["agreement"]
        assert agreement == want, tail
        assert code == (0 if all(d is None for d in want.values()) else 1), tail
        agreements.append(agreement)
    if order == 16:
        assert agreements[-1]["steffensen"] == {"col": 12, "coeff": 0}
        assert agreements[-1]["expitlog"] == {"col": 13, "coeff": 1}


def test_verify_laguerre_pretty_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "laguerre")
    assert code == 0
    assert "laguerre/laguerre-genfun :: p=1,alpha=1" in out
    assert out.strip().endswith("checks")
    code, out, _ = run_cli(capsys, "verify", "--suite", "laguerre", "--format", "csv")
    assert code == 0
    assert "laguerre,laguerre-genfun,p=1,alpha=1,,exact-pass" in out.splitlines()


def test_missing_corpus_is_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--corpus", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_values_may_start_with_minus(capsys):
    code, joined, _ = run_cli(capsys, "series", "invert", "--f=-1,1")
    assert code == 0
    assert run_cli(capsys, "series", "invert", "--f", "-1,1") == (0, joined, "")
    code, out, _ = run_cli(capsys, "series", "iterate", "--f", "1,1", "--s", "-1/2")
    assert code == 0
    assert out.startswith("order 12: 0, 1, -1/2, 3/4")
    code, out, _ = run_cli(capsys, "laguerre", "--p", "1", "--n", "3", "--alpha", "-1/2")
    assert code == 0
    assert "L_1 = x + 1/2" in out


def test_float_laguerre_check_uses_column_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "--mode", "float", "laguerre", "--p", "1", "--n", "8", "--alpha", "0.3", "--check"
    )
    assert code == 0
    assert "identity grid: pass" in out


def test_float_itlog_lost_precision_is_exit_2(capsys):
    # multiplier 1.001 takes the Koenigs route, whose V fails the Julia equation
    code, out, err = run_cli(capsys, "--mode", "float", "series", "itlog", "--f", "1.001,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: float itlog lost precision")
    assert "Julia residual -4.35e+09 at t^10 exceeds" in err


def test_float_itlog_refusal_names_a_nan_residual(capsys):
    # multiplier 1e-300 takes the Koenigs route, whose coefficients overflow
    # from t^4 on, so the Julia residual is NaN from t^3 on
    code, out, err = run_cli(capsys, "series", "itlog", "--f", "1e-300,1", "--mode", "float")
    assert code == 2
    assert out == ""
    assert err.startswith("error: float itlog lost precision: Julia residual nan at t^3 exceeds")


def test_float_itlog_at_multiplier_one_rounds_the_exact_itlog(capsys):
    argv = ("--order", "40", "series", "itlog", "--f", "1,900", "--format", "json")
    code, out, _ = run_cli(capsys, "--mode", "float", *argv)
    assert code == 0
    got = json.loads(out)["series"]["coeffs"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert got == [float(Fraction(c)) for c in json.loads(out)["series"]["coeffs"]]


def test_non_finite_float_values_are_usage_errors(capsys):
    for argv in (
        ("series", "iterate", "--f", "1,1", "--s", "inf"),
        ("series", "itlog", "--f", "1,inf"),
        ("series", "invert", "--f", "1,nan"),
        ("laguerre", "--p", "1", "--n", "3", "--alpha", "1e999"),
    ):
        code, out, err = run_cli(capsys, "--mode", "float", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "non-finite float" in err, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (("series", "iterate", "--f", "1,1", "--s", "1/2"), "invalid float '1/2'"),
        (("laguerre", "--p", "1", "--n", "3", "--alpha", "1/2"), "invalid float '1/2'"),
        (("series", "itlog", "--f", "1,abc"), "bad coefficient at position 2: invalid float 'abc'"),
    ],
)
def test_float_parse_errors_name_the_text(capsys, argv, message):
    assert run_cli(capsys, "--mode", "float", *argv) == (2, "", f"error: {message}\n")


def test_float_overflow_is_exit_2(capsys):
    for argv in (
        ("series", "iterate", "--f", "1e308,1e308", "--s", "0.5"),
        ("laguerre", "--p", "1", "--n", "3", "--s", "1e308"),
        # results that overflow to inf or nan, not inputs that do
        ("series", "compose", "--f", "1e200,1e200", "--g", "1e200,1e200"),
        ("series", "invert", "--f", "1e-200,1e200"),
        ("umbral", "--f", "1e200,1e200", "--n", "3"),
        ("laguerre", "--p", "1", "--n", "3", "--alpha", "1e308"),
    ):
        code, out, err = run_cli(capsys, "--mode", "float", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:"), argv


def test_float_series_invert_is_the_iterate_at_minus_one(capsys):
    # series invert prints the spec's f^-1, which at multiplier 1 rounds the
    # exact inverse once, as iterate --s -1 does
    def coeffs(*argv):
        code, out, err = run_cli(capsys, "--mode", "float", *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        return [c.hex() for c in json.loads(out)["series"]["coeffs"]]

    gens = [(name, f) for name, f in load_corpus() if f[1] == 1]
    assert len(gens) >= 4
    for name, f in gens:
        tail = ",".join(repr(float(c)) for c in f.coeffs[1:])
        want = coeffs("series", "iterate", "--s", "-1", "--f", tail)
        assert coeffs("series", "invert", "--f", tail) == want, name
    _, out, _ = run_cli(capsys, "--mode", "float", "series", "invert", "--f", "1,1,-0.3333333333333333,2")
    assert out.split(", ")[3] == "2.3333333333333335"
    code, out, err = run_cli(capsys, "series", "invert", "--f", "0,1")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_float_inverse_beyond_the_float_range_is_exit_2(capsys):
    # at multiplier 1 a float f^-1 rounds its exact value once, so one that
    # leaves the float range is refused as the iterate at -1 is
    for formula in ("steffensen", "steffensen2"):
        argv = ("--mode", "float", "umbral", "--f", "1,1e200", "--formulas", formula, "--n", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), formula
        assert err == "error: float result out of range: an exact value exceeds the largest float\n", formula


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_result_beyond_the_digit_limit_is_exit_2_in_the_cli_words(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "series", "itlog", "--f", "1,1e400", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: a result has more than {limit} digits to print; try a lower --order\n"
    # the interpreter's limit is not raised
    assert sys.get_int_max_str_digits() == limit


def test_laguerre_p0_message_names_the_float_demo(capsys):
    code, _, err = run_cli(capsys, "--mode", "float", "laguerre", "--p", "0", "--n", "3", "--alpha", "0.5")
    assert code == 2
    assert "p >= 1" in err
    assert "verify --suite float" in err


def test_internal_cross_check_failure_is_exit_1(capsys, monkeypatch):
    from umbralops import umbral

    def broken(spec, n_max=None):
        raise AssertionError("compositional inverse failed its round trip")

    monkeypatch.setitem(umbral.CONSTRUCTIONS, "bucc", broken)
    code, out, err = run_cli(capsys, "umbral", "--f", "1,1", "--formulas", "garsia,bucc")
    assert code == 1
    assert out == ""
    assert err == "error: internal cross-check failed: compositional inverse failed its round trip\n"


def test_laguerre_check_refuses_fractional_s(capsys):
    code, out, err = run_cli(capsys, "laguerre", "--p", "1", "--n", "3", "--s", "1/2", "--check")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "verify --suite laguerre" in err
    code, out, _ = run_cli(capsys, "laguerre", "--p", "1", "--n", "3", "--s", "1/2")
    assert code == 0
    assert "L_3" in out


def test_negative_n_is_usage_error(capsys):
    for argv in (("umbral", "--f", "1,1", "--n", "-1"), ("laguerre", "--p", "1", "--n", "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--n must be >= 0" in err


def test_verify_suite_selection_is_deduplicated_and_nonempty(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", ",")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, out, _ = run_cli(capsys, "verify", "--suite", "float,float", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["suites"] == ["float"]
    assert len(report["items"]) == 2


def test_manifest_with_zero_multiplier_is_refused_for_every_suite(capsys, tmp_path):
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps([{"name": "flat", "coeffs": ["0", "1"]}]))
    code, out, err = run_cli(capsys, "verify", "--suite", "kernel", "--corpus", str(manifest))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_coeff_suite_at_multiplier_minus_one_passes(capsys, tmp_path):
    # the scan takes its q-binomials at q = -1, where the product formula
    # would divide by q^2 - 1 = 0, as the values of the polynomials in q
    manifest = tmp_path / "neg.json"
    manifest.write_text(json.dumps([{"name": "neg", "coeffs": ["-1", "1"]}]))
    for suite in ("coeff", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--corpus", str(manifest))
        assert code == 0, suite
        assert err == ""
        assert out.splitlines()[-1].startswith("PASS"), suite


def test_series_that_is_not_a_generator_has_integer_iterates_only(capsys):
    code, out, _ = run_cli(capsys, "series", "iterate", "--f", "0,1", "--s", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"]["coeffs"][:6] == ["0", "0", "0", "0", "1", "0"]
    for s in ("1/2", "-1"):
        code, out, err = run_cli(capsys, "series", "iterate", "--f", "0,1", "--s", s)
        assert code == 2, s
        assert out == ""
        assert err.startswith("error: a series that is not a generator"), s


@pytest.mark.parametrize(
    "manifest",
    [
        [{"name": "x"}],
        {"name": "x", "coeffs": ["1"]},
        [{"name": "x", "coeffs": [1, 2]}],
        [["x"]],
        [{"coeffs": ["1", "1"]}],
        None,
        [{"name": 3, "coeffs": ["1", "1"]}],
        [{"name": "x", "coeffs": "11"}],
        [],
        [{"name": "x", "coeffs": ["1", "one"]}],
    ],
)
def test_malformed_manifest_is_usage_error(capsys, tmp_path, manifest):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "verify", "--suite", "duality", "--corpus", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: corpus")


@pytest.mark.parametrize("text", ["", '[{"name": "x", "coeffs": ["1"]}', "[{'name': 'x', 'coeffs': ['1']}]"])
def test_manifest_that_is_not_json_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--suite", "coeff", "--corpus", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: corpus manifest is not valid JSON: ")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_builtin_corpus_runs_below_the_default_order(capsys, suite):
    code, out, err = run_cli(capsys, "--order", "8", "verify", "--suite", suite)
    assert (code, err) == (0, "")
    assert out.strip().startswith("[")


def test_user_manifest_is_not_truncated_to_the_order(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps([{"name": "x", "coeffs": ["1"] * 12}]))
    code, out, err = run_cli(capsys, "--order", "8", "verify", "--suite", "duality", "--corpus", str(path))
    assert code == 2
    assert err.startswith("error: corpus entry 1 ('x')")


@pytest.mark.parametrize("order", ["2", "3"])
@pytest.mark.parametrize("suite, refused", [("kernel", "kernel"), ("laguerre", "laguerre"), ("all", "kernel")])
def test_verify_below_the_minimum_order_names_it(capsys, monkeypatch, order, suite, refused):
    # refused before any generator is loaded
    monkeypatch.setattr(verify, "load_corpus", None)
    code, out, err = run_cli(capsys, "--order", order, "verify", "--suite", suite)
    assert (code, out) == (2, "")
    assert err == f"error: suite {refused} needs order >= 4, got {order}\n"


def test_verify_all_passes_at_the_minimum_order(capsys):
    code, out, err = run_cli(capsys, "--order", "4", "verify", "--suite", "all", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["passed"] is True
    assert {it["suite"] for it in report["items"]} == set(SUITES)
