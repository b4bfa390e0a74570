"""Command-line interface: formats, exit codes, determinism."""

import json

from umbralops.cli import main


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


def test_float_umbral_agrees_within_column_tolerance(capsys):
    code, out, _ = run_cli(capsys, "--mode", "float", "umbral", "--f", "1,0.5", "--formulas", "all")
    assert code == 0
    assert "agree" in out


def test_float_umbral_reports_ill_conditioning(capsys):
    # at order 16 expitlog and steffensen drift far beyond the tolerance
    code, out, _ = run_cli(
        capsys, "--mode", "float", "--order", "16", "umbral", "--f", "1,0.5", "--formulas", "all"
    )
    assert code == 1
    assert "DISAGREEMENT" in out


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
    code, out, err = run_cli(
        capsys, "--order", "40", "--mode", "float", "series", "itlog", "--f", "1,900"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: float itlog lost precision")


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
