import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from heun_su11 import cli, heun_core
from heun_su11 import series_engine as series_module
from heun_su11 import spectrum as spectrum_module
from heun_su11 import su11_algebra as su11_module
from heun_su11 import verifier as verifier_module
from heun_su11 import RepresentationClass, classify, decompose, make_parameters, solve_spectrum
from heun_su11.cli import main
from oracle import check_exact_scores, series_terms, sum_by_terms


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_decompose_preset_example1(capsys):
    rc, doc = run_json(capsys, ["decompose", "--preset", "example1"])
    assert rc == 0
    assert doc["mu"] == -1.0
    assert doc["nu"] == 0.0
    assert doc["c_plus"] == 0.25
    assert doc["c_minus"] == 0.5
    assert doc["casimir"] == -2.0


def test_decompose_flag_overrides_preset(capsys):
    rc, doc = run_json(capsys, ["decompose", "--preset", "example1", "--a", "4"])
    assert rc == 0
    assert doc["c_minus"] == 1.0


def test_spectrum_preset_example1_eigenvalues(capsys):
    rc, doc = run_json(capsys, ["spectrum", "--preset", "example1", "--a", "4"])
    assert rc == 0
    qs = [pair["q"] for pair in doc["eigenpairs"]]
    assert qs == pytest.approx([-1.0, 1.0, 1.25], abs=1e-10)
    assert [pair["parity"] for pair in doc["eigenpairs"]] == ["even", "even", "odd"]
    assert doc["warnings"] == []
    assert doc["ode_coefficients"]["a0"] == 1.0
    assert all(pair["residual"] <= 1e-12 for pair in doc["eigenpairs"])


@pytest.mark.parametrize("command", ["spectrum", "classify", "series", "series --q 0.5"])
@pytest.mark.parametrize("preset", ["example1", "example2", "lame"])
def test_spectrum_roundtrip_is_byte_identical(tmp_path, capsys, preset, command):
    # --q on a saved decomposition (q = 0 here) moves its c0 as the direct run's.
    command, *extra = command.split()
    dec_path = tmp_path / "dec.json"
    direct = tmp_path / "direct.json"
    piped = tmp_path / "piped.json"
    assert main(["decompose", "--preset", preset, "--json", str(dec_path)]) == 0
    assert main([command, "--preset", preset, *extra, "--json", str(direct)]) == 0
    assert main([command, "--decomposition", str(dec_path), *extra, "--json", str(piped)]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == piped.read_bytes()


@pytest.mark.parametrize("extra", [
    ["--preset", "example2"],
    ["--params", "params.json"],
    ["--gamma", "9"],
    ["--a", "3"],
    ["--rho", "0"],
    ["--q", "3"],
], ids=lambda extra: extra[0][2:])
@pytest.mark.parametrize("command", ["classify", "spectrum", "series"])
def test_parameters_beside_decomposition_are_usage_errors(command, extra, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps(cli.PRESETS["example2"]))
    assert main(["decompose", "--preset", "example1", "--json", "dec.json"]) == 0
    rc = main([command, "--decomposition", "dec.json", *extra])
    captured = capsys.readouterr()
    if command == "series" and extra[0] == "--q":
        # series reads its own accessory value beside a decomposition.
        assert rc == 0
        assert json.loads(captured.out)["series"]["q"] == 3.0
    else:
        assert rc == 64
        assert captured.out == ""
        assert f"remove ['{extra[0]}']" in captured.err


@pytest.mark.parametrize("value", ["1e-3", "nan"])
@pytest.mark.parametrize("command", ["classify", "spectrum", "series"])
def test_tolerance_beside_decomposition_is_a_usage_error(command, value, tmp_path, capsys):
    # The factorization conditions have no tolerance option.
    dec_path = str(tmp_path / "dec.json")
    assert main(["decompose", "--preset", "example1", "--json", dec_path]) == 0
    assert main([command, "--decomposition", dec_path, "--tolerance", value]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --tolerance {value}" in captured.err


def test_tolerance_is_not_an_option(capsys):
    assert main(["decompose", "--preset", "example1", "--tolerance", "1e-3"]) == 64
    assert capsys.readouterr().out == ""
    for command in ("decompose", "classify", "spectrum", "series", "verify", "check-algebra"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--tolerance" not in capsys.readouterr().out


def test_classify_lists_representations(capsys):
    rc, doc = run_json(capsys, ["classify", "--preset", "example2"])
    assert rc == 0
    assert doc[0]["class"] == "finite_dimensional"
    assert doc[0]["p_grid"] == [-0.5, 0.0, 0.5]
    assert {rep["class"] for rep in doc} >= {"positive_discrete", "negative_discrete"}


def test_series_lame_coefficients(capsys):
    rc, doc = run_json(capsys, ["series", "--preset", "lame", "--q", "1"])
    assert rc == 0
    assert doc["series"]["coefficients"][0] == 1.0
    assert doc["series"]["coefficients"][1] == 1.0  # 2q/a at a=2, q=1
    assert doc["series"]["K"] == 60
    assert doc["series"]["domain"] == [0.0, 1.0]
    assert doc["ode_coefficients"]["a7"] == -1.0


def test_series_descending_ladder(capsys):
    rc, doc = run_json(capsys, ["series", "--preset", "lame", "--q", "1", "--rep", "nd"])
    assert rc == 0
    assert doc["series"]["direction"] == "descending"
    assert doc["series"]["coefficients"][1] == 2.0
    assert doc["series"]["domain"][1] is None  # infinite edge


def test_verify_spectrum_document(tmp_path, capsys):
    sol = tmp_path / "spectrum.json"
    assert main(["spectrum", "--preset", "example1", "--json", str(sol)]) == 0
    rc, doc = run_json(capsys, ["verify", "--solution", str(sol)])
    assert rc == 0
    assert doc["passed"] is True
    assert doc["max_relative_residual"] <= 1e-12
    assert len(doc["results"]) == 3


def test_verify_flags_tampered_eigenvalue(tmp_path, capsys):
    sol = tmp_path / "spectrum.json"
    assert main(["spectrum", "--preset", "example1", "--json", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["eigenpairs"][0]["q"] += 1e-3
    sol.write_text(json.dumps(doc))
    rc, report = run_json(capsys, ["verify", "--solution", str(sol)])
    assert rc == 1
    assert report["passed"] is False
    assert report["max_relative_residual"] > 1e-8


def test_verify_fails_nan_eigenpair(tmp_path, capsys):
    # A NaN q makes every sample's sum and scale NaN; that must fail, not
    # fold away as a residual of 0.
    sol = tmp_path / "spectrum.json"
    assert main(["spectrum", "--preset", "example1", "--json", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["eigenpairs"][0]["q"] = math.nan
    sol.write_text(json.dumps(doc))
    assert '"q": NaN' in sol.read_text()
    rc, report = run_json(capsys, ["verify", "--solution", str(sol)])
    assert rc == 1
    assert report["passed"] is False
    assert report["max_relative_residual"] is None
    assert report["results"][0]["max_relative_residual"] is None
    assert all(r["max_relative_residual"] <= 1e-12 for r in report["results"][1:])


def test_verify_series_document(tmp_path, capsys):
    sol = tmp_path / "series.json"
    assert main(["series", "--preset", "lame", "--q", "0.3", "--json", str(sol)]) == 0
    rc, doc = run_json(capsys, ["verify", "--solution", str(sol)])
    assert rc == 0
    assert doc["results"][0]["direction"] == "ascending"


def test_verify_rejects_incomplete_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["verify", "--solution", str(bad)]) == 1
    bad.write_text(json.dumps({"ode_coefficients": {f"a{i}": 0.0 for i in range(8)}}))
    assert main(["verify", "--solution", str(bad)]) == 1
    capsys.readouterr()


def test_check_algebra_bare_generators(capsys):
    rc, doc = run_json(capsys, ["check-algebra", "--mu", "0.37", "--nu", "-2.2"])
    assert rc == 0
    assert doc["max_commutator_deviation"] <= 1e-12
    assert "max_reconstruction_deviation" not in doc


def test_check_algebra_with_parameters(capsys):
    rc, doc = run_json(capsys, ["check-algebra", "--preset", "example1"])
    assert rc == 0
    assert doc["max_reconstruction_deviation"] <= 1e-10
    assert doc["mu"] == -1.0


@pytest.mark.parametrize("extra", [
    ["--gamma", "7", "--a", "3"],
    ["--preset", "example1"],
    ["--params", "-"],
    ["--q", "1"],
    ["--tolerance", "1e-3"],
], ids=["gamma-a", "preset", "params", "q", "tolerance"])
def test_check_algebra_bare_generators_refuse_parameters(extra, capsys):
    assert main(["check-algebra", "--mu", "0.37", "--nu", "-2.2", *extra]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_check_algebra_requires_mu_nu_pair(capsys):
    assert main(["check-algebra", "--mu", "0.5"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_check_algebra_numerical_failure_exit(monkeypatch, capsys):
    # cli imports the checks inside the handler, so it calls the patched ones.
    monkeypatch.setattr(su11_module, "algebra_identity_check", lambda mu, nu, exps: 1.0)
    rc = main(["check-algebra", "--mu", "0.0", "--nu", "0.0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "numerical failure" in captured.err
    assert json.loads(captured.out)["max_commutator_deviation"] == 1.0


@pytest.mark.parametrize("check, argv", [
    ("algebra_identity_check", ["--mu", "0.0", "--nu", "0.0"]),
    ("reconstruction_check", ["--preset", "example1"]),
], ids=["commutator", "reconstruction"])
def test_check_algebra_fails_a_nan_deviation(check, argv, monkeypatch, capsys):
    monkeypatch.setattr(su11_module, check, lambda *args: math.nan)
    assert main(["check-algebra", *argv]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_check_algebra_fails_the_nan_identities_at_mu_1e308(capsys):
    # Every identity is inf - inf there; the NaN deviation prints as null.
    assert main(["check-algebra", "--mu", "1e308", "--nu", "-1e308"]) == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert json.loads(captured.out)["max_commutator_deviation"] is None


@pytest.mark.parametrize("argv", [
    ["--mu", "100.3", "--nu", "0.3"],
    ["--mu", "1e6", "--nu", "0.3"],
    ["--gamma", "0.5", "--delta", "-0.5", "--alpha", "-63.5", "--beta", "-63", "--a", "1e6",
     "--q", "0.7"],
    ["--gamma", "0.5", "--delta", "-0.5", "--alpha", "-5000.5", "--beta", "-5000", "--a", "2.9"],
], ids=["mu-100.3", "mu-1e6", "n128-a-1e6", "alpha-5000.5"])
def test_check_algebra_passes_exact_inputs_with_large_terms(argv, capsys):
    # Rounding alone exceeded the old absolute thresholds on these (2.2e-12,
    # 2.4e-4, 4.8e-8 and 3.5e-9); measured against the identities' own
    # terms they pass.
    rc, doc = run_json(capsys, ["check-algebra", *argv])
    assert rc == 0
    assert doc["max_commutator_deviation"] <= 1e-15
    assert doc.get("max_reconstruction_deviation", 0.0) <= 1e-15


def test_check_algebra_fails_a_planted_decomposition(monkeypatch, capsys):
    def planted(params):
        dec = decompose(params)
        return dec._replace(c1=dec.c1 + 1e-9)

    monkeypatch.setattr(su11_module, "decompose", planted)
    assert main(["check-algebra", "--preset", "example1"]) == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert json.loads(captured.out)["max_reconstruction_deviation"] > cli.RECONSTRUCTION_THRESHOLD


def test_negative_threshold_is_refused(tmp_path, capsys):
    doc = tmp_path / "spectrum.json"
    assert main(["spectrum", "--preset", "example1", "--json", str(doc)]) == 0
    capsys.readouterr()
    assert main(["verify", "--solution", str(doc), "--threshold", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold must not be negative: threshold=-1.0" in captured.err
    # A threshold of 0 stays valid: the document is scored against it.
    assert main(["verify", "--solution", str(doc), "--threshold", "0"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["threshold"] == 0
    assert "have a residual over 0" in captured.err


def test_literal_defaults_match_the_library_constants():
    # cli.py writes --kmax as a literal, since importing series_engine's
    # constant would load numpy at start-up; --samples reads heun_core's.
    from heun_su11.heun_core import DEFAULT_SAMPLE_COUNT
    from heun_su11.series_engine import DEFAULT_TRUNCATION

    parser = cli._build_parser()
    series = parser.parse_args(["series", "--preset", "lame"])
    spectrum = parser.parse_args(["spectrum", "--preset", "lame"])
    assert (series.kmax, series.samples, spectrum.samples) == (
        DEFAULT_TRUNCATION, DEFAULT_SAMPLE_COUNT, DEFAULT_SAMPLE_COUNT)


def test_usage_errors_exit_64(capsys):
    assert main(["decompose", "--bogus"]) == 64
    assert main(["decompose"]) == 64
    assert main(["decompose", "--rho", "0"]) == 64
    assert main(["decompose", "--preset", "lame", "--gamma", "0.5"]) == 64
    capsys.readouterr()


# One command line per cause of a library error, with its exit code and its
# whole stderr line; stdin, when not None, is the JSON document it reads.
# A stored Casimir that disagrees is test_inconsistent_stored_decomposition.
ERROR_CAUSES = {
    "singularity": (["decompose", "--preset", "example1", "--a", "0"], None, 1,
                    "singularity location a=0.0 collides with a fixed singular point"),
    "exponent-balance": (["decompose", "--gamma", "0.5", "--delta", "0.5", "--alpha", "0",
                          "--beta", "0.5", "--a", "2", "--epsilon", "3"], None, 1,
                         "gamma+delta+epsilon - (alpha+beta+1) = 2.500e+00 exceeds tolerance "
                         "1e-09"),
    "complex-exponents": (["decompose", "--rho", "1", "--a", "2"], None, 1,
                          "exponents at infinity are complex for rho=1.0 (discriminant "
                          "-1.750e+00)"),
    "not-factorizable": (["decompose", "--preset", "example1", "--gamma", "0.8"], None, 1,
                         "not factorizable: gamma=0.8 is off {1/2, 3/2} by 3.000e-01"),
    "no-finite-ladder": (["spectrum", "--gamma", "0.5", "--delta", "-0.5", "--alpha", "1",
                          "--beta", "1.5", "--a", "2"], None, 1,
                         "no finite-dimensional ladder exists here: 2(nu-mu) is not a nonnegative "
                         "integer"),
    "sub-grid-over-the-cap": (["spectrum", "--gamma", "0.5", "--delta", "-0.5", "--alpha", "-300.5",
                               "--beta", "-300", "--a", "2"], None, 1,
                              "sub-grid size 301 exceeds the cap 64"),
    "recurrence-breakdown": (["series", "--rep", "pd", "--decomposition", "-"],
                             {"mu": 0, "nu": 0, "c_plus": 1, "c_minus": 0, "c2": 1, "c1": 1,
                              "c0": 0, "casimir": 0}, 2,
                             "numerical failure: leading divisor vanished at step 1; the ladder "
                             "truncates and the forward recurrence cannot continue"),
    "eigensolver": (["spectrum", "--preset", "example1"], None, 2,
                    "numerical failure: did not converge"),
}


@pytest.mark.parametrize("cause", ERROR_CAUSES)
def test_each_error_cause_exits_with_its_code_and_line(cause, capsys, monkeypatch):
    argv, stdin, code, line = ERROR_CAUSES[cause]
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    if cause == "eigensolver":
        def no_convergence(_):
            raise spectrum_module.np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(spectrum_module.np.linalg, "eigvalsh", no_convergence)
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"heun-su11: {line}\n")


EXAMPLE1_DECOMPOSITION = {
    "c0": 0.75, "c1": 0.0, "c2": -0.75, "c_minus": 0.5, "c_plus": 0.25,
    "casimir": -2.0, "mu": -1.0, "nu": 0.0,
}
EXAMPLE1_FLAGS = ["--gamma", "0.5", "--delta", "-0.5", "--alpha", "-1", "--beta", "-0.5"]
# A series document with an overflowed (null) coefficient, which scores inf.
OVERFLOWED_SERIES_DOC = {
    "ode_coefficients": {"a0": 1.0, "a1": -6.0, "a2": 4.0, "a3": -0.5, "a4": 2.5, "a5": 2.0,
                         "a6": 0.0, "a7": -0.3},
    "series": {"K": 1, "coefficients": [1.0, None], "direction": "descending",
               "domain": [4.0, None], "p0": 0.0, "parity": "even", "q": 0.3},
}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["decompose", "--gamma", "0.5", "--delta", "nan", "--alpha", "-1",
          "--beta", "-0.5", "--a", "2"], None),
        (["decompose", "--gamma", "0.5", "--delta", "-0.5", "--alpha", "nan",
          "--beta", "-0.5", "--a", "2"], None),
        (["decompose", *EXAMPLE1_FLAGS, "--a", "inf"], None),
        (["decompose", "--rho", "nan", "--a", "2"], None),
        (["series", *EXAMPLE1_FLAGS, "--a", "2", "--q", "nan"], None),
        (["series", "--decomposition", "-", "--q", "nan"], EXAMPLE1_DECOMPOSITION),
        (["spectrum", "--decomposition", "-"], {**EXAMPLE1_DECOMPOSITION, "c1": math.nan}),
        (["verify", "--solution", "-", "--threshold", "inf"], OVERFLOWED_SERIES_DOC),
        (["check-algebra", "--mu", "nan", "--nu", "0"], None),
        (["check-algebra", "--mu", "inf", "--nu", "0"], None),
        (["check-algebra", "--mu", "0", "--nu=-inf"], None),
    ],
    ids=["delta", "alpha", "a", "rho", "q", "decomposition-q", "decomposition-c1",
         "threshold", "check-algebra-mu-nan", "check-algebra-mu-inf", "check-algebra-nu-inf"],
)
def test_non_finite_input_exits_1(argv, stdin, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite input" in captured.err


def test_spectrum_without_finite_ladder_exits_1(capsys):
    rc = main([
        "spectrum",
        "--gamma", "0.5", "--delta", "0.5", "--alpha", "0.25", "--beta", "0.75",
        "--a", "2",
    ])
    assert rc == 1
    assert "finite-dimensional" in capsys.readouterr().err


def test_spectrum_with_failing_pair_still_prints_and_exits_1(capsys, monkeypatch):
    solve = spectrum_module.solve_spectrum

    def one_bad_pair(dec, rep):
        result = solve(dec, rep)
        result.subgrids[0].residuals[0] = 1e-3
        return result

    monkeypatch.setattr(spectrum_module, "solve_spectrum", one_bad_pair)
    assert main(["spectrum", "--preset", "example1"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [pair["residual"] for pair in doc["eigenpairs"]][0] == 1e-3
    assert "1 of 3 eigenpairs" in captured.err


OVERFLOWING_SERIES = ["series", "--preset", "example1", "--a", "4", "--q", "0.3", "--rep", "nd",
                      "--kmax", "1000"]


def test_series_with_overflowed_coefficients_still_prints_and_exits_1(capsys):
    assert main(OVERFLOWING_SERIES) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert None in doc["series"]["coefficients"]
    assert "the series has non-finite coefficients from b_516 on" in captured.err


def test_series_with_residual_over_threshold_still_prints_and_exits_1(capsys, monkeypatch):
    solve = series_module.series_solution

    def one_bad_coefficient(*args, **kwargs):
        sol = solve(*args, **kwargs)
        b = sol.coefficients
        return sol._replace(coefficients=(b[0], b[1] * (1 + 1e-3), *b[2:]))

    monkeypatch.setattr(series_module, "series_solution", one_bad_coefficient)
    assert main(["series", "--preset", "lame", "--q", "0.3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["series"]["K"] == 60
    assert "series residual" in captured.err


def test_verify_reads_null_as_nan(capsys, monkeypatch):
    # The writer prints non-finite numbers as null; verify must score them,
    # not fail to parse them.
    main(OVERFLOWING_SERIES)
    text = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, report = run_json(capsys, ["verify", "--solution", "-"])
    assert rc == 1
    assert report["passed"] is False
    assert report["results"][0]["max_relative_residual"] is None
    # Null ode coefficients still meet the non-finite gate.
    doc = json.loads(text)
    doc["ode_coefficients"]["a0"] = None
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite input" in captured.err


@pytest.mark.parametrize("argv", [
    ["--gamma", "1.5", "--delta", "-0.5", "--alpha", "-0.3", "--beta", "0.2", "--a", "0.1"],
    ["--gamma", "0.5", "--delta", "-0.5", "--alpha", "-0.095", "--beta", "0.405",
     "--a", "-3.912"],
], ids=["gamma", "exponent-gap"])
def test_zero_tolerance_accepts_exact_input(argv, capsys):
    # gamma and |alpha-beta| are exact here; a5/a2 and a6, rounded, are not.
    params = make_parameters(q=0.0, **{flag[2:]: float(v) for flag, v in zip(argv[::2], argv[1::2])})
    report = su11_module.check_factorizable(params)
    assert (report.gap_deviation, report.gamma_deviation) == (0.0, 0.0)
    assert run_json(capsys, ["decompose", *argv]) == (0, decompose(params).to_json_dict())


GATE_FLAGS = ["--delta", "-0.5", "--alpha", "-7.5", "--a", "3"]


@pytest.mark.parametrize("argv, err", [
    (["spectrum", *GATE_FLAGS, "--gamma", "0.5000000001", "--beta", "-7"],
     "heun-su11: not factorizable: gamma=0.5000000001 is off {1/2, 3/2} by 1.000e-10\n"),
    (["spectrum", *GATE_FLAGS, "--gamma", "0.5", "--beta", "-6.9999999999"],
     "heun-su11: not factorizable: |alpha-beta|=0.5000000001 is off 1/2 by 1.000e-10, "
     "over the rounding bound 1.776e-15 of alpha and beta\n"),
    (["series", "--gamma", "0.5", "--delta", "-0.5", "--alpha", "-16.4", "--beta", "-15.9",
      "--a", "3", "--q", "0.2"], ""),
], ids=["gamma-off-1e-10", "beta-off-1e-10", "decimal-gap"])
def test_factorization_gate_decides_from_the_inputs(argv, err, capsys, monkeypatch):
    # gamma is 1/2 or 3/2 exactly; |alpha-beta| is 1/2 to the rounding of
    # alpha and beta, so -16.4 and -15.9, whose float gap is 1/2 + 1.8e-15,
    # pass, and the document verifies.
    rc = main(argv)
    out, got = capsys.readouterr()
    assert (rc, got) == (1 if err else 0, err)
    if err:
        assert out == ""
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert main(["verify", "--solution", "-"]) == 0


def test_params_file_and_stdin(tmp_path, monkeypatch, capsys):
    params = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc, doc = run_json(capsys, ["decompose", "--params", str(path)])
    assert rc == 0 and doc["mu"] == -1.0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(params)))
    rc, doc = run_json(capsys, ["decompose", "--params", "-"])
    assert rc == 0 and doc["mu"] == -1.0


def test_params_file_rejections(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"gamma": 0.5, "zeta": 1.0}))
    assert main(["decompose", "--params", str(path)]) == 1
    assert main(["decompose", "--params", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


EXAMPLE1_PARAMS = dict(gamma=0.5, delta=-0.5, alpha=-1.0, beta=-0.5, a=2.0, q=0.0)


@pytest.mark.parametrize("argv, doc", [
    (["series", "--params", "-"], {**EXAMPLE1_PARAMS, "q": True}),
    (["series", "--params", "-"], {**EXAMPLE1_PARAMS, "a": "2"}),
    (["series", "--decomposition", "-", "--q", "0.3"], {**EXAMPLE1_DECOMPOSITION, "mu": "-1.0"}),
    (["series", "--decomposition", "-", "--q", "0.3"], {**EXAMPLE1_DECOMPOSITION, "c1": False}),
    (["verify", "--solution", "-"],
     {**OVERFLOWED_SERIES_DOC, "series": {**OVERFLOWED_SERIES_DOC["series"], "K": True}}),
    (["verify", "--solution", "-"],
     {**OVERFLOWED_SERIES_DOC, "series": {**OVERFLOWED_SERIES_DOC["series"], "p0": "0"}}),
    (["verify", "--solution", "-"],
     {**OVERFLOWED_SERIES_DOC, "ode_coefficients": {**OVERFLOWED_SERIES_DOC["ode_coefficients"],
                                                    "a0": True}}),
], ids=["params-bool", "params-string", "decomposition-string", "decomposition-bool",
        "series-K-bool", "series-p0-string", "ode-coefficients-bool"])
def test_a_bool_or_a_string_is_not_a_json_number(argv, doc, capsys, monkeypatch):
    # Every reader of a JSON number takes jsonio.as_number's rule: a bool or
    # a string is refused with exit 1, and nothing is printed.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("heun-su11: invalid input: expected a number, got ")


def test_an_eigenpair_exponent_must_be_a_json_number(capsys, monkeypatch):
    rc, doc = run_json(capsys, ["spectrum", "--preset", "example1"])
    assert rc == 0
    doc["eigenpairs"][0]["coefficients"][0]["exponent"] = True
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    assert capsys.readouterr().err == "heun-su11: invalid input: expected a number, got True\n"


def test_inconsistent_stored_decomposition(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    assert main(["decompose", "--preset", "example1", "--json", str(dec_path)]) == 0
    doc = json.loads(dec_path.read_text())
    doc["casimir"] += 0.1
    dec_path.write_text(json.dumps(doc))
    assert main(["classify", "--decomposition", str(dec_path)]) == 1
    assert capsys.readouterr().err == (
        "heun-su11: stored casimir -1.9 does not match mu, nu (expected -2.0)\n")


def test_json_file_output_leaves_stdout_empty(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert main(["decompose", "--preset", "example1", "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["nu"] == 0.0


def test_spectrum_csv_blocks(tmp_path, capsys):
    csv_path = tmp_path / "plot.csv"
    rc = main([
        "spectrum", "--preset", "example1",
        "--json", str(tmp_path / "s.json"), "--csv", str(csv_path), "--samples", "10",
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("# q=")]
    headers = [ln for ln in lines if ln == "z,value"]
    assert len(comments) == 3 and len(headers) == 3
    assert len(lines) == 3 * (2 + 10)
    capsys.readouterr()


def test_series_csv_single_block(tmp_path, capsys):
    csv_path = tmp_path / "plot.csv"
    rc = main([
        "series", "--preset", "lame", "--q", "1",
        "--json", str(tmp_path / "s.json"), "--csv", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# q=1 direction=ascending")
    assert lines[1] == "z,value"
    assert len(lines) == 2 + 25
    capsys.readouterr()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "heun_su11", "spectrum", "--preset", "example1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["eigenpairs"]) == 3


def ladder_argv(n, gamma, a):
    """spectrum flags for the finite ladder of length n at delta = -1/2."""
    mu = {0.5: 0.0, 1.5: 0.5}[gamma] - (n - 1) / 2.0
    return ["spectrum", "--gamma", repr(gamma), "--delta", "-0.5", "--alpha", repr(mu),
            "--beta", repr(mu + 0.5), "--a", repr(a)]


def spectrum_then_verify(argv, capsys, monkeypatch):
    """(spectrum exit code, its document, verify exit code, its report) of one pipe."""
    spectrum_rc = main(argv)
    text = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = main(["verify", "--solution", "-"])
    return spectrum_rc, json.loads(text), rc, json.loads(capsys.readouterr().out)


def test_verify_scores_every_emitted_pair_exactly(capsys, monkeypatch):
    """verify scores each pair exactly in coefficient space, also the real
    pairs of a sub-grid with complex eigenvalues.  On these ladders it exits
    as spectrum does: 0, except at a = -0.5, n = 128, where both exit 1
    (the exact score is 4.8e-7, ROADMAP item 2)."""
    rng = random.Random(8)
    cases = [(-3.0, 32, 0.5), (2.0, 2, 0.5), (-0.5, 128, 1.5)]
    for _ in range(10):
        cases.append((rng.choice((0.25, 1.01, 2.0, 4.0, -3.0, -0.5)), rng.randint(2, 128),
                      rng.choice((0.5, 1.5))))
    seen_mixed = seen_zero_q = 0
    for a, n, gamma in cases:
        spectrum_rc, doc, rc, report = spectrum_then_verify(
            ladder_argv(n, gamma, a), capsys, monkeypatch)
        pairs = doc["eigenpairs"]
        assert len(pairs) == n and rc == spectrum_rc and report["passed"] is (rc == 0)
        check_exact_scores(doc, [r["max_relative_residual"] for r in report["results"]])
        for parity in ("even", "odd"):
            real = {pair["q"]["im"] == 0.0 for pair in pairs
                    if pair["parity"] == parity and isinstance(pair["q"], dict)}
            seen_mixed += real == {True, False}
        seen_zero_q += any(pair["q"] == 0.0 and pair["residual"] == 0.0 for pair in pairs)
    assert seen_mixed and seen_zero_q


def test_a_planted_zero_coefficient_is_scored_exactly(capsys, monkeypatch):
    """An exact zero in an eigenvector is a zero term: spectrum's samples and
    verify's exact sums both fail the two planted pairs, and verify scores
    every pair, zero terms included, as the exact reference does."""
    normalize = spectrum_module._normalize_rows

    def plant_zero(rows):
        rows = normalize(rows)
        rows[0, abs(rows[0]).argmin()] = 0.0
        return rows

    monkeypatch.setattr(spectrum_module, "_normalize_rows", plant_zero)
    spectrum_rc, doc, rc, report = spectrum_then_verify(
        ladder_argv(96, 0.5, 2.0), capsys, monkeypatch)
    assert spectrum_rc == rc == 1
    pairs = doc["eigenpairs"]
    planted = [i for i, pair in enumerate(pairs)
               if 0.0 in [t["value"] for t in pair["coefficients"]]]
    assert len(planted) == 2 and len(pairs[planted[0]]["coefficients"]) >= 31
    scores = [r["max_relative_residual"] for r in report["results"]]
    assert [i for i, score in enumerate(scores) if score > 1e-8] == planted
    check_exact_scores(doc, scores)


def test_verify_scores_each_parity_with_one_call(capsys, monkeypatch):
    """One exact_residuals call scores the whole document, and it builds the
    rows of each exponent once, 64 per parity at n = 128, not once per pair;
    the sampled scorer is not called."""
    main(ladder_argv(128, 0.5, 4.0))
    text = capsys.readouterr().out
    calls, exponents = [], []
    score, rows = cli.exact_residuals, heun_core._integer_rows

    def counting(coeffs, candidates):
        calls.append(len(candidates))
        return score(coeffs, candidates)

    def counting_rows(coeffs, sizes, key, e):
        exponents.append(Fraction(key, e))
        return rows(coeffs, sizes, key, e)

    def sampled(*args):
        raise AssertionError("verify called the sampled scorer")

    monkeypatch.setattr(cli, "exact_residuals", counting)
    monkeypatch.setattr(heun_core, "_integer_rows", counting_rows)
    monkeypatch.setattr(verifier_module, "residual_block", sampled)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["verify", "--solution", "-"]) == 0
    capsys.readouterr()
    assert calls == [128]
    assert sorted(exponents) == [Fraction(k, 2) for k in range(128)]


SET_EDITS = {
    "three-copies": (["--preset", "example1", "--a", "4"], lambda pairs: [pairs[0]] * 3,
                     "the exponent set {0, 1} needs 2 eigenpairs, one per exponent; the "
                     "document lists 3"),
    "first-only": (["--preset", "example1", "--a", "4"], lambda pairs: pairs[:1],
                   "the exponent set {0, 1} needs 2 eigenpairs, one per exponent; the "
                   "document lists 1"),
    "identical": (ladder_argv(10, 0.5, 2.0)[1:], lambda pairs: [pairs[0], *pairs[:4], *pairs[5:]],
                  "the exponent set {0, 1, ..., 4} lists two identical eigenpairs"),
}


@pytest.mark.parametrize("case", sorted(SET_EDITS))
def test_verify_refuses_pairs_that_cannot_be_the_whole_spectrum(case, capsys, monkeypatch):
    """Each pair of these documents scores at rounding level, but an exponent
    set must list one pair per exponent, no two identical; verify names the
    set, prints no report and exits 1."""
    argv, edit, line = SET_EDITS[case]
    assert main(["spectrum", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["eigenpairs"] = edit(doc["eigenpairs"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    assert capsys.readouterr() == ("", f"heun-su11: {line}\n")


def vacuous(doc):
    """Documents that carry no solution to check, or whose q = 123 is wrong at
    an a = a2 in [0, 1e-6], where every default sample of (0, a) lies at 0 or
    within 1e-6 of a: verify's exact sums take no sample, so they still
    score those pairs, over the threshold."""
    no_terms = json.loads(json.dumps(doc))
    for pair in no_terms["eigenpairs"]:
        pair.update(coefficients=[], q=123.0)
    zeros = json.loads(json.dumps(doc))
    for pair in zeros["eigenpairs"]:
        for term in pair["coefficients"]:
            term["value"] = 0.0
    cases = {"no-terms": no_terms, "zero-coefficients": zeros,
             "no-pairs": {**doc, "eigenpairs": []}}
    for a2 in (0.0, 1e-300, 1e-7):
        cases[f"no-samples-{a2:g}"] = unsampled = json.loads(json.dumps(doc))
        unsampled["ode_coefficients"]["a2"] = a2
        for pair in unsampled["eigenpairs"]:
            pair["q"] = 123.0
    return cases


@pytest.mark.parametrize("case", ["no-terms", "zero-coefficients", "no-pairs", "no-samples-0",
                                  "no-samples-1e-300", "no-samples-1e-07"])
def test_verify_fails_documents_without_a_solution(case, capsys, monkeypatch):
    main(["spectrum", "--preset", "example1"])
    doc = vacuous(json.loads(capsys.readouterr().out))[case]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    out = capsys.readouterr().out
    if out:
        report = json.loads(out)
        assert report["passed"] is False
        scores = [r["max_relative_residual"] for r in report["results"]]
        if case.startswith("no-samples"):
            assert all(score > 1e-8 for score in scores)
        else:
            assert scores == [None] * len(scores)


@pytest.mark.parametrize("option", [["--csv", "plot.csv"], ["--samples", "5"]],
                         ids=["csv", "samples"])
@pytest.mark.parametrize("argv", [
    ["decompose", "--preset", "example1"],
    ["classify", "--preset", "example1"],
    ["check-algebra", "--preset", "example1"],
    ["verify", "--solution", "spectrum.json"],
], ids=["decompose", "classify", "check-algebra", "verify"])
def test_options_a_subcommand_ignores_are_usage_errors(argv, option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--preset", "example1", "--json", "spectrum.json"]) == 0
    assert main(argv + option) == 64
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "plot.csv").exists()


def test_spectrum_where_no_sample_would_survive_exits_0(capsys, monkeypatch):
    # Every Chebyshev node of (0, 1e-7) lies within the singularity radius of
    # a, but spectrum scores in coefficient space and takes no sample: the
    # document passes, with finite residuals, as verify passes it.
    assert main(["spectrum", "--preset", "example1", "--a", "1e-7"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    residuals = [pair["residual"] for pair in json.loads(captured.out)["eigenpairs"]]
    assert len(residuals) == 3 and max(residuals) < 1e-15
    monkeypatch.setattr(sys, "stdin", io.StringIO(captured.out))
    assert main(["verify", "--solution", "-"]) == 0


def test_ascending_series_with_no_surviving_sample_exits_1(capsys):
    # Every node of (0, 5e-8), the ascending sample domain, lies within 1e-6 of a = 1e-7.
    assert main(["series", "--preset", "example1", "--a", "1e-7", "--q", "0.3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["series"]["direction"] == "ascending"
    assert captured.err == ("heun-su11: no sample point is left to check the series on: "
                            "each is off the positive axis or within 1e-06 of a singular point\n")


@pytest.mark.parametrize("direction, a2, domain", [
    # Every node of (0, 5e-8) lies within the singularity radius of a = 1e-7.
    ("ascending", 1e-7, [0.0, 1e-7]),
    # (2R, 4R) overflows to (inf, inf), which holds no sample.
    ("descending", 1e308, [1e308, None]),
    ("sideways", 2.0, [0.0, 1.0]),
], ids=["ascending-empty", "descending-empty", "sideways"])
def test_verify_fails_series_when_no_sample_survives(direction, a2, domain, capsys, monkeypatch):
    main(["series", "--preset", "example1", "--q", "0.3"])
    doc = json.loads(capsys.readouterr().out)
    doc["series"].update(coefficients=[1.0, 123.0, -7.0], K=2, direction=direction, domain=domain)
    doc["ode_coefficients"]["a2"] = a2
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    out = capsys.readouterr().out
    if direction == "sideways":
        assert out == ""
    else:
        assert json.loads(out)["results"][0]["max_relative_residual"] is None


EMITTER_CAUSES = {
    "eigenpairs-no-sample": ["spectrum", "--preset", "example1", "--a", "1e-7"],
    "series-no-sample": ["series", "--preset", "example1", "--a", "1e-7", "--q", "0.3"],
    "series-past-the-largest-float": ["series", "--preset", "example1", "--a", "1e308",
                                      "--q", "0.3", "--rep", "nd"],
    "series-non-finite": OVERFLOWING_SERIES,
    "series-over-threshold": ["series", "--preset", "lame", "--q", "0.3", "--kmax", "1"],
    "eigenpairs-overflowed": ["spectrum", "--preset", "example1", "--a", "1e308"],
    "series-overflowed": ["series", "--preset", "example1", "--a", "1e300", "--q", "0.3",
                          "--rep", "nd", "--kmax", "1"],
    "eigenpairs-over-threshold": ladder_argv(128, 0.5, 1e-5),
}


@pytest.mark.parametrize("case", sorted(EMITTER_CAUSES))
def test_verify_names_the_cause_the_emitter_named(case, capsys, monkeypatch):
    """verify exits on a document as its emitter did and names the same
    cause.  A series is scored by one rule in both.  At a = 1e300 (K = 1)
    the series' exact rows and its share pass where its sampled sums once
    passed the largest float, so neither names a cause.  Eigenpairs are
    scored in coefficient space by both, with no sample, so the eigenpairs
    documents that once failed spectrum's samples pass both: at a = 1e-7,
    where no sample is left, at a = 1e308, where the sampled sums passed the
    largest float, and at a = 1e-5 (n = 128), where 5 pairs scored over
    1e-8 at the samples.  Each printed residual lies within 2^-48 of
    verify's exact score, at most 5.4e-10."""
    code = main(EMITTER_CAUSES[case])
    emitted = capsys.readouterr()
    assert len(emitted.err.splitlines()) == code
    assert code == (case.startswith("series") and case != "series-overflowed")
    monkeypatch.setattr(sys, "stdin", io.StringIO(emitted.out))
    assert main(["verify", "--solution", "-"]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] is (code == 0)
    assert captured.err == emitted.err
    if case.startswith("eigenpairs"):
        residuals = [pair["residual"] for pair in json.loads(emitted.out)["eigenpairs"]]
        scores = [r["max_relative_residual"] for r in report["results"]]
        assert max(scores) < 6e-10
        assert all(abs(r - s) <= 2.0**-48 for r, s in zip(residuals, scores))


def test_verify_names_failing_pairs_at_its_own_threshold(capsys, monkeypatch):
    main(["spectrum", "--preset", "example1"])
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-", "--threshold", "1e-20"]) == 1
    assert capsys.readouterr().err == "heun-su11: 2 of 3 eigenpairs have a residual over 1e-20\n"
    doc["eigenpairs"][0]["q"] += 1e-6
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    assert capsys.readouterr().err == "heun-su11: 1 of 3 eigenpairs have a residual over 1e-08\n"


def test_an_overflowed_residual_names_its_cause(capsys, monkeypatch):
    # At a = 1e308 the odd pair, z^0.5 with q = 2.5e307, is finite, and its
    # terms in the polynomial form passed the largest float at every sample.
    # spectrum scores in coefficient space at one power-of-two scale, so no
    # residual overflows: the document passes, and verify's exact sums pass
    # it too.  A pair with a wrong q, or a null coefficient, exponent or q,
    # fails for its own cause alone.
    assert main(["spectrum", "--preset", "example1", "--a", "1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    odd = doc["eigenpairs"][2]
    assert (odd["parity"], odd["q"]) == ("odd", 2.5e307) and odd["residual"] < 1e-15
    monkeypatch.setattr(sys, "stdin", io.StringIO(captured.out))
    assert main(["verify", "--solution", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][2]["max_relative_residual"] < 1e-15
    null = {"coefficients": [{"exponent": 0, "value": None}]}
    null_exponent = {"coefficients": [{"exponent": None, "value": 1.0}]}
    for pair, change, cause in ((0, {"q": 0.0}, "a residual over 1e-08"),
                                (1, null, "non-finite coefficients or q"),
                                (1, null_exponent, "non-finite exponents"),
                                (1, {"q": None}, "non-finite coefficients or q")):
        forged = json.loads(captured.out)
        forged["eigenpairs"][pair].update(change)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(forged)))
        assert main(["verify", "--solution", "-"]) == 1
        assert capsys.readouterr().err == f"heun-su11: 1 of 3 eigenpairs have {cause}\n"
    # A series is scored by its exact rows and its truncation share, which
    # cannot overflow: at a = 1e300 the K = 1 series, whose sampled sums
    # pass the largest float, passes series and verify alike.
    assert main(["series", "--preset", "example1", "--a", "1e300", "--q", "0.3", "--rep", "nd",
                 "--kmax", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["series"]["coefficients"] == [1, 0.6]
    assert captured.err == ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(captured.out))
    assert main(["verify", "--solution", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["max_relative_residual"] < 1e-15


def _zero_values(pair):
    for term in pair["coefficients"]:
        term["value"] = 0.0


def _null_first_exponent(pair):
    pair["coefficients"][0]["exponent"] = None


def _zero_series(series):
    series["coefficients"] = [0.0] * len(series["coefficients"])


def _null_p0_and_b3(series):
    series["p0"] = series["coefficients"][3] = None


# Forged documents whose failing candidates mix causes: the command that
# prints the document, an edit of eigenpair i (or of the series, i None),
# and the one line verify prints.  The zero function scores inf, but its
# coefficients are all zero.  The a = 1e308 document passes spectrum and
# verify, so only the forged pairs fail.
MIXED_CAUSES = {
    "eigenpairs-zero-null-overflowed": (
        ["spectrum", "--preset", "example1", "--a", "1e308"],
        [(0, _zero_values),
         (1, lambda pair: pair.update(coefficients=[{"exponent": None, "value": None}]))],
        "1 of 3 eigenpairs have non-finite exponents; 1 of 3 eigenpairs have a residual over "
        "1e-08"),
    "eigenpairs-q-exponent-null-q": (
        ["spectrum", "--preset", "example1", "--a", "4"],
        [(0, lambda pair: pair.update(q=pair["q"] + 1)), (1, _null_first_exponent),
         (2, lambda pair: pair.update(q=None))],
        "1 of 3 eigenpairs have non-finite exponents; 1 of 3 eigenpairs have non-finite "
        "coefficients or q; 1 of 3 eigenpairs have a residual over 1e-08"),
    "series-null-q": (
        ["series", "--preset", "example1", "--q", "0.3"],
        [(None, lambda series: series.update(q=None))],
        "the series residual inf is over 1e-08"),
    "series-null-p0-and-b3": (
        ["series", "--preset", "example1", "--q", "0.3"],
        [(None, _null_p0_and_b3)],
        "the series has non-finite coefficients from b_3 on, so its residual inf is over 1e-08"),
    "series-zero-function": (
        ["series", "--preset", "example1", "--q", "0.3"],
        [(None, _zero_series)],
        "the series residual inf is over 1e-08"),
}


@pytest.mark.parametrize("case", sorted(MIXED_CAUSES))
def test_verify_names_each_cause_of_a_forged_document(case, capsys, monkeypatch):
    argv, edits, line = MIXED_CAUSES[case]
    main(argv)
    doc = json.loads(capsys.readouterr().out)
    for i, edit in edits:
        edit(doc["series"] if i is None else doc["eigenpairs"][i])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert captured.err == f"heun-su11: {line}\n"


def test_descending_series_past_the_largest_float_names_its_cause(capsys):
    # (2R, 4R) = (inf, inf) at R = 1e308, 4R = inf already at R = 5e307, and
    # at R = 4e307 the nodes' midpoint 2R + 4R overflows.
    for a, shown in (("1e308", "1e+308"), ("5e307", "5e+307"), ("4e307", "4e+307")):
        assert main(["series", "--preset", "example1", "--a", a, "--q", "0.3", "--rep", "nd"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["series"]["direction"] == "descending"
        assert captured.err == (
            "heun-su11: no sample point is left to check the series on: the sample domain "
            f"(2R, 4R) lies past the largest float at R={shown}\n")


def test_series_csv_past_the_largest_float_names_the_gate_cause(tmp_path, capsys):
    # The CSV nodes of a descending series lie in (R, 4R): inf from R = 3.6e307
    # on, where the CSV is not written and the gate names the cause.  Below,
    # at R = 3.2e307, the nodes are finite and the rows are written as before,
    # though (2R, 4R) already overflows.
    for a, rows in (("1e308", None), ("4e307", None), ("3.6e307", None), ("3.2e307", 25)):
        csv_path = tmp_path / f"{a}.csv"
        argv = ["series", "--preset", "example1", "--a", a, "--q", "0.3", "--rep", "nd",
                "--kmax", "2", "--csv", str(csv_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["series"]["K"] == 2
        assert captured.err == (
            "heun-su11: no sample point is left to check the series on: the sample domain "
            f"(2R, 4R) lies past the largest float at R={float(a):g}\n")
        if rows is None:
            assert not csv_path.exists()
        else:
            lines = csv_path.read_text().splitlines()
            assert len(lines) == 2 + rows and "inf" not in csv_path.read_text()


def test_verify_refuses_a_forged_series_domain(capsys, monkeypatch):
    # A domain squeezed to (0, 1e-12) would sample only where z^m hides the
    # forged coefficients; verify derives the domain from a2 and the direction.
    main(["series", "--preset", "example1", "--a", "2", "--q", "0.3", "--kmax", "20"])
    doc = json.loads(capsys.readouterr().out)
    doc["series"]["coefficients"][2:] = [123.0] * 19
    doc["series"]["domain"] = [0.0, 1e-12]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "series domain [0.0, 1e-12] is not the convergence domain [0.0, 1.0]" in captured.err
    doc["series"]["domain"] = [0.0, 1.0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    assert json.loads(capsys.readouterr().out)["max_relative_residual"] > 1e-8


@pytest.mark.parametrize("edit", [{"parity": "banana"}, {"K": 7}], ids=["parity", "K"])
def test_verify_rejects_an_inconsistent_series_document(edit, capsys, tmp_path):
    main(["series", "--preset", "example1", "--q", "0.3"])
    doc = json.loads(capsys.readouterr().out)
    doc["series"].update(edit)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--solution", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"series {next(iter(edit))}" in captured.err


def test_verify_scores_a_series_with_a_nan_base_as_null(capsys, monkeypatch):
    # A NaN exponent keeps its powers in the residual's power matrix, and
    # the gate names the base exponent, not an overflow, as the cause.
    main(["series", "--preset", "example1", "--q", "0.3"])
    doc = json.loads(capsys.readouterr().out)
    for p0 in (math.nan, None):
        doc["series"]["p0"] = p0
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert main(["verify", "--solution", "-"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["max_relative_residual"] is None
        assert report["results"][0]["max_relative_residual"] is None
        assert captured.err == ("heun-su11: the series base exponent p0 is not finite, so its "
                                "residual inf is over 1e-08\n")


@pytest.mark.parametrize("argv, stdin", [
    (["decompose", "--params", "-"], ["gamma"]),
    (["spectrum", "--decomposition", "-"], [1.0]),
    (["verify", "--solution", "-"], "spectrum"),
    (["verify", "--solution", "-"], {"ode_coefficients": [], "eigenpairs": []}),
], ids=["params", "decomposition", "solution", "ode-coefficients"])
def test_json_that_is_not_an_object_exits_1(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("heun-su11: ") and captured.err.count("\n") == 1
    assert "must be a JSON object" in captured.err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", [["spectrum", "--preset", "example1"],
                                     ["series", "--preset", "example1", "--q", "0.3"]],
                         ids=["spectrum", "series"])
def test_samples_below_1_are_usage_errors(command, samples, tmp_path, capsys):
    csv_path = tmp_path / "plot.csv"
    assert main(command + ["--csv", str(csv_path), "--samples", samples]) == 64
    assert "--samples" in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_kmax_below_1_is_a_usage_error(kmax, capsys):
    assert main(["series", "--preset", "example1", "--q", "0.3", "--kmax", kmax]) == 64
    assert "--kmax" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, text", [("series", "--kmax", "x"),
                                                   ("spectrum", "--samples", "1.5")])
def test_a_count_that_is_not_an_integer_is_a_usage_error(command, option, text, capsys):
    assert main([command, "--preset", "example1", option, text]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"heun-su11: usage error: argument {option}: invalid int value: '{text}'\n"


def test_csv_reraises_an_inf_minus_inf_of_finite_coefficients(tmp_path):
    # Both coefficients are finite, but their terms at z = 0.5 overflow to
    # inf and -inf: no coefficient is named, and fsum's own error stands.
    sol = series_module.SeriesSolution(-10.0, "ascending", "even", 0.0, (1e308, -1e308),
                                       (0.0, 1.0))
    csv_path = tmp_path / "f.csv"
    with pytest.raises(ValueError, match=r"^-inf \+ inf in fsum$"):
        cli._write_csv_blocks(str(csv_path), [("block", sol, [0.5])])
    assert csv_path.read_text().splitlines() == ["# block", "z,value"]


def test_spectrum_csv_writes_complex_values(tmp_path, capsys):
    argv = ["--gamma", "0.5", "--delta", "-0.5", "--alpha", "-1.5", "--beta", "-1", "--a", "-3"]
    csv_path = tmp_path / "plot.csv"
    assert main(["spectrum", *argv, "--csv", str(csv_path), "--samples", "2"]) == 0
    capsys.readouterr()
    dec = decompose(make_parameters(0.5, -0.5, -1.5, -1.0, -3.0, 0.0))
    finite = next(r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
    pairs = solve_spectrum(dec, finite).pairs
    blocks = csv_path.read_text().split("# q=")[1:]
    assert len(blocks) == len(pairs) == 4
    seen_complex = 0
    for pair, block in zip(pairs, blocks):
        rows = [line.split(",") for line in block.splitlines()[2:]]
        assert len(rows) == 2
        for z_cell, value_cell in rows:
            value = complex(value_cell) if value_cell.startswith("(") else float(value_cell)
            seen_complex += isinstance(value, complex)
            assert value == sum_by_terms(series_terms(pair.eigenfunction), float(z_cell))
    assert seen_complex == 4


@pytest.mark.parametrize("text", ["-1e7", "-1E-3", "-2.5e+1"])
@pytest.mark.parametrize("option", [["decompose", "--preset", "example1", "--a"],
                                    ["series", "--preset", "example1", "--kmax", "3", "--q"],
                                    ["check-algebra", "--nu", "0.5", "--mu"]],
                         ids=["a", "q", "mu"])
def test_negative_numbers_in_exponent_form(option, text, capsys):
    # A separate negative argument in exponent form is a number, as the
    # --name=value form always was.
    joined_rc = main([*option[:-1], f"{option[-1]}={text}"])
    joined = capsys.readouterr()
    assert main([*option, text]) == joined_rc
    assert capsys.readouterr() == joined
    assert "usage error" not in joined.err


@pytest.mark.parametrize("argv", [["--a", "-1e"], ["--a", "-x"], ["--a"], ["--a", "-1e7", "-2"]])
def test_malformed_numbers_stay_usage_errors(argv, capsys):
    assert main(["decompose", "--preset", "example1", *argv]) == 64
    assert "usage error" in capsys.readouterr().err


def test_series_csv_names_non_finite_coefficients(tmp_path, capsys):
    # The descending lame series at a=-3 overflows to inf of both signs from
    # b_648 on, and its sum meets inf - inf at the first CSV point: the
    # block stops there and the message names the coefficients.
    csv_path = tmp_path / "f.csv"
    argv = ["series", "--preset=lame", "--a=-3.0", "--q=0.010851", "--rep=nd",
            "--parity=even", "--kmax=1000"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    err = capsys.readouterr().err
    dec = decompose(cli.lame_parameters(0.0, -3.0, 0.010851))
    rep = next(r for r in classify(dec) if r.rep_class is RepresentationClass.NEGATIVE_DISCRETE)
    coefficients = series_module.series_solution(dec, rep, "even", 0.010851, 1000).coefficients
    first = next(k for k, b in enumerate(coefficients) if not math.isfinite(b))
    assert first == 648
    assert err.splitlines() == [
        f"heun-su11: the series has non-finite coefficients from b_{first} on: the CSV stops "
        "at z=3.0088797220727779, the first point where their terms meet as inf - inf"
    ]
    assert csv_path.read_text().splitlines() == [
        "# q=0.010851 direction=descending parity=even", "z,value"]


@pytest.mark.parametrize("argv, code", [
    (["series", "--preset", "example1", "--a", "1e308", "--rep", "nd", "--q", "0.3"], 1),
    (["spectrum", "--preset", "example1", "--a", "1e308"], 0),
    (["spectrum", "--gamma", "0.5", "--delta", "-0.5", "--alpha", "-63.5", "--beta", "-63",
      "--a", "1e308"], 2),
    (["spectrum", "--gamma", "1.5", "--delta", "-0.5", "--alpha", "-2", "--beta", "-1.5",
      "--a", "1.7e308"], 2),
], ids=["series", "spectrum", "spectrum-n128", "spectrum-gamma-1.5"])
def test_huge_a_prints_only_the_tool_message(argv, code):
    # The ladder rows overflow at |a| = 1e308; numpy must not warn about it.
    # The series has no sample left and says so in one line; the spectrum's
    # pairs, scored in coefficient space, pass, and it prints nothing.  Where
    # the off-diagonal products overflow too, the eigensolver does not
    # converge: one numerical-failure line, exit 2.
    proc = subprocess.run([sys.executable, "-m", "heun_su11", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == (code > 0)
    prefix = "heun-su11: numerical failure: " if code == 2 else "heun-su11: "
    assert all(line.startswith(prefix) and "Warning" not in line for line in lines)