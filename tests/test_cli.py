import dataclasses
import io
import json
import math
import random
import subprocess
import sys

import pytest

from heun_su11 import cli
from heun_su11 import series_engine as series_module
from heun_su11 import spectrum as spectrum_module
from heun_su11 import verifier as verifier_module
from heun_su11 import RepresentationClass, classify, decompose, make_parameters, solve_spectrum
from heun_su11.cli import main


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


@pytest.mark.parametrize("command", ["spectrum", "classify", "series"])
@pytest.mark.parametrize("preset", ["example1", "example2", "lame"])
def test_spectrum_roundtrip_is_byte_identical(tmp_path, capsys, preset, command):
    dec_path = tmp_path / "dec.json"
    direct = tmp_path / "direct.json"
    piped = tmp_path / "piped.json"
    assert main(["decompose", "--preset", preset, "--json", str(dec_path)]) == 0
    assert main([command, "--preset", preset, "--json", str(direct)]) == 0
    assert main([command, "--decomposition", str(dec_path), "--json", str(piped)]) == 0
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
    dec_path = str(tmp_path / "dec.json")
    assert main(["decompose", "--preset", "example1", "--json", dec_path]) == 0
    assert main([command, "--decomposition", dec_path, "--tolerance", value]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "remove ['--tolerance']" in captured.err


def test_tolerance_beside_parameters_is_accepted(capsys):
    rc, doc = run_json(capsys, ["spectrum", "--preset", "example1", "--tolerance", "1e-3"])
    assert rc == 0
    assert doc == run_json(capsys, ["spectrum", "--preset", "example1"])[1]


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
    monkeypatch.setattr(cli, "algebra_identity_check", lambda mu, nu, exps: 1.0)
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
    monkeypatch.setattr(cli, check, lambda *args: math.nan)
    assert main(["check-algebra", *argv]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_usage_errors_exit_64(capsys):
    assert main(["decompose", "--bogus"]) == 64
    assert main(["decompose"]) == 64
    assert main(["decompose", "--rho", "0"]) == 64
    assert main(["decompose", "--preset", "lame", "--gamma", "0.5"]) == 64
    capsys.readouterr()


def test_validation_errors_exit_1(capsys):
    assert main(["decompose", "--preset", "example1", "--a", "0"]) == 1
    assert main(["decompose", "--preset", "example1", "--gamma", "0.8"]) == 1
    capsys.readouterr()


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
        (["decompose", "--gamma", "0.9", "--delta", "-0.5", "--alpha", "-1", "--beta", "-0.3",
          "--a", "2", "--tolerance", "inf"], None),
        (["verify", "--solution", "-", "--threshold", "inf"], OVERFLOWED_SERIES_DOC),
        (["check-algebra", "--mu", "nan", "--nu", "0"], None),
        (["check-algebra", "--mu", "inf", "--nu", "0"], None),
        (["check-algebra", "--mu", "0", "--nu=-inf"], None),
    ],
    ids=["delta", "alpha", "a", "rho", "q", "decomposition-q", "decomposition-c1", "tolerance",
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
        bad = dataclasses.replace(result.pairs[0], residual=1e-3)
        return dataclasses.replace(result, pairs=(bad, *result.pairs[1:]))

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
    assert "series residual inf is over 1e-08" in captured.err


def test_series_with_residual_over_threshold_still_prints_and_exits_1(capsys, monkeypatch):
    solve = series_module.series_solution

    def one_bad_coefficient(*args, **kwargs):
        sol = solve(*args, **kwargs)
        b = sol.coefficients
        return dataclasses.replace(sol, coefficients=(b[0], b[1] * (1 + 1e-3), *b[2:]))

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
    rc, doc = run_json(capsys, ["decompose", *argv, "--tolerance", "0"])
    assert (rc, doc) == (0, run_json(capsys, ["decompose", *argv])[1])


def test_tolerance_flag_controls_acceptance(capsys):
    near = ["decompose", "--preset", "example1", "--gamma", "0.5000000001"]
    assert main(near) == 0
    assert main(near + ["--tolerance", "1e-11"]) == 1
    capsys.readouterr()


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


def test_inconsistent_stored_decomposition(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    assert main(["decompose", "--preset", "example1", "--json", str(dec_path)]) == 0
    doc = json.loads(dec_path.read_text())
    doc["casimir"] += 0.1
    dec_path.write_text(json.dumps(doc))
    assert main(["classify", "--decomposition", str(dec_path)]) == 1
    capsys.readouterr()


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


def test_verify_reproduces_every_emitted_residual(capsys, monkeypatch):
    """verify re-scores each sub-grid through the emitter's own call, so every
    result equals the printed residual, also for the real pairs of a sub-grid
    with complex eigenvalues, which the emitter scores in complex arithmetic.
    Both commands gate at the same threshold, so they exit alike."""
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
        assert [r["max_relative_residual"] for r in report["results"]] == [
            pair["residual"] for pair in pairs]
        for parity in ("even", "odd"):
            real = {pair["q"]["im"] == 0.0 for pair in pairs
                    if pair["parity"] == parity and isinstance(pair["q"], dict)}
            seen_mixed += real == {True, False}
        seen_zero_q += any(pair["q"] == 0.0 and pair["residual"] == 0.0 for pair in pairs)
    assert seen_mixed and seen_zero_q


def test_planted_zero_coefficient_scores_alike_in_spectrum_and_verify(capsys, monkeypatch):
    """An exact zero in an eigenvector is a zero term for both commands; with
    31 or more exponents, dropping it changes the gemm's order of summation."""
    normalize = spectrum_module._normalize_rows

    def plant_zero(rows):
        rows = normalize(rows)
        rows[0, abs(rows[0]).argmin()] = 0.0
        return rows

    monkeypatch.setattr(spectrum_module, "_normalize_rows", plant_zero)
    _, doc, _, report = spectrum_then_verify(ladder_argv(96, 0.5, 2.0), capsys, monkeypatch)
    pairs = doc["eigenpairs"]
    planted = [i for i, pair in enumerate(pairs)
               if 0.0 in [t["value"] for t in pair["coefficients"]]]
    assert len(planted) == 2 and len(pairs[planted[0]]["coefficients"]) >= 31
    assert [r["max_relative_residual"] for r in report["results"]] == [
        pair["residual"] for pair in pairs]


def test_verify_scores_each_parity_with_one_call(capsys, monkeypatch):
    main(ladder_argv(128, 0.5, 4.0))
    text = capsys.readouterr().out
    kernel = verifier_module.residual_block
    columns = []

    def counting(coeffs, exponents, block, a7, z_samples):
        columns.append(block.shape[1])
        return kernel(coeffs, exponents, block, a7, z_samples)

    monkeypatch.setattr(verifier_module, "residual_block", counting)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["verify", "--solution", "-"]) == 0
    capsys.readouterr()
    assert columns == [64, 64]


def vacuous(doc):
    """Documents that carry no solution to check, or no sample point to check
    it on: with a = a2 in [0, 1e-6] every default sample of (0, a) lies at 0
    or within 1e-6 of a."""
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
        assert all(r["max_relative_residual"] is None for r in report["results"])


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


def test_spectrum_with_no_surviving_sample_exits_1(capsys):
    # Every Chebyshev node of (0, 1e-7) lies within the singularity radius of a.
    rc, doc = run_json(capsys, ["spectrum", "--preset", "example1", "--a", "1e-7"])
    assert rc == 1
    assert [pair["residual"] for pair in doc["eigenpairs"]] == [None, None, None]


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
    # A NaN exponent keeps its powers in the residual's power matrix.
    main(["series", "--preset", "example1", "--q", "0.3"])
    doc = json.loads(capsys.readouterr().out)
    doc["series"]["p0"] = math.nan
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "--solution", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_relative_residual"] is None
    assert report["results"][0]["max_relative_residual"] is None


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
            assert value == pair.eigenfunction.as_monomial_sum().evaluate(float(z_cell))
    assert seen_complex == 4
