"""Correctness check of the benchmark's outputs, independent of timings.

A unit (an eigenpair, a series, or a CLI invocation) fails when any of these
holds:

- it carries a non-finite number (canonical JSON writes NaN and inf as null);
- its spectrum has the wrong number of pairs;
- the tool's own ``verify`` rejects it at the 1e-8 threshold, or that verify
  is vacuous: a sample point's scale is non-finite, so ``verify`` scored it 0;
- a preset's eigenvalues miss the closed forms;
- an input that should be rejected is not rejected with exit 1.

Every failure is reported; none is filtered out.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

from heun_su11 import cli, jsonio
from heun_su11.heun_core import CanonicalCoefficients
from heun_su11.monomials import MonomialSum
from heun_su11.verifier import default_sample_points, residual_for_coefficients

THRESHOLD = 1e-8
CLOSED_FORM_TOL = 1e-9
EVALUATION_TOL = 1e-12


def run_cli(argv, stdin: bytes = b""):
    """``heun-su11 argv`` in this process: (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin.decode())
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def verify(text: bytes):
    """The tool's own verify: (exit code, report or None)."""
    code, out = run_cli(["verify", "--solution", "-"], text)
    try:
        return code, json.loads(out) if out else None
    except json.JSONDecodeError:
        return code, None


def _number(obj):
    """JSON number, {re, im} object or null (a non-finite value) as a number."""
    return math.nan if obj is None else jsonio.as_number(obj)


def _finite(values) -> bool:
    return all(cmath.isfinite(v) for v in values)


def has_nonfinite_scale(coeffs, y, samples) -> bool:
    report = residual_for_coefficients(coeffs, y, samples)
    return not all(math.isfinite(s) for s in report.scales)


def _verify_reasons(code, report, index):
    if report is None or "results" not in report:
        return [f"verify exited {code} without a report"]
    residual = report["results"][index]["max_relative_residual"]
    if residual is None or not residual <= THRESHOLD:
        shown = "null" if residual is None else f"{residual:.1e}"
        return [f"verify residual {shown} > {THRESHOLD:g}"]
    return []


def check_spectrum(text: bytes, expected_pairs: int, eigenvalues=None) -> list:
    """Reasons (empty when it passes) for each of the expected eigenpairs."""
    doc = json.loads(text)
    pairs = doc["eigenpairs"]
    common = []
    if len(pairs) != expected_pairs:
        common.append(f"{len(pairs)} pairs, expected {expected_pairs}")
    code, report = verify(text)
    coeffs = CanonicalCoefficients.from_json_dict(
        {k: _number(v) for k, v in doc["ode_coefficients"].items()}
    )
    samples = default_sample_points(coeffs.a2)
    verdicts = []
    for i in range(expected_pairs):
        if i >= len(pairs):
            verdicts.append(common + ["missing"])
            continue
        pair = pairs[i]
        reasons = list(common)
        q = _number(pair["q"])
        terms = [(t["exponent"], _number(t["value"])) for t in pair["coefficients"]]
        if not _finite([q, _number(pair["residual"]), *(c for _, c in terms)]):
            reasons.append("non-finite number")
        reasons += _verify_reasons(code, report, i)
        y = MonomialSum.from_terms(terms)
        if has_nonfinite_scale(coeffs.with_accessory(q), y, samples):
            reasons.append("verify vacuous")
        if eigenvalues is not None and min(abs(q - e) for e in eigenvalues) > (
            CLOSED_FORM_TOL * max(1.0, abs(q))
        ):
            reasons.append(f"q={q} misses the closed forms {eigenvalues}")
        verdicts.append(reasons)
    return verdicts


def series_sample_domain(series: dict):
    """The sample domain ``heun-su11 verify`` uses for a series document."""
    lo, hi = series["domain"]
    if series["direction"] == "ascending":
        return (0.0, 0.5 * hi)
    return (2.0 * lo, 4.0 * lo)


def check_series(text: bytes, evaluations=()) -> list:
    """Reasons the series document (and its evaluations at (z, value)) fails."""
    doc = json.loads(text)
    series = doc["series"]
    q = _number(series["q"])
    values = [_number(b) for b in series["coefficients"]]
    reasons = []
    if not _finite([q, *values, *(v for _, v in evaluations)]):
        reasons.append("non-finite number")
    code, report = verify(text)
    reasons += _verify_reasons(code, report, 0)
    coeffs = CanonicalCoefficients.from_json_dict(
        {k: _number(v) for k, v in doc["ode_coefficients"].items()}
    )
    step = 1.0 if series["direction"] == "ascending" else -1.0
    exponents = [series["p0"] + step * m for m in range(len(values))]
    y = MonomialSum.from_terms(zip(exponents, values))
    samples = default_sample_points(coeffs.a2, domain=series_sample_domain(series))
    if has_nonfinite_scale(coeffs, y, samples):
        reasons.append("verify vacuous")
    for z, value in evaluations:
        terms = [b * z**e for b, e in zip(values, exponents)]
        if abs(value - math.fsum(terms)) > EVALUATION_TOL * math.fsum(map(abs, terms)):
            reasons.append(f"evaluate_series at z={z} disagrees with the direct sum")
            break
    return reasons


def plant_q(text: bytes, pair_path) -> bytes:
    """The document with one q moved by 1e-6, relative to |q| when |q| > 1."""
    doc = json.loads(text)
    holder = doc
    for key in pair_path:
        holder = holder[key]
    q = _number(holder["q"])
    holder["q"] = q + 1e-6 * max(1.0, abs(q))
    return jsonio.canonical_dumps(doc).encode()


def plant_coefficient(text: bytes) -> bytes:
    """The document with one coefficient scaled by 1 + 1e-6: b_1 of a series,
    or the largest coefficient of the first multi-term eigenfunction."""
    doc = json.loads(text)
    if "series" in doc:
        holder, key = doc["series"]["coefficients"], 1
    else:
        pair = next(p for p in doc["eigenpairs"] if len(p["coefficients"]) > 1)
        holder = max(pair["coefficients"], key=lambda t: abs(_number(t["value"])))
        key = "value"
    holder[key] = _number(holder[key]) * (1.0 + 1e-6)
    return jsonio.canonical_dumps(doc).encode()
