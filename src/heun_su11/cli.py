"""Command-line interface.

Subcommands: decompose, classify, spectrum, series, verify, check-algebra.
Parameters come from flags, a JSON file (--params), or a named preset;
spectrum/classify/series can instead start from a saved decomposition
(--decomposition FILE, or - for stdin), and everything they emit is derived
from the decomposition alone, so piping `decompose` into them reproduces the
direct output byte for byte, except where c0 = -q - s(c1 + c2 s) is so large
that its rounding moves q (at alpha = -63.5, beta = -63, a = 1e6, q = 0.7
the pipe prints q = 0.70000004768371582); series --q Q on a saved
decomposition solves and prints it at Q, as the direct run with --q Q does.
JSON goes to stdout or --json FILE; spectrum and series also take --csv FILE
for sampled (z, value) plot data.  verify scores a spectrum document's
eigenpairs exactly, in coefficient space on Python integers
(heun_core.exact_residuals), with no sample point and no numpy; spectrum
scores them by the same sums in float64, within 2^-48 of verify's scores,
so the two agree on every pair not that close to the threshold.  verify
also refuses a document whose residuals pass but whose pairs cannot be a
whole spectrum: an exponent set with fewer or more pairs than exponents,
or with two identical pairs.  series and verify score a series by one rule,
heun_core.series_residual: its recurrence rows exactly, and its two
truncation rows by their share of the scale at the samples, with no numpy
in verify; verify derives the series' domain from the document's a2
rather than reading it.  verify loads neither the algebra nor the
representations, which only the solving subcommands import.  Exit codes:
0 success, 1 validation failure (including a spectrum, series or verify
document with a residual over the threshold, which is still emitted), 2
numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from . import jsonio
from .errors import NumericalError, UsageError, ValidationError
from .heun_core import (
    ASCENDING,
    DEFAULT_SAMPLE_COUNT,
    CanonicalCoefficients,
    HeunParameters,
    SeriesRecord,
    chebyshev_points,
    convergence_domain,
    exact_residuals,
    lame_parameters,
    make_parameters,
    require_finite,
    series_residual,
    solution_samples,
)

if TYPE_CHECKING:
    from .su11_algebra import Su11Decomposition

PRESETS = {
    "example1": {"gamma": 0.5, "delta": -0.5, "alpha": -1.0, "beta": -0.5, "a": 2.0, "q": 0.0},
    "example2": {"gamma": 1.5, "delta": -0.5, "alpha": -0.5, "beta": 0.0, "a": 2.0, "q": 0.0},
    "lame": {"rho": 0.0, "a": 2.0, "q": 0.0},
}

PARAM_KEYS = ("gamma", "delta", "epsilon", "alpha", "beta", "a", "q", "rho")

COMMUTATOR_THRESHOLD = 1e-12
# Largest relative residual that spectrum, series and verify accept.
RESIDUAL_THRESHOLD = 1e-8
RECONSTRUCTION_THRESHOLD = 1e-10


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e7" for an option, since its own pattern of a
        # negative number has no exponent; this one has.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _require_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return doc


def _read_json(path: str, option: str) -> dict:
    if path == "-":
        return _require_object(json.load(sys.stdin), option)
    with open(path, "r", encoding="utf-8") as fh:
        return _require_object(json.load(fh), option)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _num_str(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            return repr(value)
    return format(float(value), ".17g")


def _emit_json(doc, args) -> None:
    text = jsonio.canonical_dumps(doc) + "\n"
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_parameters(args) -> HeunParameters:
    source: dict = {}
    if getattr(args, "params", None):
        doc = _read_json(args.params, "--params")
        unknown = sorted(set(doc) - set(PARAM_KEYS))
        if unknown:
            raise ValidationError(f"unknown parameter keys in --params: {unknown}")
        source.update({k: float(jsonio.as_number(v)) for k, v in doc.items()})
    elif getattr(args, "preset", None):
        source.update(PRESETS[args.preset])
    for name in PARAM_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            source[name] = value
    if "rho" in source:
        clash = [k for k in ("gamma", "delta", "epsilon", "alpha", "beta") if k in source]
        if clash:
            raise UsageError(f"--rho fixes the exponents; remove {clash}")
        if "a" not in source:
            raise UsageError("the rho family still needs --a")
        return lame_parameters(source["rho"], source["a"], source.get("q", 0.0))
    missing = [k for k in ("gamma", "delta", "alpha", "beta", "a") if k not in source]
    if missing:
        raise UsageError(f"missing parameters: {missing} (flags, --params, or --preset)")
    return make_parameters(
        source["gamma"],
        source["delta"],
        source["alpha"],
        source["beta"],
        source["a"],
        source.get("q", 0.0),
        epsilon=source.get("epsilon"),
    )


def _refuse_parameters(args, reason: str, keep: Sequence[str] = ()) -> None:
    """Usage error for any parameter source that reason leaves unused."""
    given = [f"--{k}" for k in ("preset", "params", *PARAM_KEYS)
             if k not in keep and getattr(args, k, None) is not None]
    if given:
        raise UsageError(f"{reason}; remove {given}")


def _resolve_decomposition(args, keep: Sequence[str] = ()) -> Su11Decomposition:
    """The saved decomposition, else the decomposition of the parameters; keep
    names the parameter flags the command still reads beside --decomposition."""
    from .su11_algebra import Su11Decomposition, decompose
    if getattr(args, "decomposition", None):
        _refuse_parameters(args, "--decomposition fixes the operator", keep)
        return Su11Decomposition.from_json_dict(_read_json(args.decomposition, "--decomposition"))
    return decompose(_resolve_parameters(args))


def _write_csv_blocks(path: str, blocks) -> None:
    """blocks: iterable of (comment, SeriesSolution, points); one (z, y(z)) row
    per point.  A block whose sum meets inf - inf ends there, and the error
    names the first non-finite coefficient."""
    import csv
    from .series_engine import evaluate_series
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for comment, sol, points in blocks:
            fh.write(f"# {comment}\n")
            writer.writerow(["z", "value"])
            for z in points:
                try:
                    value = evaluate_series(sol, z).value
                except ValueError as exc:
                    first = _first_nonfinite(sol.coefficients)
                    if first is None:
                        raise
                    raise ValidationError(
                        f"the series has non-finite coefficients from b_{first} on: the CSV stops at "
                        f"z={_num_str(z)}, the first point where their terms meet as inf - inf"
                    ) from exc
                writer.writerow([_num_str(z), _num_str(value)])


def _first_nonfinite(numbers):
    """The index of the first non-finite number, None when all are finite."""
    return next((k for k, b in enumerate(numbers) if not cmath.isfinite(b)), None)


def _cause(exponents, coefficients, q) -> str:
    """Why a failing candidate fails, the first that holds: "non-finite
    exponents", "non-finite coefficients or q", else "residual"."""
    if _first_nonfinite(exponents) is not None:
        return "non-finite exponents"
    if _first_nonfinite([*coefficients, q]) is not None:
        return "non-finite coefficients or q"
    return "residual"


def _gate(residuals: list, candidates, samples, threshold: float) -> int:
    """The exit code of spectrum, series and verify: 1, with the cause on
    stderr, when a residual is over the threshold or NaN, or when the one
    series has no sample left (samples, those that scored its truncation
    rows; None for eigenpairs, which take none); else 0.  candidates yields
    each residual's (exponents, coefficients, q), which only a failure's
    cause reads.  No finite candidate's score overflows (eigenpairs are
    summed exactly or at one power-of-two scale, a series' share is a part
    of one sum over another), so a failure is named by its non-finite
    numbers or its residual."""
    failed = sum(not r <= threshold for r in residuals)
    if samples is not None and not samples:
        cause = f"no sample point is left to check the series on: {samples.cause}"
    elif not failed:
        return 0
    elif samples is None:
        counts = Counter(_cause(*candidate) for candidate, r in zip(candidates, residuals)
                         if not r <= threshold)
        cause = "; ".join(
            f"{counts[c]} of {len(residuals)} eigenpairs have "
            + (f"a residual over {threshold:g}" if c == "residual" else c)
            for c in ("non-finite exponents", "non-finite coefficients or q", "residual")
            if counts[c])
    else:
        [(exponents, coefficients, _)], [residual] = list(candidates), residuals
        if (first := _first_nonfinite(coefficients)) is not None:
            cause = (f"the series has non-finite coefficients from b_{first} on, so its "
                     f"residual {residual:.3g} is over {threshold:g}")
        elif _first_nonfinite(exponents) is not None:
            cause = (f"the series base exponent p0 is not finite, so its residual "
                     f"{residual:.3g} is over {threshold:g}")
        else:
            cause = f"the series residual {residual:.3g} is over {threshold:g}"
    print(f"heun-su11: {cause}", file=sys.stderr)
    return 1


def _cmd_decompose(args) -> int:
    from .su11_algebra import decompose
    dec = decompose(_resolve_parameters(args))
    _emit_json(dec.to_json_dict(), args)
    return 0


def _cmd_classify(args) -> int:
    from .representations import classify
    dec = _resolve_decomposition(args)
    _emit_json([rep.to_json_dict() for rep in classify(dec)], args)
    return 0


def _cmd_spectrum(args) -> int:
    from .representations import RepresentationClass, classify
    from .spectrum import solve_spectrum
    from .su11_algebra import rebuild_coefficients
    dec = _resolve_decomposition(args)
    finite = [r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL]
    if not finite:
        raise ValidationError(
            "no finite-dimensional ladder exists here: 2(nu-mu) is not a nonnegative integer"
        )
    result = solve_spectrum(dec, finite[0])
    coeffs = rebuild_coefficients(dec)
    doc = {
        "decomposition": dec.to_json_dict(),
        "ode_coefficients": coeffs.to_json_dict(),
        "eigenpairs": result.to_json_list(),
        "warnings": list(result.warnings),
    }
    _emit_json(doc, args)
    if args.csv:
        points = solution_samples(coeffs.a2, count=args.samples)
        _write_csv_blocks(args.csv, (
            (f"q={_num_str(pair.q)} parity={pair.parity}", pair.eigenfunction, points)
            for pair in result.pairs
        ))
    residuals = [r for sub in result.subgrids for r in sub.residuals.tolist()]
    candidates = [([sub.base + m for m in range(len(row))], row, q)
                  for sub in result.subgrids for row, q in zip(sub.rows.tolist(), sub.q.tolist())]
    # As verify does: a passing document must still be a whole spectrum.
    if all(r <= RESIDUAL_THRESHOLD for r in residuals):
        _check_exponent_sets(candidates)
    return _gate(residuals, candidates, None, RESIDUAL_THRESHOLD)


def _cmd_series(args) -> int:
    from .representations import RepresentationClass, classify
    from .series_engine import series_solution
    from .su11_algebra import decompose, rebuild_coefficients
    if getattr(args, "decomposition", None):
        dec = _resolve_decomposition(args, keep=("q",))
        if args.q is None:
            q = dec.accessory_q
        else:
            q, dec = args.q, dec.with_accessory(args.q)
    else:
        params = _resolve_parameters(args)
        dec = decompose(params)
        q = params.q
    wanted = (
        RepresentationClass.POSITIVE_DISCRETE
        if args.rep == "pd"
        else RepresentationClass.NEGATIVE_DISCRETE
    )
    rep = next(r for r in classify(dec) if r.rep_class is wanted)
    sol = series_solution(dec, rep, args.parity, q, truncation=args.kmax)
    coeffs = rebuild_coefficients(dec).with_accessory(q)
    doc = {
        "decomposition": dec.to_json_dict(),
        "ode_coefficients": coeffs.to_json_dict(),
        "series": sol.to_json_dict(),
    }
    _emit_json(doc, args)
    if args.csv:
        lo, hi = sol.domain
        points = chebyshev_points(lo, hi if sol.direction == ASCENDING else 4.0 * lo, args.samples)
        # Nodes past the largest float are inf: no CSV is written, and the
        # gate names the cause, since the sample domain (2R, 4R) is past it too.
        if math.isfinite(points[-1]):
            comment = f"q={_num_str(sol.q)} direction={sol.direction} parity={sol.parity}"
            _write_csv_blocks(args.csv, [(comment, sol, points)])
    return _gate(*_score_series(coeffs, sol), RESIDUAL_THRESHOLD)


def _score_series(coeffs: CanonicalCoefficients, sol: SeriesRecord) -> tuple:
    """A series record's score and its candidate, each in a list, and the
    samples that scored its truncation rows."""
    samples = solution_samples(coeffs.a2, sol.domain)
    return [series_residual(coeffs, sol, samples)], [((sol.p0,), sol.coefficients, sol.q)], samples


def _check_exponent_sets(candidates) -> None:
    """Refuse eigenpairs that cannot be a whole spectrum: an exponent set
    must list as many pairs as it has exponents, no two of them identical."""
    sets: dict = {}
    for exponents, values, q in candidates:
        sets.setdefault(tuple(exponents), []).append((q, *values))
    for exponents, pairs in sets.items():
        shown = [_num_str(p) for p in exponents]
        name = "{" + ", ".join(shown if len(shown) <= 4 else [*shown[:2], "...", shown[-1]]) + "}"
        if len(pairs) != len(exponents):
            raise ValidationError(f"the exponent set {name} needs {len(exponents)} eigenpairs, "
                                  f"one per exponent; the document lists {len(pairs)}")
        if len(set(pairs)) < len(pairs):
            raise ValidationError(f"the exponent set {name} lists two identical eigenpairs")


def _cmd_verify(args) -> int:
    require_finite(threshold=args.threshold)
    if args.threshold < 0.0:
        raise ValidationError(f"threshold must not be negative: threshold={args.threshold!r}")
    doc = _read_json(args.solution, "--solution")
    if "ode_coefficients" not in doc:
        raise ValidationError("solution document lacks ode_coefficients")
    coeffs = CanonicalCoefficients.from_json_dict(
        _require_object(doc["ode_coefficients"], "ode_coefficients"))
    if "eigenpairs" in doc:
        pairs = doc["eigenpairs"]
        if not pairs:
            raise ValidationError("solution document lists no eigenpairs")
        candidates = [
            (tuple(float(jsonio.as_number(t["exponent"])) for t in pair["coefficients"]),
             [jsonio.as_number(t["value"]) for t in pair["coefficients"]],
             jsonio.as_number(pair["q"]))
            for pair in pairs
        ]
        samples = None  # scored exactly, in coefficient space
        residuals = exact_residuals(coeffs, candidates)
        results = [
            {"q": q, "parity": pair.get("parity"), "max_relative_residual": residual}
            for pair, (_, _, q), residual in zip(pairs, candidates, residuals)
        ]
    elif "series" in doc:
        sol = SeriesRecord.from_json_dict(doc["series"])
        domain = convergence_domain(coeffs.a2, sol.direction)
        if sol.domain != domain:
            raise ValidationError(f"series domain {list(sol.domain)} is not the convergence "
                                  f"domain {list(domain)} of a={coeffs.a2!r}")
        residuals, candidates, samples = _score_series(coeffs, sol)
        results = [
            {"direction": sol.direction, "parity": sol.parity, "q": sol.q,
             "max_relative_residual": residuals[0]}
        ]
    else:
        raise ValidationError("solution document has neither eigenpairs nor series")
    # Written so that a NaN residual would fail too; non-finite input scores inf.
    passed = all(r <= args.threshold for r in residuals)
    if passed and "eigenpairs" in doc:
        _check_exponent_sets(candidates)
    _emit_json(
        {
            "max_relative_residual": max(residuals),
            "passed": passed,
            "results": results,
            "threshold": args.threshold,
        },
        args,
    )
    return _gate(residuals, candidates, samples, args.threshold)


def _cmd_check_algebra(args) -> int:
    from .su11_algebra import algebra_identity_check, decompose, reconstruction_check
    exponents = [-3.0 + 0.5 * i for i in range(13)]
    doc: dict = {}
    failed = False
    if (args.mu is None) != (args.nu is None):
        raise UsageError("--mu and --nu must be given together")
    if args.mu is not None:
        _refuse_parameters(args, "--mu and --nu check the bare generators")
        mu, nu = args.mu, args.nu
        require_finite(mu=mu, nu=nu)
    else:
        params = _resolve_parameters(args)
        dec = decompose(params)
        mu, nu = dec.mu, dec.nu
        recon = reconstruction_check(params, dec, exponents)
        doc["max_reconstruction_deviation"] = recon
        failed = not recon <= RECONSTRUCTION_THRESHOLD
    deviation = algebra_identity_check(mu, nu, exponents)
    doc.update(
        {
            "exponents": exponents,
            "max_commutator_deviation": deviation,
            "mu": mu,
            "nu": nu,
        }
    )
    # Written so that a NaN deviation fails, as in verify.
    failed = failed or not deviation <= COMMUTATOR_THRESHOLD
    _emit_json(doc, args)
    if failed:
        raise NumericalError(
            "algebra identities deviate beyond threshold (see emitted report)"
        )
    return 0


def _build_parser() -> _Parser:
    params_parent = _Parser(add_help=False)
    group = params_parent.add_argument_group("parameters")
    group.add_argument("--preset", choices=sorted(PRESETS))
    group.add_argument("--params", metavar="FILE", help="JSON parameter file (- for stdin)")
    for name in ("gamma", "delta", "epsilon", "alpha", "beta", "q", "rho"):
        group.add_argument(f"--{name}", type=float)
    group.add_argument("--a", type=float, dest="a")

    dec_parent = _Parser(add_help=False)
    dec_parent.add_argument(
        "--decomposition", metavar="FILE", help="saved decomposition JSON (- for stdin)"
    )

    output_parent = _Parser(add_help=False)
    output_parent.add_argument("--json", metavar="FILE", help="write JSON here instead of stdout")
    csv_parent = _Parser(add_help=False)
    csv_parent.add_argument("--csv", metavar="FILE", help="write sampled (z,value) plot data")
    csv_parent.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLE_COUNT,
                            help=f"CSV points per block (default {DEFAULT_SAMPLE_COUNT})")

    parser = _Parser(prog="heun-su11", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, help_text):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(handler=handler)
        return p

    solving = [params_parent, dec_parent, output_parent]
    command("decompose", _cmd_decompose, [params_parent, output_parent],
            "quadratic generator decomposition of the operator")
    command("classify", _cmd_classify, solving, "admissible representation classes")
    command("spectrum", _cmd_spectrum, solving + [csv_parent],
            "finite-ladder eigenvalues and sqrt(z)-polynomial eigenfunctions")
    p = command("series", _cmd_series, solving + [csv_parent],
                "truncated series solution on a discrete ladder")
    p.add_argument("--rep", choices=("pd", "nd"), default="pd",
                   help="ascending (pd) or descending (nd) ladder")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--kmax", type=_positive_int, default=60, help="truncation order (default 60)")
    p = command("verify", _cmd_verify, [output_parent],
                "residual check of a saved spectrum/series document")
    p.add_argument("--solution", metavar="FILE", required=True,
                   help="JSON from the spectrum or series subcommand (- for stdin)")
    p.add_argument("--threshold", type=float, default=RESIDUAL_THRESHOLD,
                   help=f"pass/fail residual threshold (default {RESIDUAL_THRESHOLD:g})")
    p = command("check-algebra", _cmd_check_algebra, [params_parent, output_parent],
                "commutator/Casimir identities (and reconstruction, given parameters)")
    p.add_argument("--mu", type=float, help="check bare generators at this mu")
    p.add_argument("--nu", type=float, help="check bare generators at this nu")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"heun-su11: usage error: {exc}", file=sys.stderr)
        return 64
    except NumericalError as exc:
        print(f"heun-su11: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"heun-su11: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"heun-su11: invalid input: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
