"""Command-line interface.

Subcommands: decompose, classify, spectrum, series, verify, check-algebra.
Parameters come from flags, a JSON file (--params), or a named preset;
spectrum/classify/series can instead start from a saved decomposition
(--decomposition FILE, or - for stdin), and everything they emit is derived
from the decomposition alone, so piping `decompose` into them reproduces the
direct output byte for byte.  JSON goes to stdout or --json FILE; --csv FILE
adds sampled (z, value) plot data.  Exit codes: 0 success, 1 validation
failure (including a spectrum, series or verify document with a residual
over the threshold, which is still emitted), 2 numerical failure, 64 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence, Tuple

from . import jsonio
from .errors import (
    InconsistentCoefficients,
    NumericalError,
    UnsupportedClass,
    UsageError,
    ValidationError,
)
from .heun_core import (
    CanonicalCoefficients,
    HeunParameters,
    lame_parameters,
    make_parameters,
)
from .monomials import MonomialSum
from .representations import RepresentationClass, classify
from .series_engine import (
    ASCENDING,
    SeriesSolution,
    series_solution,
)
from .spectrum import solve_spectrum
from .su11_algebra import (
    CONDITION_TOL,
    Su11Decomposition,
    algebra_identity_check,
    casimir_value,
    decompose,
    monomial_action,
    rebuild_coefficients,
    reconstruction_check,
)
from .verifier import chebyshev_points, default_sample_points, residual_for_coefficients

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
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        doc = _read_json(args.params)
        unknown = sorted(set(doc) - set(PARAM_KEYS))
        if unknown:
            raise ValidationError(f"unknown parameter keys in --params: {unknown}")
        source.update({k: float(v) for k, v in doc.items()})
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


def _resolve_decomposition(args) -> Su11Decomposition:
    if getattr(args, "decomposition", None):
        dec = Su11Decomposition.from_json_dict(_read_json(args.decomposition))
        expected = casimir_value(dec.mu, dec.nu)
        if not abs(dec.casimir - expected) <= 1e-9:
            raise InconsistentCoefficients(
                f"stored casimir {dec.casimir!r} does not match mu, nu "
                f"(expected {expected!r})"
            )
        return dec
    return decompose(_resolve_parameters(args), args.tolerance)


def _write_csv_blocks(path: str, blocks) -> None:
    """blocks: iterable of (comment, [(z, value), ...])."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for comment, rows in blocks:
            fh.write(f"# {comment}\n")
            writer.writerow(["z", "value"])
            for z, value in rows:
                writer.writerow([_num_str(z), _num_str(value)])


def _cmd_decompose(args) -> int:
    dec = decompose(_resolve_parameters(args), args.tolerance)
    _emit_json(dec.to_json_dict(), args)
    return 0


def _cmd_classify(args) -> int:
    dec = _resolve_decomposition(args)
    _emit_json([rep.to_json_dict() for rep in classify(dec)], args)
    return 0


def _cmd_spectrum(args) -> int:
    dec = _resolve_decomposition(args)
    finite = [r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL]
    if not finite:
        raise UnsupportedClass(
            "no finite-dimensional ladder exists here: 2(nu-mu) is not a nonnegative integer"
        )
    result = solve_spectrum(dec, finite[0])
    doc = {
        "decomposition": dec.to_json_dict(),
        "ode_coefficients": rebuild_coefficients(dec).to_json_dict(),
        "eigenpairs": result.to_json_list(),
        "warnings": list(result.warnings),
    }
    _emit_json(doc, args)
    if args.csv:
        points = default_sample_points(4.0 * dec.c_minus, count=args.samples)
        _write_csv_blocks(
            args.csv,
            (
                (
                    f"q={_num_str(pair.q)} parity={pair.parity}",
                    [(z, pair.eigenfunction.evaluate(z)) for z in points],
                )
                for pair in result.pairs
            ),
        )
    failed = sum(not pair.residual <= RESIDUAL_THRESHOLD for pair in result.pairs)
    if failed:
        print(f"heun-su11: {failed} of {len(result.pairs)} eigenpairs have a residual "
              f"over {RESIDUAL_THRESHOLD:g}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_series(args) -> int:
    if getattr(args, "decomposition", None):
        dec = _resolve_decomposition(args)
        q = args.q if args.q is not None else monomial_action(dec).accessory_q
    else:
        params = _resolve_parameters(args)
        dec = decompose(params, args.tolerance)
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
        if sol.direction == ASCENDING:
            points = chebyshev_points(lo, hi, args.samples)
        else:
            points = chebyshev_points(lo, 4.0 * lo, args.samples)
        y = sol.as_monomial_sum()
        _write_csv_blocks(
            args.csv,
            [
                (
                    f"q={_num_str(sol.q)} direction={sol.direction} parity={sol.parity}",
                    [(z, y.evaluate(z)) for z in points],
                )
            ],
        )
    # The residual verify computes by default; non-finite coefficients score inf.
    samples = default_sample_points(coeffs.a2, domain=_series_sample_domain(doc["series"]))
    residual = residual_for_coefficients(coeffs, sol.as_monomial_sum(), samples)
    if not residual.max_relative_residual <= RESIDUAL_THRESHOLD:
        print(f"heun-su11: the series residual {residual.max_relative_residual:.3g} is over "
              f"{RESIDUAL_THRESHOLD:g}", file=sys.stderr)
        return 1
    return 0


def _series_sample_domain(sol_doc: dict) -> Tuple[float, float]:
    lo, hi = sol_doc["domain"]
    if sol_doc["direction"] == ASCENDING:
        return (0.0, 0.5 * float(hi))
    return (2.0 * float(lo), 4.0 * float(lo))


def _cmd_verify(args) -> int:
    doc = _read_json(args.solution)
    if "ode_coefficients" not in doc:
        raise ValidationError("solution document lacks ode_coefficients")
    coeffs = CanonicalCoefficients.from_json_dict(
        {k: jsonio.as_number(v) for k, v in doc["ode_coefficients"].items()}
    )
    results = []
    if "eigenpairs" in doc:
        samples = default_sample_points(coeffs.a2, count=args.samples)
        for pair in doc["eigenpairs"]:
            q = jsonio.as_number(pair["q"])
            y = MonomialSum.from_terms(
                (float(t["exponent"]), jsonio.as_number(t["value"]))
                for t in pair["coefficients"]
            )
            report = residual_for_coefficients(coeffs.with_accessory(q), y, samples)
            results.append(
                {
                    "q": q,
                    "parity": pair.get("parity"),
                    "max_relative_residual": report.max_relative_residual,
                }
            )
    elif "series" in doc:
        sol = SeriesSolution.from_json_dict(doc["series"])
        samples = default_sample_points(
            coeffs.a2, domain=_series_sample_domain(doc["series"]), count=args.samples
        )
        report = residual_for_coefficients(
            coeffs.with_accessory(sol.q), sol.as_monomial_sum(), samples
        )
        results.append(
            {
                "direction": sol.direction,
                "parity": sol.parity,
                "q": sol.q,
                "max_relative_residual": report.max_relative_residual,
            }
        )
    else:
        raise ValidationError("solution document has neither eigenpairs nor series")
    residuals = [r["max_relative_residual"] for r in results]
    worst = max(residuals, default=0.0)
    # Written so that a NaN residual would fail too; non-finite input scores inf.
    passed = all(r <= args.threshold for r in residuals)
    _emit_json(
        {
            "max_relative_residual": worst,
            "passed": passed,
            "results": results,
            "threshold": args.threshold,
        },
        args,
    )
    return 0 if passed else 1


def _cmd_check_algebra(args) -> int:
    exponents = [-3.0 + 0.5 * i for i in range(13)]
    doc: dict = {}
    failed = False
    if (args.mu is None) != (args.nu is None):
        raise UsageError("--mu and --nu must be given together")
    if args.mu is not None:
        mu, nu = args.mu, args.nu
    else:
        params = _resolve_parameters(args)
        dec = decompose(params, args.tolerance)
        mu, nu = dec.mu, dec.nu
        poly = MonomialSum.from_terms((p, 1.0) for p in exponents)
        recon = reconstruction_check(params, dec, poly)
        doc["max_reconstruction_deviation"] = recon
        failed = failed or recon > RECONSTRUCTION_THRESHOLD
    deviation = algebra_identity_check(mu, nu, exponents)
    doc.update(
        {
            "exponents": exponents,
            "max_commutator_deviation": deviation,
            "mu": mu,
            "nu": nu,
        }
    )
    failed = failed or deviation > COMMUTATOR_THRESHOLD
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
    group.add_argument(
        "--tolerance",
        type=float,
        default=CONDITION_TOL,
        help=f"factorization-condition tolerance (default {CONDITION_TOL:g})",
    )

    dec_parent = _Parser(add_help=False)
    dec_parent.add_argument(
        "--decomposition", metavar="FILE", help="saved decomposition JSON (- for stdin)"
    )

    output_parent = _Parser(add_help=False)
    out = output_parent.add_argument_group("output")
    out.add_argument("--json", metavar="FILE", help="write JSON here instead of stdout")
    out.add_argument("--csv", metavar="FILE", help="write sampled (z,value) plot data")
    out.add_argument("--samples", type=int, default=25, help="sample count (default 25)")

    parser = _Parser(prog="heun-su11", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose",
        parents=[params_parent, output_parent],
        help="quadratic generator decomposition of the operator",
    )
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "classify",
        parents=[params_parent, dec_parent, output_parent],
        help="admissible representation classes",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "spectrum",
        parents=[params_parent, dec_parent, output_parent],
        help="finite-ladder eigenvalues and sqrt(z)-polynomial eigenfunctions",
    )
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser(
        "series",
        parents=[params_parent, dec_parent, output_parent],
        help="truncated series solution on a discrete ladder",
    )
    p.add_argument("--rep", choices=("pd", "nd"), default="pd",
                   help="ascending (pd) or descending (nd) ladder")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--kmax", type=int, default=60, help="truncation order (default 60)")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser(
        "verify",
        parents=[output_parent],
        help="residual check of a saved spectrum/series document",
    )
    p.add_argument("--solution", metavar="FILE", required=True,
                   help="JSON from the spectrum or series subcommand (- for stdin)")
    p.add_argument("--threshold", type=float, default=RESIDUAL_THRESHOLD,
                   help=f"pass/fail residual threshold (default {RESIDUAL_THRESHOLD:g})")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "check-algebra",
        parents=[params_parent, output_parent],
        help="commutator/Casimir identities (and reconstruction, given parameters)",
    )
    p.add_argument("--mu", type=float, help="check bare generators at this mu")
    p.add_argument("--nu", type=float, help="check bare generators at this nu")
    p.set_defaults(handler=_cmd_check_algebra)

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
