"""Command-line interface.

Subcommands: decompose, classify, spectrum, series, verify, check-algebra.
Parameters come from flags, a JSON file (--params), or a named preset;
spectrum/classify/series can instead start from a saved decomposition
(--decomposition FILE, or - for stdin), and everything they emit is derived
from the decomposition alone, so piping `decompose` into them reproduces the
direct output byte for byte.  JSON goes to stdout or --json FILE; spectrum
and series also take --csv FILE for sampled (z, value) plot data.  verify
re-scores a document through the call that scored it when it was emitted,
so it reproduces the emitted residuals bit for bit, and derives a series'
domain from the document's a2 rather than reading it.  Exit codes: 0 success,
1 validation failure (including a spectrum, series or verify document with
a residual over the threshold, which is still emitted), 2 numerical
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain
from typing import Sequence

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
    require_finite,
)
from .monomials import MonomialSum
from .representations import RepresentationClass, classify
from .su11_algebra import (
    CONDITION_TOL,
    Su11Decomposition,
    algebra_identity_check,
    casimir_value,
    decompose,
    rebuild_coefficients,
    reconstruction_check,
)

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


def _refuse_parameters(args, reason: str, keep: Sequence[str] = ()) -> None:
    """Usage error for any parameter source or --tolerance that reason leaves unused."""
    given = [f"--{k}" for k in ("preset", "params", *PARAM_KEYS, "tolerance")
             if k not in keep and getattr(args, k, None) is not None]
    if given:
        raise UsageError(f"{reason}; remove {given}")


def _resolve_decomposition(args, keep: Sequence[str] = ()) -> Su11Decomposition:
    """The saved decomposition, else the decomposition of the parameters; keep
    names the parameter flags the command still reads beside --decomposition."""
    if getattr(args, "decomposition", None):
        _refuse_parameters(args, "--decomposition fixes the operator", keep)
        dec = Su11Decomposition.from_json_dict(_read_json(args.decomposition, "--decomposition"))
        expected = casimir_value(dec.mu, dec.nu)
        if not abs(dec.casimir - expected) <= 1e-9:
            raise InconsistentCoefficients(
                f"stored casimir {dec.casimir!r} does not match mu, nu "
                f"(expected {expected!r})"
            )
        return dec
    return _decompose(args, _resolve_parameters(args))


def _decompose(args, params: HeunParameters) -> Su11Decomposition:
    """decompose at --tolerance, CONDITION_TOL when it is not given."""
    return decompose(params, CONDITION_TOL if args.tolerance is None else args.tolerance)


def _write_csv_blocks(path: str, blocks) -> None:
    """blocks: iterable of (comment, function, points); one (z, f(z)) row per point."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for comment, function, points in blocks:
            fh.write(f"# {comment}\n")
            writer.writerow(["z", "value"])
            writer.writerows([_num_str(z), _num_str(function(z))] for z in points)


def _cmd_decompose(args) -> int:
    dec = _decompose(args, _resolve_parameters(args))
    _emit_json(dec.to_json_dict(), args)
    return 0


def _cmd_classify(args) -> int:
    dec = _resolve_decomposition(args)
    _emit_json([rep.to_json_dict() for rep in classify(dec)], args)
    return 0


def _cmd_spectrum(args) -> int:
    from .spectrum import solve_spectrum
    from .verifier import default_sample_points
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
        _write_csv_blocks(args.csv, (
            (f"q={_num_str(pair.q)} parity={pair.parity}",
             pair.eigenfunction.as_monomial_sum().evaluate, points)
            for pair in result.pairs
        ))
    failed = sum(not pair.residual <= RESIDUAL_THRESHOLD for pair in result.pairs)
    if failed:
        print(f"heun-su11: {failed} of {len(result.pairs)} eigenpairs have a residual "
              f"over {RESIDUAL_THRESHOLD:g}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_series(args) -> int:
    from .series_engine import ASCENDING, series_solution
    from .verifier import chebyshev_points
    if getattr(args, "decomposition", None):
        dec = _resolve_decomposition(args, keep=("q",))
        q = args.q if args.q is not None else dec.accessory_q
    else:
        params = _resolve_parameters(args)
        dec = _decompose(args, params)
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
        comment = f"q={_num_str(sol.q)} direction={sol.direction} parity={sol.parity}"
        _write_csv_blocks(args.csv, [(comment, sol.as_monomial_sum().evaluate, points)])
    residual = _series_residual(coeffs, sol)
    if not residual <= RESIDUAL_THRESHOLD:
        print(f"heun-su11: the series residual {residual:.3g} is over "
              f"{RESIDUAL_THRESHOLD:g}", file=sys.stderr)
        return 1
    return 0


def _series_residual(coeffs: CanonicalCoefficients, sol) -> float:
    """The residual of a SeriesSolution that the series gate and verify compute, on
    samples in (0, R/2) ascending or (2R, 4R) descending; a non-finite coefficient scores inf."""
    import numpy as np
    from .series_engine import ASCENDING
    from .verifier import default_sample_points, worst_residuals
    lo, hi = sol.domain
    domain = (0.0, 0.5 * hi) if sol.direction == ASCENDING else (2.0 * lo, 4.0 * lo)
    p = np.array([sol.exponent(m) for m in range(len(sol.coefficients))])
    samples = default_sample_points(coeffs.a2, domain=domain)
    return worst_residuals(coeffs, p, np.array(sol.coefficients)[:, None], [sol.q], samples).item()


def _eigenpair_residuals(coeffs: CanonicalCoefficients, pairs: list) -> list:
    """The residual of each pair, scored as solve_spectrum scored it: one call
    per exponent set (one per parity sub-grid), on a block holding every
    listed coefficient, complex when any q or coefficient of the set is."""
    import numpy as np
    from .verifier import default_sample_points, worst_residuals
    if not pairs:
        raise ValidationError("solution document lists no eigenpairs")
    groups: dict = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(tuple(float(t["exponent"]) for t in pair["coefficients"]), []).append(i)
    samples = default_sample_points(coeffs.a2)
    worst = [0.0] * len(pairs)
    for exponents, members in groups.items():
        q = [jsonio.as_number(pairs[i]["q"]) for i in members]
        rows = [[jsonio.as_number(t["value"]) for t in pairs[i]["coefficients"]]
                for i in members]
        dtype = complex if any(isinstance(v, complex) for v in chain(q, *rows)) else float
        block = np.array(rows, dtype=dtype).T
        scored = worst_residuals(coeffs, np.array(exponents), block, np.array(q, dtype), samples)
        for i, residual in zip(members, scored.tolist()):
            worst[i] = residual
    return worst


def _cmd_verify(args) -> int:
    require_finite(threshold=args.threshold)
    doc = _read_json(args.solution, "--solution")
    if "ode_coefficients" not in doc:
        raise ValidationError("solution document lacks ode_coefficients")
    coeffs = CanonicalCoefficients.from_json_dict(
        {k: jsonio.as_number(v)
         for k, v in _require_object(doc["ode_coefficients"], "ode_coefficients").items()}
    )
    if "eigenpairs" in doc:
        pairs = doc["eigenpairs"]
        results = [
            {"q": jsonio.as_number(pair["q"]), "parity": pair.get("parity"),
             "max_relative_residual": residual}
            for pair, residual in zip(pairs, _eigenpair_residuals(coeffs, pairs))
        ]
    elif "series" in doc:
        from .series_engine import SeriesSolution, convergence_domain
        sol = SeriesSolution.from_json_dict(doc["series"])
        domain = convergence_domain(coeffs.a2, sol.direction)
        if sol.domain != domain:
            raise ValidationError(f"series domain {list(sol.domain)} is not the convergence "
                                  f"domain {list(domain)} of a={coeffs.a2!r}")
        results = [
            {"direction": sol.direction, "parity": sol.parity, "q": sol.q,
             "max_relative_residual": _series_residual(coeffs, sol)}
        ]
    else:
        raise ValidationError("solution document has neither eigenpairs nor series")
    residuals = [r["max_relative_residual"] for r in results]
    # Written so that a NaN residual would fail too; non-finite input scores inf.
    passed = all(r <= args.threshold for r in residuals)
    _emit_json(
        {
            "max_relative_residual": max(residuals),
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
        _refuse_parameters(args, "--mu and --nu check the bare generators")
        mu, nu = args.mu, args.nu
        require_finite(mu=mu, nu=nu)
    else:
        params = _resolve_parameters(args)
        dec = _decompose(args, params)
        mu, nu = dec.mu, dec.nu
        poly = MonomialSum.from_terms((p, 1.0) for p in exponents)
        recon = reconstruction_check(params, dec, poly)
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
    group.add_argument(
        "--tolerance",
        type=float,
        help=f"factorization-condition tolerance (default {CONDITION_TOL:g})",
    )

    dec_parent = _Parser(add_help=False)
    dec_parent.add_argument(
        "--decomposition", metavar="FILE", help="saved decomposition JSON (- for stdin)"
    )

    output_parent = _Parser(add_help=False)
    output_parent.add_argument("--json", metavar="FILE", help="write JSON here instead of stdout")
    csv_parent = _Parser(add_help=False)
    csv_parent.add_argument("--csv", metavar="FILE", help="write sampled (z,value) plot data")
    csv_parent.add_argument("--samples", type=_positive_int, default=25,
                            help="CSV points per block (default 25)")

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
