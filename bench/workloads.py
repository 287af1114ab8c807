"""The three workloads: inputs drawn from the seed, one pass, and its check.

Each workload is a single-process closed loop with one client.  A pass is
one walk over the workload's fixed input list.  For the in-process
workloads a pass is one op; for ``cli_presets`` every invocation in the pass
is an op.  The seed draws only the free parameters (q, delta, the evaluation
points, the rejected gamma); sizes and the sign and size class of ``a`` are
fixed, so the layer a workload stresses does not change with the seed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from heun_su11 import jsonio
from heun_su11.cli import PRESETS
from heun_su11.heun_core import lame_parameters, make_parameters
from heun_su11.representations import RepresentationClass, classify, split_even_odd
from heun_su11.series_engine import evaluate_series, series_solution
from heun_su11.spectrum import build_matrix, solve_spectrum
from heun_su11.su11_algebra import decompose, monomial_action, rebuild_coefficients
from heun_su11.verifier import default_sample_points, ode_residual, residual_for_coefficients

import check

FINITE = RepresentationClass.FINITE_DIMENSIONAL
ASCENDING_LADDER = RepresentationClass.POSITIVE_DISCRETE
DESCENDING_LADDER = RepresentationClass.NEGATIVE_DISCRETE
EVALUATION_POINTS = 25

# Host-speed references.  The 2-core virtual machine that defined this
# benchmark shares its host, whose speed drifted by up to 2x within minutes,
# so every op is followed by a fixed reference task that the program cannot
# change, and the op's time is scaled by nominal / reference (NOTES.md,
# "Host-speed scaling").  The nominal values are the references' times on
# that host when it was quiet.
SUM_REFERENCE_S = 0.0015
IMPORT_REFERENCE_S = 0.12
_REFERENCE_TERMS = [(1.0 / (k + 1), 0.5 * k) for k in range(4000)]


def sum_reference() -> float:
    """Seconds for compensated sums of 4000 float powers at three points,
    the median of three.  It is the kind of work MonomialSum.evaluate does,
    which dominates both in-process workloads, written independently of the
    package."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        for z in (0.3, 0.5, 0.7):
            math.fsum(c * z**e for c, e in _REFERENCE_TERMS)
        samples.append(perf_counter() - start)
    return sorted(samples)[1]


def import_reference(env) -> float:
    """Seconds for a fresh interpreter to import numpy, which resembles a
    CLI invocation more closely than a bare interpreter start does."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return perf_counter() - start


@dataclass(frozen=True)
class Unit:
    """One checked result; ``work`` is how many work units it carries."""

    id: str
    size: str
    work: int
    reasons: tuple


def _hash(obj) -> bytes:
    return hashlib.blake2b(pickle.dumps(obj)).digest()


def preset_parameters(name: str, a: float, q: float):
    p = PRESETS[name]
    if "rho" in p:
        return lame_parameters(p["rho"], a, q)
    return make_parameters(p["gamma"], p["delta"], p["alpha"], p["beta"], a, q)


def preset_eigenvalues(name: str, a: float):
    """Closed-form finite-ladder spectrum of the polynomial examples."""
    base = [-cmath.sqrt(a).real / 2.0, cmath.sqrt(a).real / 2.0, (a + 1.0) / 4.0]
    if name == "example1":
        return tuple(base)
    if name == "example2":
        return tuple(e - (a + 1.0) / 4.0 for e in base)
    return None


def attempt(function, *args, **kwargs):
    """The call's result, or the ValueError it raised.  math.fsum raises one
    when overflowed series coefficients meet as inf - inf."""
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        return exc.with_traceback(None)


def count_residual(tracer, y, report) -> None:
    tracer.count("verifier.term_evaluations", len(y.coeffs) * 3 * len(report.scales))
    tracer.count(
        "verifier.vacuous_samples",
        sum(1 for s in report.scales if not (math.isfinite(s) and s > 0.0)),
    )


# -- spectrum_ladders -------------------------------------------------------


@dataclass(frozen=True)
class LadderCase:
    n: int
    a: float
    delta: float

    @property
    def size(self) -> str:
        return f"n={self.n},a={self.a:g}"


class SpectrumLadders:
    """make_parameters -> decompose -> classify -> solve_spectrum ->
    canonical_dumps of the spectrum document, on finite ladders with
    gamma=1/2, alpha=mu, beta=mu+1/2, mu=-(n-1)/2."""

    name = "spectrum_ladders"
    nominal_reference_s = SUM_REFERENCE_S
    SIZES = [(n, a) for a in (2.0, 4.0) for n in (2, 16, 64, 128)] + [
        (16, -3.0),
        (64, -3.0),
    ]

    def make_inputs(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        return [LadderCase(n, a, round(rng.uniform(-0.55, -0.45), 6)) for n, a in self.SIZES]

    def probe_inputs(self):
        return [LadderCase(2, 2.0, -0.5)]

    def run_pass(self, inputs, tracer):
        """([(op seconds, reference seconds)], outputs)."""
        tracer.new_op()
        start = perf_counter()
        outputs = [self._document(case, tracer) for case in inputs]
        timing = (perf_counter() - start, sum_reference())
        if tracer.enabled:
            for output in outputs:
                self._retime(output, tracer)
        return [timing], outputs

    @staticmethod
    def _document(case, tracer):
        mu = -(case.n - 1) / 2.0
        with tracer.span("heun_core.make_parameters", case.size):
            params = make_parameters(0.5, case.delta, mu, mu + 0.5, case.a, 0.0)
        with tracer.span("su11_algebra.decompose", case.size):
            dec = decompose(params)
        with tracer.span("representations.classify", case.size):
            reps = classify(dec)
        rep = next(r for r in reps if r.rep_class is FINITE)
        with tracer.span("spectrum.solve_spectrum", case.size):
            result = solve_spectrum(dec, rep)
        doc = {
            "decomposition": dec.to_json_dict(),
            "ode_coefficients": rebuild_coefficients(dec).to_json_dict(),
            "eigenpairs": result.to_json_list(),
            "warnings": list(result.warnings),
        }
        with tracer.span("jsonio.canonical_dumps", case.size):
            text = jsonio.canonical_dumps(doc) + "\n"
        tracer.count("spectrum.matrix_dim_sum", rep.n)
        tracer.count("jsonio.bytes", len(text))
        return case, dec, rep, result, text.encode()

    @staticmethod
    def _retime(output, tracer) -> None:
        """Time again, outside the op, the two layers solve_spectrum calls:
        the matrix build per parity and the residual per returned pair, on
        the solver's own sample points."""
        case, dec, rep, result, _text = output
        action = monomial_action(dec)
        split = split_even_odd(rep)
        for grid in (split.even, split.odd):
            if grid.size:
                with tracer.span("spectrum.build_matrix", case.size):
                    build_matrix(action, grid)
        coeffs = rebuild_coefficients(dec)
        samples = default_sample_points(4.0 * dec.c_minus)
        for pair in result.pairs:
            y = pair.eigenfunction.as_monomial_sum()
            with tracer.span("verifier.residual_for_coefficients", case.size):
                report = residual_for_coefficients(coeffs.with_accessory(pair.q), y, samples)
            count_residual(tracer, y, report)

    @staticmethod
    def digest(outputs) -> bytes:
        return _hash([text for *_, text in outputs])

    def check(self, inputs, outputs):
        for case, _dec, _rep, _result, text in outputs:
            for i, reasons in enumerate(check.check_spectrum(text, case.n)):
                yield Unit(f"{case.size},delta={case.delta:g} pair {i}", case.size, 1, tuple(reasons))

    @staticmethod
    def plants(inputs, outputs, units):
        """Planted wrong answers in the first ladder whose pairs all pass and
        which has a multi-term eigenfunction."""
        failing = {u.id.rsplit(" pair ", 1)[0] for u in units if u.reasons}
        for case, _dec, _rep, result, text in outputs:
            multi_term = any(len(p.eigenfunction.coefficients) > 1 for p in result.pairs)
            if multi_term and f"{case.size},delta={case.delta:g}" not in failing:
                check_one = lambda t, n=case.n: [r for v in check.check_spectrum(t, n) for r in v]
                return [
                    ("q+1e-6", check.plant_q(text, ("eigenpairs", 0)), check_one),
                    ("coefficient*(1+1e-6)", check.plant_coefficient(text), check_one),
                ]
        return []


# -- series_long ------------------------------------------------------------


@dataclass(frozen=True)
class SeriesCase:
    preset: str
    a: float
    ladder: RepresentationClass
    parity: str
    K: int
    q: float
    points: tuple

    @property
    def size(self) -> str:
        return f"K={self.K}"

    @property
    def id(self) -> str:
        way = "pd" if self.ladder is ASCENDING_LADDER else "nd"
        return f"{self.preset}@a={self.a:g} {way} {self.parity} K={self.K}"


class SeriesLong:
    """series_solution -> ode_residual on the verify sample domain ->
    evaluate_series at 25 points, for each preset at its own a, on both
    discrete ladders, both parities and K in {60, 1000}."""

    name = "series_long"
    nominal_reference_s = SUM_REFERENCE_S
    PRESET_A = (("example1", 2.0), ("example2", 4.0), ("lame", -3.0))
    TRUNCATIONS = (60, 1000)

    def make_inputs(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        cases = []
        for preset, a in self.PRESET_A:
            for ladder in (ASCENDING_LADDER, DESCENDING_LADDER):
                for parity in ("even", "odd"):
                    for K in self.TRUNCATIONS:
                        q = round(rng.uniform(-1.0, 1.0), 6)
                        cases.append(
                            SeriesCase(preset, a, ladder, parity, K, q, self._points(rng, ladder, a))
                        )
        return cases

    @staticmethod
    def _points(rng, ladder, a):
        """Evaluation points inside the series' open convergence domain."""
        if ladder is ASCENDING_LADDER:
            hi = min(1.0, abs(a))
            zs = (hi * rng.uniform(0.05, 0.95) for _ in range(EVALUATION_POINTS))
        else:
            lo = max(1.0, abs(a))
            zs = (lo * rng.uniform(1.05, 4.0) for _ in range(EVALUATION_POINTS))
        return tuple(sorted(round(z, 6) for z in zs))

    def probe_inputs(self):
        points = tuple(0.1 + 0.03 * i for i in range(EVALUATION_POINTS))
        return [SeriesCase("example1", 2.0, ASCENDING_LADDER, "even", 60, 0.3, points)]

    def run_pass(self, inputs, tracer):
        tracer.new_op()
        start = perf_counter()
        outputs = [self._solve(case, tracer) for case in inputs]
        return [(perf_counter() - start, sum_reference())], outputs

    @staticmethod
    def _solve(case, tracer):
        with tracer.span("heun_core.make_parameters", case.size):
            params = preset_parameters(case.preset, case.a, case.q)
        with tracer.span("su11_algebra.decompose", case.size):
            dec = decompose(params)
        with tracer.span("representations.classify", case.size):
            reps = classify(dec)
        rep = next(r for r in reps if r.rep_class is case.ladder)
        with tracer.span("series_engine.series_solution", case.size):
            sol = series_solution(dec, rep, case.parity, case.q, case.K)
        y = sol.as_monomial_sum()
        domain = check.series_sample_domain({"domain": sol.domain, "direction": sol.direction})
        with tracer.span("verifier.ode_residual", case.size):
            report = attempt(ode_residual, params, y, domain=domain)
        with tracer.span("series_engine.evaluate_series", case.size):
            values = [attempt(evaluate_series, sol, z) for z in case.points]
        tracer.count("series_engine.coefficients", len(sol.coefficients))
        if not isinstance(report, ValueError):
            count_residual(tracer, y, report)
        return case, dec, sol, report, values

    @staticmethod
    def digest(outputs) -> bytes:
        return _hash([(sol, report, values) for _case, _dec, sol, report, values in outputs])

    @staticmethod
    def _document(dec, sol) -> bytes:
        doc = {
            "decomposition": dec.to_json_dict(),
            "ode_coefficients": rebuild_coefficients(dec).with_accessory(sol.q).to_json_dict(),
            "series": sol.to_json_dict(),
        }
        return (jsonio.canonical_dumps(doc) + "\n").encode()

    def check(self, inputs, outputs):
        for case, dec, sol, report, values in outputs:
            raised = [v for v in values if isinstance(v, ValueError)]
            evaluations = [(z, v.value) for z, v in zip(case.points, values)
                           if not isinstance(v, ValueError)]
            reasons = check.check_series(self._document(dec, sol), evaluations)
            if isinstance(report, ValueError):
                reasons.append(f"ode_residual raised {report!r}")
            if raised:
                reasons.append(f"evaluate_series raised {raised[0]!r} at {len(raised)} points")
            yield Unit(case.id, case.size, len(sol.coefficients), tuple(reasons))

    def plants(self, inputs, outputs, units):
        failing = {u.id for u in units if u.reasons}
        for case, dec, sol, _report, _values in outputs:
            if case.id not in failing:
                text = self._document(dec, sol)
                return [
                    ("q+1e-6", check.plant_q(text, ("series",)), check.check_series),
                    ("coefficient*(1+1e-6)", check.plant_coefficient(text), check.check_series),
                ]
        return []


# -- cli_presets ------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One ``heun-su11`` invocation; ``stdin`` names the step piped in."""

    label: str
    argv: tuple
    stdin: str | None = None
    pairs: int | None = None
    eigenvalues: tuple | None = None
    same_as: str | None = None
    reject: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif not isinstance(obj, (str, bool)):
        yield math.nan if obj is None else obj


class CliPresets:
    """A cycle of ``python -m heun_su11`` subprocesses covering all six
    subcommands on the three presets, one non-factorizable input (expected
    exit 1) and one n=32, a=2 spectrum piped into verify."""

    name = "cli_presets"
    nominal_reference_s = IMPORT_REFERENCE_S
    KMAX = 80
    A = 2.0

    def __init__(self, env):
        self.env = env

    def make_inputs(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        steps = []
        for name in PRESETS:
            preset = ("--preset", name)
            pairs = 3 if name != "lame" else 1
            closed = preset_eigenvalues(name, self.A)
            q = f"{rng.uniform(-1.0, 1.0):.6f}"
            steps += [
                Step(f"{name}/decompose", ("decompose", *preset)),
                Step(f"{name}/spectrum-piped", ("spectrum", "--decomposition", "-"),
                     stdin=f"{name}/decompose", pairs=pairs, eigenvalues=closed,
                     same_as=f"{name}/spectrum"),
                Step(f"{name}/classify", ("classify", *preset), pairs=pairs),
                Step(f"{name}/spectrum", ("spectrum", *preset), pairs=pairs, eigenvalues=closed),
                Step(f"{name}/spectrum-verify", ("verify", "--solution", "-"),
                     stdin=f"{name}/spectrum"),
                Step(f"{name}/series", ("series", *preset, "--q", q, "--kmax", str(self.KMAX))),
                Step(f"{name}/series-verify", ("verify", "--solution", "-"),
                     stdin=f"{name}/series"),
                Step(f"{name}/check-algebra", ("check-algebra", *preset)),
            ]
        gamma = f"{0.5 + rng.uniform(0.05, 0.45):.6f}"
        delta = f"{rng.uniform(-0.55, -0.45):.6f}"
        steps += [
            Step("non-factorizable/decompose",
                 ("decompose", "--gamma", gamma, "--delta", "-0.5", "--alpha", "-1",
                  "--beta", "-0.5", "--a", "2"), reject=True),
            Step("n=32/spectrum",
                 ("spectrum", "--gamma", "0.5", "--delta", delta, "--alpha", "-15.5",
                  "--beta", "-15", "--a", "2"), pairs=32),
            Step("n=32/spectrum-verify", ("verify", "--solution", "-"), stdin="n=32/spectrum"),
        ]
        return steps

    def probe_inputs(self):
        return [Step("probe/spectrum", ("spectrum", "--preset", "example1"), pairs=3,
                     eigenvalues=preset_eigenvalues("example1", self.A))]

    def invoke(self, argv, stdin: bytes = b""):
        proc = subprocess.run(
            [sys.executable, "-m", "heun_su11", *argv],
            input=stdin, capture_output=True, env=self.env, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def run_pass(self, inputs, tracer):
        outputs, timings = {}, []
        for step in inputs:
            stdin = outputs[step.stdin][1] if step.stdin else b""
            tracer.new_op()
            with tracer.span("cli.invocation", step.command):
                start = perf_counter()
                outputs[step.label] = self.invoke(step.argv, stdin)
                elapsed = perf_counter() - start
            timings.append((elapsed, import_reference(self.env)))
            if tracer.enabled:
                with tracer.span("cli.main", step.command):
                    _code, out = check.run_cli(step.argv, stdin)
                tracer.count("jsonio.bytes", len(out))
        return timings, outputs

    @staticmethod
    def digest(outputs) -> bytes:
        return _hash(sorted(outputs.items()))

    def check(self, inputs, outputs):
        for step in inputs:
            code, out = outputs[step.label]
            reasons = self._check_step(step, code, out, outputs)
            yield Unit(step.label, step.command, 1, tuple(reasons))

    @staticmethod
    def _check_step(step, code, out, outputs):
        if step.reject:
            return [] if code == 1 and not out else [f"exit {code}, expected rejection (exit 1)"]
        if step.command == "verify":
            if code not in (0, 1) or not out:
                return [f"exit {code} with {len(out)} bytes of report"]
            report = json.loads(out)
            worst = report["max_relative_residual"]
            within = worst is not None and worst <= report["threshold"]
            if not report["passed"] == within == (code == 0):
                return ["verify report and exit code disagree"]
            return []
        if code != 0:
            return [f"exit {code}"]
        if step.command == "spectrum":
            verdicts = check.check_spectrum(out, step.pairs, step.eigenvalues)
            reasons = [f"pair {i}: {r}" for i, v in enumerate(verdicts) for r in v]
            if step.same_as and out != outputs[step.same_as][1]:
                reasons.append(f"output differs from {step.same_as}")
            return reasons
        if step.command == "series":
            return check.check_series(out)
        doc = json.loads(out)
        if not all(math.isfinite(v) for v in _numbers(doc)):
            return ["non-finite number"]
        if step.command == "classify" and not any(
            r["class"] == FINITE.value and r.get("n") == step.pairs for r in doc
        ):
            return [f"no finite ladder of dimension {step.pairs}"]
        if step.command == "check-algebra" and not doc["max_commutator_deviation"] <= 1e-12:
            return ["commutator identities deviate"]
        return []

    @staticmethod
    def plants(inputs, outputs, units):
        passing = {u.id for u in units if not u.reasons}
        spectrum = next((s for s in inputs if s.command == "spectrum" and s.eigenvalues
                         and s.label in passing), None)
        series = next((s for s in inputs if s.command == "series" and s.label in passing), None)
        if spectrum is None or series is None:
            return []
        check_spectrum = lambda t, s=spectrum: [
            r for v in check.check_spectrum(t, s.pairs, s.eigenvalues) for r in v
        ]
        return [
            ("q+1e-6", check.plant_q(outputs[spectrum.label][1], ("eigenpairs", 0)), check_spectrum),
            ("coefficient*(1+1e-6)", check.plant_coefficient(outputs[series.label][1]),
             check.check_series),
        ]


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
