"""Benchmark of the heun-su11 package, timed from outside.

    python3 bench/run.py --workload {cli_presets,spectrum_ladders,series_long}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from ``src/``
and starts ``python -m heun_su11`` with ``PYTHONPATH=src``.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Op times are scaled to a
nominal host speed by a reference task run after each op.  The last line
of standard output is the result object; the line before it is a report
with the environment, the sample counts, the failing units and, when
traced, the tracing overhead and each layer's self time by input size.  Each failing
unit is also printed to standard error as the check finds it.  See
NOTES.md next to this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 7
IMPORT_REPS = 3
PROBE_REPS = {"cli_presets": 3, "spectrum_ladders": 5, "series_long": 5}
MIN_OPS = 21  # so that tail_s lies above the median

END_TO_END = {
    "setup_s": "s",
    "p50_s": "s",
    "tail_s": "s",
    "work_per_s": "1/s",
    "fail_frac": "fraction",
    "peak_rss_mb": "MB",
}
# Layer spans whose per-op duration is reported as <name>_s.
TIMED_LAYERS = (
    "cli.main",
    "heun_core.make_parameters",
    "su11_algebra.decompose",
    "representations.classify",
    "spectrum.build_matrix",
    "spectrum.solve_spectrum",
    "verifier.residual_for_coefficients",
    "verifier.ode_residual",
    "series_engine.series_solution",
    "series_engine.evaluate_series",
    "jsonio.canonical_dumps",
)
IMPORTS = {"import.heun_su11_s": "heun_su11", "import.scipy_linalg_s": "scipy.linalg",
           "import.numpy_s": "numpy"}
COUNTS = (
    "spectrum.matrix_dim_sum",
    "series_engine.coefficients",
    "jsonio.bytes",
    "verifier.term_evaluations",
    "verifier.vacuous_samples",
    "check.failed_units",
)
PER_LAYER = {
    **{layer + "_s": "s" for layer in TIMED_LAYERS},
    "cli.startup_s": "s",
    "spectrum.eigensolve_self_s": "s",
    "spectrum.residual_share": "fraction",
    **dict.fromkeys(IMPORTS, "s"),
    **dict.fromkeys(COUNTS, "count"),
}
# Failure kinds the program already shows at the commit that defined this
# benchmark (NOTES.md has a reproducer for each): residuals of larger ladders
# over the verify threshold; NaN and inf coefficients in long descending
# series, so that verify is vacuous or rejects the document and math.fsum
# raises on inf - inf; and piped spectra that lose the sign of a zero.  They
# count in `failed` and `fail_frac` like any failure; a failure of any other
# kind also makes `correct` false.
KNOWN_DEFECTS = (
    "verify residual",
    "verify vacuous",
    "verify exited",
    "non-finite number",
    "inf in fsum",
    "output differs from",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_presets", "spectrum_ladders", "series_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, percentile): the highest whole percentile, by nearest rank,
    with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(p for p in range(1, 100) if math.ceil(p * n / 100) <= n - 10)
    return ordered[math.ceil(pct * n / 100) - 1], pct


def import_seconds(env, *flags):
    start = perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import heun_su11"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return perf_counter() - start, proc.stderr


def measure_setup(workload, seed, env):
    """Median over SETUP_REPS of a fresh interpreter importing the package
    plus building the workload's inputs, scaled to the nominal host speed by
    a fresh interpreter importing numpy after each; and the unscaled
    samples."""
    import workloads as wl

    import_seconds(env)  # compiles the bytecode caches, which users keep
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        elapsed, _ = import_seconds(env)
        start = perf_counter()
        workload.make_inputs(seed)
        raw.append(elapsed + perf_counter() - start)
        scaled.append(raw[-1] * wl.IMPORT_REFERENCE_S / wl.import_reference(env))
    return statistics.median(scaled), raw


def import_times(env):
    """Cumulative import seconds per module from -X importtime, median of
    IMPORT_REPS fresh interpreters; 0 for a module the package no longer
    imports."""
    runs = []
    for _ in range(IMPORT_REPS):
        _, stderr = import_seconds(env, "-X", "importtime")
        cumulative = {}
        for line in stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        runs.append(cumulative)
    return {metric: statistics.median(r.get(module, 0.0) for r in runs)
            for metric, module in IMPORTS.items()}


def measure(workload, inputs, seconds, tracer, min_ops=MIN_OPS):
    """Whole passes until `seconds` have passed and `min_ops` ops were timed.

    Returns the op times scaled to the nominal host speed, the unscaled op
    times, the number of passes, and {digest: [outputs, passes]}: passes
    with identical outputs are checked once."""
    scaled, raw, passes, outcomes = [], [], 0, {}
    deadline = perf_counter() + seconds
    while True:
        timings, outputs = workload.run_pass(inputs, tracer)
        for op_s, reference_s in timings:
            raw.append(op_s)
            scaled.append(op_s * workload.nominal_reference_s / reference_s)
        passes += 1
        outcomes.setdefault(workload.digest(outputs), [outputs, 0])[1] += 1
        if perf_counter() >= deadline and len(raw) >= min_ops:
            return scaled, raw, passes, outcomes


def is_new_defect(reason: str) -> bool:
    return not any(tag in reason for tag in KNOWN_DEFECTS)


def check_outcomes(workload, inputs, outcomes):
    """Check each distinct pass output; failures go to stderr as found."""
    totals = Counter()
    by_reason, by_size, first = Counter(), Counter(), None
    for outputs, passes in outcomes.values():
        units = []
        for unit in workload.check(inputs, outputs):
            units.append(unit)
            if unit.reasons:
                print(f"FAIL {workload.name} {unit.id}: {'; '.join(unit.reasons)}",
                      file=sys.stderr)
                by_size[unit.size] += passes
                for reason in unit.reasons:
                    by_reason[re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", reason)] += passes
        failing = [u for u in units if u.reasons]
        totals["attempted"] += passes * sum(u.work for u in units)
        totals["failed"] += passes * sum(u.work for u in failing)
        totals["failed_units"] += passes * len(failing)
        totals["units"] += passes * len(units)
        totals["new_defects"] += passes * sum(
            1 for u in failing if any(map(is_new_defect, u.reasons)))
        if first is None:
            first = (outputs, units)
    return totals, by_reason, by_size, first


def self_test(workload, inputs, first):
    """Plant wrong answers in a passing unit; the check must fail each."""
    outputs, units = first
    return {name: "caught" if checker(text) else "missed"
            for name, text, checker in workload.plants(inputs, outputs, units)}


def layer_values(tracer):
    """Per-op medians of each layer's time, plus the derived layers."""
    values = {}
    for layer in TIMED_LAYERS:
        per_op = tracer.per_op(layer)
        if per_op:
            values[layer + "_s"] = statistics.median(per_op.values())
    main, invocation = tracer.per_op("cli.main"), tracer.per_op("cli.invocation")
    if main:
        values["cli.startup_s"] = statistics.median(invocation[op] - main[op] for op in main)
    solve = tracer.per_op("spectrum.solve_spectrum")
    if solve:
        build = tracer.per_op("spectrum.build_matrix")
        residual = tracer.per_op("verifier.residual_for_coefficients")
        values["spectrum.eigensolve_self_s"] = statistics.median(
            solve[op] - build.get(op, 0.0) - residual.get(op, 0.0) for op in solve)
        values["spectrum.residual_share"] = sum(residual.values()) / sum(solve.values())
    return values


def per_layer(workload, workloads, tracer, passes, failed_units, env, report):
    values = layer_values(tracer)
    source = {name: "workload" for name in values}
    # A layer this workload never calls is timed on the other workloads'
    # probe inputs, so every time metric is measured; its counts stay 0.
    probes = {}
    for other in workloads.values():
        if other is workload:
            continue
        probe = Tracer()
        for _ in range(PROBE_REPS[other.name]):
            other.run_pass(other.probe_inputs(), probe)
        for name, value in layer_values(probe).items():
            if name not in values:
                values[name] = value
                source[name] = f"probe:{other.name}"
        probes[other.name] = probe.by_size()
    values.update(import_times(env))
    values.update({name: tracer.counts[name] // passes for name in COUNTS})
    values["check.failed_units"] = failed_units // passes
    report["per_layer_source"] = source
    report["self_time_by_size"] = tracer.by_size()
    report["probe_self_time_by_size"] = probes
    return values


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args):
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
    }


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heun_su11" / "__init__.py").is_file():
        print(f"bench: no package at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    env = wl.child_env(str(SRC))
    everything = {w.name: w for w in (wl.CliPresets(env), wl.SpectrumLadders(), wl.SeriesLong())}
    workload = everything[args.workload]
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args)}

    setup_s, setup_samples = measure_setup(workload, args.seed, env)
    inputs = workload.make_inputs(args.seed)
    warm = inputs[:1] if workload.name == "cli_presets" else inputs
    workload.run_pass(warm, NullTracer())

    if args.trace:
        untraced, _, _, _ = measure(workload, inputs, args.seconds / 2, NullTracer(), 1)
        tracer = Tracer()
        times, raw, passes, outcomes = measure(workload, inputs, args.seconds / 2, tracer, 1)
        report["untraced_p50_s"] = statistics.median(untraced)
        report["traced_p50_s"] = statistics.median(times)
        report["trace_overhead_s"] = report["traced_p50_s"] - report["untraced_p50_s"]
    else:
        times, raw, passes, outcomes = measure(workload, inputs, args.seconds, NullTracer())
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_presets" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    totals, by_reason, by_size, first = check_outcomes(workload, inputs, outcomes)
    planted = self_test(workload, inputs, first)
    report.update({
        "ops": len(times), "passes": passes, "distinct_pass_outputs": len(outcomes),
        "unscaled_setup_samples_s": setup_samples, "unscaled_p50_s": statistics.median(raw),
        "host_slowdown": statistics.median(r / t for r, t in zip(raw, times)),
        "failures": {"units": totals["units"], "failed_units": totals["failed_units"],
                     "new_defects": totals["new_defects"], "by_reason": dict(by_reason),
                     "by_size": dict(by_size)},
        "self_test": planted,
    })
    correct = totals["new_defects"] == 0 and bool(planted) and all(
        v == "caught" for v in planted.values())

    if args.trace:
        values = per_layer(workload, everything, tracer, passes, totals["failed_units"], env,
                           report)
        units = PER_LAYER
    else:
        verified = totals["attempted"] - totals["failed"]
        tail_s, report["tail_percentile"] = tail(times)
        values = {
            "setup_s": setup_s,
            "p50_s": statistics.median(times),
            "tail_s": tail_s,
            "work_per_s": verified / sum(times),
            "fail_frac": totals["failed"] / totals["attempted"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units) or declared != units:
        raise SystemExit("bench: emitted metrics or units differ from BENCHMARK.json")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
