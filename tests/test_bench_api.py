"""The package API that the benchmark harness in bench/ uses still exists
and still passes the harness's own checks.

Two guards, a fraction of a second each: every name that a bench module
imports from heun_su11, and every attribute it reads off an imported
heun_su11 module, resolves; and one probe pass of the two in-process
workloads, spectrum_ladders and series_long, yields checked units of which
none fails and outputs that the harness can hash, while the check catches
each wrong answer planted in them.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"


def imported(module: str, name: str):
    """What `from module import name` binds, or None when it fails."""
    try:
        holder = importlib.import_module(module)
        if hasattr(holder, name):
            return getattr(holder, name)
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def missing_names(tree) -> list:
    """The names a bench module takes from heun_su11 that do not resolve:
    each name it imports, and each attribute it reads off one of them."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("heun_su11"):
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = imported(node.module, alias.name)
                if bound[local] is None:
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            holder = bound.get(node.value.id)
            if holder is not None and not hasattr(holder, node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
    return sorted(set(missing))


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_names_from_the_package_resolve(path):
    missing = missing_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not missing, f"{path.name} uses names the package no longer has: {missing}"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("tracer", ["NullTracer", "Tracer"])
@pytest.mark.parametrize("name", ["SpectrumLadders", "SeriesLong"])
def test_a_probe_pass_of_the_in_process_workloads_checks_out(workloads, name, tracer):
    # Under a live Tracer, spectrum_ladders also re-times its layers outside
    # the op, scoring each pair through verifier.residual_for_coefficients.
    module, spans = workloads
    workload = getattr(module, name)()
    inputs = workload.probe_inputs()
    _timings, outputs = workload.run_pass(inputs, getattr(spans, tracer)())
    units = list(workload.check(inputs, outputs))
    assert units
    # The harness hashes the pickled outputs of every pass, each series with
    # its cache, so whatever a record caches must pickle, and a second pass
    # must hash alike.
    _timings, again = workload.run_pass(inputs, spans.NullTracer())
    assert workload.digest(outputs) == workload.digest(again)
    assert [(unit.id, unit.reasons) for unit in units if unit.reasons] == []
    # The probe's two-dimensional ladder plants nothing, but its plants
    # still read the spectrum's pairs.
    plants = workload.plants(inputs, outputs, units)
    assert [name for name, text, checker in plants if not checker(text)] == []
