"""A seeded sweep of the two CSV writers, `spectrum --csv` and `series --csv`,
run through cli.main in process.

Every block must hold its own sample points, and every value cell must be
the text of the term-by-term reference value (oracle.sum_by_terms) of the
solution the library computes for the same input, at the z of its row.
The grid: spectra with n from 1 to 128 at a in A_VALUES and both gamma, the
complex sub-grids at a < 0 included; series of the three presets at the
same a, on both discrete ladders and both parities, at K in {1, 60, 1000},
overflowed descending series with NaN values included.  The seed draws n,
delta, the preset, q and the sample count; conftest's --sweep-seeds picks
the seeds.
"""

import random

import pytest

from heun_su11.cli import PRESETS, _num_str, main
from heun_su11.heun_core import (
    chebyshev_points,
    default_sample_points,
    lame_parameters,
    make_parameters,
)
from heun_su11.representations import RepresentationClass, classify
from heun_su11.series_engine import ASCENDING, DESCENDING, convergence_domain, series_solution
from heun_su11.spectrum import solve_spectrum
from heun_su11.su11_algebra import decompose
from oracle import series_terms, sum_by_terms

A_VALUES = (2.0, 4.0, 0.3, 1e-3, -3.0, -0.5, 7.7)
LADDERS = {ASCENDING: ("pd", RepresentationClass.POSITIVE_DISCRETE),
           DESCENDING: ("nd", RepresentationClass.NEGATIVE_DISCRETE)}


def reference_cell(sol, z):
    """The text the CSV must hold for sol at z; None where the reference sum
    raises, as math.fsum does on inf - inf."""
    try:
        return _num_str(sum_by_terms(series_terms(sol), z))
    except ValueError:
        return None


def csv_blocks(path):
    """[(comment, [[z cell, value cell], ...]), ...] of a CSV file."""
    blocks = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            blocks.append((line[2:], []))
        elif line != "z,value":
            blocks[-1][1].append(line.split(","))
    return blocks


def check_block(rows, sol, points):
    """Every row of the block against the reference; the block ends at the
    first point whose sum raises, where the writer stopped."""
    expected = []
    for z in points:
        cell = reference_cell(sol, z)
        if cell is None:
            break
        expected.append([_num_str(z), cell])
    assert rows == expected


def run_csv(argv, path, capsys):
    assert main([*argv, "--csv", str(path)]) in (0, 1)
    capsys.readouterr()
    return csv_blocks(path)


def ladder_parameters(n, gamma, delta, a):
    """Parameters of the finite ladder of length n: alpha = mu, beta = mu + 1/2."""
    mu = {0.5: 0.0, 1.5: 0.5}[gamma] - (n - 1) / 2.0
    return {"gamma": gamma, "delta": delta, "alpha": mu, "beta": mu + 0.5, "a": a}


def spectrum_cases(seed):
    rng = random.Random(f"csv-sweep-spectrum-{seed}")
    for a in A_VALUES:
        for gamma in (0.5, 1.5):
            for n in (1, rng.randint(2, 16), rng.randint(17, 127), 128):
                yield n, gamma, round(rng.uniform(-0.55, -0.45), 6), a, rng.randint(1, 8)


def series_cases(seed):
    rng = random.Random(f"csv-sweep-series-{seed}")
    for a in A_VALUES:
        for direction in LADDERS:
            for parity in ("even", "odd"):
                for K in (1, 60, 1000):
                    preset = rng.choice(sorted(PRESETS))
                    yield preset, a, direction, parity, K, round(rng.uniform(-1.0, 1.0), 6)


@pytest.mark.sweep
def test_spectrum_csv_cells_equal_the_reference(seed, tmp_path, capsys):
    seen_complex = 0
    for n, gamma, delta, a, samples in spectrum_cases(seed):
        values = ladder_parameters(n, gamma, delta, a)
        flags = [f"--{name}={value!r}" for name, value in values.items()]
        blocks = run_csv(["spectrum", *flags, f"--samples={samples}"], tmp_path / "s.csv", capsys)
        dec = decompose(make_parameters(**values, q=0.0))
        finite = next(r for r in classify(dec)
                      if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
        pairs = solve_spectrum(dec, finite).pairs
        assert len(blocks) == len(pairs) == n
        points = default_sample_points(a, count=samples)
        for (comment, rows), pair in zip(blocks, pairs):
            assert comment == f"q={_num_str(pair.q)} parity={pair.parity}"
            check_block(rows, pair.eigenfunction, points)
            seen_complex += isinstance(pair.q, complex)
    assert seen_complex


@pytest.mark.sweep
def test_series_csv_cells_equal_the_reference(seed, tmp_path, capsys):
    seen_nan = 0
    for preset, a, direction, parity, K, q in series_cases(seed):
        way, ladder = LADDERS[direction]
        argv = ["series", f"--preset={preset}", f"--a={a!r}", f"--q={q!r}",
                f"--rep={way}", f"--parity={parity}", f"--kmax={K}"]
        [(comment, rows)] = run_csv(argv, tmp_path / "s.csv", capsys)
        p = PRESETS[preset]
        params = (lame_parameters(p["rho"], a, q) if "rho" in p else
                  make_parameters(p["gamma"], p["delta"], p["alpha"], p["beta"], a, q))
        dec = decompose(params)
        rep = next(r for r in classify(dec) if r.rep_class is ladder)
        sol = series_solution(dec, rep, parity, q, truncation=K)
        assert comment == f"q={_num_str(q)} direction={direction} parity={parity}"
        lo, hi = convergence_domain(a, direction)
        check_block(rows, sol, chebyshev_points(lo, hi if direction == ASCENDING else 4.0 * lo, 25))
        seen_nan += any(value == "nan" for _, value in rows)
    assert seen_nan
