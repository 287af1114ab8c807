"""Test-only options.

--sweep-seeds N[,N...] or A-B picks the seeds of the seeded sweeps, the
tests marked `sweep`, which take them as their `seed` argument.  The
default, 1,2, is what a plain run covers; for more, run for example

    PYTHONPATH=src python -m pytest -q -m sweep --sweep-seeds 3-12
"""


def pytest_addoption(parser):
    parser.addoption("--sweep-seeds", default="1,2",
                     help="seeds of the tests marked sweep: a list like 1,2 or a range like 3-12")


def pytest_configure(config):
    config.addinivalue_line("markers", "sweep: a seeded sweep; --sweep-seeds picks its seeds")


def sweep_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def pytest_generate_tests(metafunc):
    if metafunc.definition.get_closest_marker("sweep"):
        metafunc.parametrize("seed", sweep_seeds(metafunc.config.getoption("--sweep-seeds")))
