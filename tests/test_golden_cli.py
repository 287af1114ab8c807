"""Byte-exact CLI output on fixed inputs.

Each case runs one subcommand in process and compares its stdout and exit
code with ``tests/golden/<case>.out``.  A case that names another case as
its stdin is fed that case's fixture, which is how ``spectrum | verify`` is
covered.  The fixtures hold 17-significant-digit floats, so they pin the
arithmetic exactly: a change that reorders a sum shows up here.
"""

import io
import sys
from pathlib import Path

import pytest

from heun_su11.cli import main

GOLDEN = Path(__file__).parent / "golden"
LADDER = ("--gamma", "0.5", "--delta", "-0.5")


def _cases():
    """name -> (argv, stdin case or None, expected exit code)."""
    cases = {}
    for preset in ("example1", "example2", "lame"):
        source = ("--preset", preset)
        cases[f"decompose-{preset}"] = (("decompose", *source), None, 0)
        cases[f"classify-{preset}"] = (("classify", *source), None, 0)
        cases[f"spectrum-{preset}"] = (("spectrum", *source), None, 0)
        cases[f"verify-{preset}"] = (("verify", "--solution", "-"), f"spectrum-{preset}", 0)
        cases[f"check-algebra-{preset}"] = (("check-algebra", *source), None, 0)
    for name, alpha, beta, a, code in (
        ("spectrum-n32-a2", "-15.5", "-15", "2", 0),
        ("spectrum-n32-a-3", "-15.5", "-15", "-3", 0),
        ("spectrum-n128-a4", "-63.5", "-63", "4", 0),
    ):
        cases[name] = (("spectrum", *LADDER, "--alpha", alpha, "--beta", beta, "--a", a),
                       None, code)
        cases[name.replace("spectrum", "verify")] = (("verify", "--solution", "-"), name, 0)
    for rep in ("pd", "nd"):
        cases[f"series-{rep}-k1000"] = (
            ("series", "--preset", "example1", "--q", "0.3", "--rep", rep, "--kmax", "1000"),
            None, 0)
    cases["series-lame-a-3"] = (("series", "--preset", "lame", "--a", "-3", "--q", "0.7"),
                                None, 0)
    cases["check-algebra-bare"] = (("check-algebra", "--mu", "0.37", "--nu", "-2.2"), None, 0)
    # Ladders with a principal or complementary series, whose h_constraint is printed.
    for name, alpha, beta in (("principal", "0.5", "1"), ("complementary", "0.3", "0.8")):
        cases[f"classify-{name}"] = (
            ("classify", *LADDER, "--alpha", alpha, "--beta", beta, "--a", "2"), None, 0)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys, monkeypatch):
    argv, stdin_case, code = CASES[name]
    if stdin_case is not None:
        text = (GOLDEN / f"{stdin_case}.out").read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(list(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
