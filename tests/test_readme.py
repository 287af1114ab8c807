"""Every `heun-su11 ...` command in README's sh blocks runs and exits 0,
and every python block runs without an error.

The commands run in order, in one scratch directory, through ``cli.main``,
so a later command can read a file an earlier one wrote.  README names
exactly the options the parser defines.
"""

import argparse
import re
import shlex
from pathlib import Path

from heun_su11.cli import _build_parser, main

README = Path(__file__).parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def readme_commands():
    return [line for block in readme_blocks("sh") for line in block.splitlines()
            if line.startswith("heun-su11 ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 8
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_readme_python_blocks_run(capsys):
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_names_the_options_of_the_parser():
    # Besides the tool's own options, README shows a pip flag and the test
    # suite's seed option; argparse's --help it leaves unnamed.
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {option for p in (parser, *subparsers.choices.values()) for action in p._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings if option.startswith("--")}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text(encoding="utf-8")))
    assert named - {"--no-build-isolation", "--sweep-seeds"} == defined
