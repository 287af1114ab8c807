"""Every `heun-su11 ...` command in README's sh blocks runs and exits 0.

The commands run in order, in one scratch directory, through ``cli.main``,
so a later command can read a file an earlier one wrote.
"""

import re
import shlex
from pathlib import Path

from heun_su11.cli import main

README = Path(__file__).parents[1] / "README.md"


def readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("heun-su11 ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 8
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
