"""The examples of README.md run as documented."""

import re
import shlex
from pathlib import Path

from demazure_crystals.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_the_readme_commands_exit_zero(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.DOTALL).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("demazure-crystals ")
    ]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()
