"""The README's examples run as written.

The Python block of "Python API" is executed, and every ``fermi-rpa``
line of the "Command line" block runs in process through ``cli.main``
on a ``v.json`` holding the demo potential.  A renamed function, field
or flag then fails here instead of leaving the README stale.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from fermi_rpa.cli import build_parser, main, read_potential
from fermi_rpa.potential import serialize_potential

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n") :]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


COMMANDS = [
    line for line in fenced_block("## Command line", "bash").splitlines()
    if line.startswith("fermi-rpa ")
]


def test_python_api_block_runs():
    exec(compile(fenced_block("## Python API", "python"), "README.md", "exec"), {})


def test_every_subcommand_has_an_example():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(shlex.split(line)[1] for line in COMMANDS) == sorted(subparsers.choices)


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.json").write_text(serialize_potential(read_potential(None)))
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
    if argv == ["ratio"]:
        # the comment is what ratio prints, all 17 digits
        assert out == line.split("# ")[1] + "\n" == "0.91656319310744883\n"
