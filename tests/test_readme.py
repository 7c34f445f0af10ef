"""The README's examples run as written: every ``tiltbound`` line of the
"Command line" block through ``cli.main``, and the "Library quick start"
block as Python."""

import re
import shlex
from pathlib import Path

import pytest

from tiltbound.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _command_lines() -> list[tuple[list, str]]:
    """(argv after ``tiltbound``, the note after ``#``) of each command line,
    with backslash continuations joined."""
    lines = []
    for line in _block("Command line", "sh").replace("\\\n", " ").splitlines():
        command, _, note = line.partition("#")
        argv = shlex.split(command)
        if argv and argv[0] == "tiltbound":
            lines.append((argv[1:], note.strip()))
    return lines


COMMANDS = _command_lines()


def test_readme_lists_the_command_lines():
    assert [argv[:2] for argv, _ in COMMANDS] == [
        ["eval", "--bound"], ["eval", "--bound"], ["eval", "--bound"], ["eval", "--bound"],
        ["wall", "first"], ["wall", "nested"], ["verify", "--suite"], ["emit", "--figure"],
    ]


@pytest.mark.parametrize("argv, note", COMMANDS, ids=[" ".join(argv[:3]) for argv, _ in COMMANDS])
def test_readme_command_line_runs(argv, note, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # emit --out writes its file here
    assert main(argv) == 0
    out = capsys.readouterr().out
    if note.startswith("->"):
        assert out.splitlines()[0] == note[2:].strip()


def test_readme_library_quick_start_runs():
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), {})
