"""The README's command tour and library example run as printed."""

import re
import shlex
from pathlib import Path

from cactusids.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language, after):
    """The first fenced ``language`` block after the heading ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_command_tour(capsys):
    lines = [line for line in _block("sh", "## Command line").splitlines() if line.strip()]
    assert len(lines) == 9
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "cactusids"
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (3 if argv[0] == "verify" else 0), line
        if comment.strip().isdigit():
            assert out == comment.strip() + "\n", line


def test_library_example(capsys):
    exec(_block("python", "## Library"), {})
    assert "refuted" in capsys.readouterr().out
