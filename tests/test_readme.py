"""The README's examples run as written: every `spinqpe` line of the CLI
block, and the library example. Only those two code blocks are read, so
the prose around them can change freely."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from spinqpe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ```language block under the `## heading` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


CLI_LINES = [line for line in code_block("CLI", "sh").splitlines()
             if line.startswith("spinqpe ")]


def test_cli_block_found():
    assert len(CLI_LINES) == 7


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    if "--out" in line:
        assert captured.out == ""
        # a header and one row per point of the 12x12 grid
        assert len((tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()) == 145
    else:
        assert captured.out


def test_library_example_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code_block("Library example", "python"), namespace)
    result = namespace["result"]
    assert abs(result.theta_est - math.atan(-1 / 3)) <= 1e-12
    assert abs(result.residual_theta) < 1e-12
