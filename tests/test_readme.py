"""The README's examples, run as written.

The "Library example" block is executed and each ``print`` is compared
with the ``# value`` comment on its line; the ``dist`` and ``quotient``
command lines of the CLI block that carry a ``# -> value`` comment are
run through ``padicdist.cli.main`` and their output compared with it.
"""

import re
import shlex
from pathlib import Path

import pytest

from padicdist.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first ``lang`` fenced block after the line ``heading``."""
    after = README[README.index(f"\n{heading}\n"):]
    match = re.search(rf"```{lang}\n(.*?)```", after, re.S)
    return match.group(1)


CLI_LINES = [
    line for line in _block("## CLI", "sh").splitlines()
    if re.match(r"padicdist (dist|quotient) ", line) and "# ->" in line
]


def test_library_example_prints_its_comments(capsys):
    code = _block("## Library example", "python")
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines() if line.startswith("print(")
    ]
    assert expected
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_lines_are_found():
    assert len(CLI_LINES) == 4


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_prints_its_comment(line, capsys):
    command, expected = line.split("# ->")
    argv = shlex.split(command)
    assert argv[0] == "padicdist"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.strip() == expected.strip()
