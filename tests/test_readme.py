"""The README's CLI examples print what the README says they print."""

import re
import shlex
from pathlib import Path

import pytest

from edgeperf import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    """(argv, stdout) for each `edgeperf …` line of the CLI block followed by `# <output>`."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.splitlines()
    return [
        (shlex.split(line)[1:], following[2:] + "\n")
        for line, following in zip(lines, lines[1:])
        if line.startswith("edgeperf ") and following.startswith("# ")
    ]


EXAMPLES = cli_examples()


def test_the_cli_block_has_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_cli_example_prints_its_output(capsys, argv, expected):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")
