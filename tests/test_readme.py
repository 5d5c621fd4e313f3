"""Every `$ openbook ...` example in README.md prints what the README says."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from openbook.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command, expected lines, prefix only) for each example: the
    command with its continuation lines joined, then the lines below it
    up to a blank line or the end of the block; a last line `...` asks
    for a prefix match."""
    examples = []
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if not line.startswith("$ openbook "):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + next(lines).strip()
        expected = []
        for out in lines:
            if not out or out.startswith("```"):
                break
            expected.append(out)
        prefix = expected[-1:] == ["..."]
        examples.append((command, expected[:-1] if prefix else expected, prefix))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, expected, prefix", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_example(command, expected, prefix):
    argv = shlex.split(command)[1:]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code in (0, 2)
    out = buf.getvalue().splitlines()
    assert (out[: len(expected)] if prefix else out) == expected
