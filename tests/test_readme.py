"""The README's examples: each commented result is what the code returns."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sockpath.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> list[str]:
    """Lines of the first ``language`` code block under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0].splitlines()


API_LINES = fenced_block("Python API", "python")


def test_api_block_is_nonempty():
    assert sum("#" in line for line in API_LINES) >= 8


@pytest.mark.parametrize(
    "line", [line for line in API_LINES if "#" in line], ids=lambda line: line.split("#")[0].strip()
)
def test_api_line_gives_its_comment(line):
    namespace: dict = {}
    exec("\n".join(setup for setup in API_LINES if "#" not in setup), namespace)
    expression, comment = (part.strip() for part in line.split("#", 1))
    result = eval(expression, namespace)
    if expression.startswith("sp.monte_carlo("):
        assert comment == "small Fraction"
        assert isinstance(result, Fraction) and result < Fraction(1, 100)
    else:
        assert repr(result) == comment


@pytest.mark.parametrize("command", ["prob 2,1", "prob 1,2", "ktuple 1,2,1,2,3,4,3,2,1,0"])
def test_cli_line_prints_its_comment(command):
    # the literal output is the comment up to a double space; any note
    # after it is prose
    (comment,) = re.findall(
        rf"^sockpath {re.escape(command)} +# (.*)$", README, flags=re.MULTILINE
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert out.getvalue() == comment.split("  ")[0] + "\n"
