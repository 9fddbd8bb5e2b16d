"""The examples in README.md: the Library block runs as written, and each
deterministic `$ bernlab ...` example prints what the Command line block
shows."""

import re
from pathlib import Path

import pytest

from bernlab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# Examples whose shown output is elided with "...", holds floats or is
# redirected to a file; they are not compared.
UNCOMPARED = {"verify-integral", "beta-check", "oeis-check", "bench"}


def fenced_block(lang, after):
    """The body of the first ```lang block following the line `after`."""
    start = README.index(f"```{lang}\n", README.index(after + "\n")) + len(lang) + 4
    return README[start:README.index("```", start)]


def cli_examples():
    """(argv, stdout) for each `$ bernlab` example of the Command line block."""
    examples = []
    for chunk in fenced_block("text", "## Command line").replace("\\\n", " ").split("\n\n"):
        command, *output = chunk.strip("\n").split("\n")
        assert command.startswith("$ bernlab "), chunk
        examples.append((command.split()[2:], "".join(line + "\n" for line in output)))
    return examples


COMPARED = [(argv, out) for argv, out in cli_examples() if argv[0] not in UNCOMPARED]


def test_library_block_runs():
    exec(compile(fenced_block("python", "## Library"), "README.md", "exec"), {})


def test_every_uncompared_example_is_elided_floating_or_redirected():
    for argv, out in cli_examples():
        if argv[0] in UNCOMPARED:
            assert "..." in out or re.search(r"\d\.\d", out) or ">" in argv, argv


def test_the_compared_examples():
    assert [" ".join(argv) for argv, _ in COMPARED] == [
        "bernoulli 12",
        "bernoulli 30 --method split --m 11",
        "identity 2 4",
        "polylog 3 --at 1/2",
        "table bernoulli --max 4",
        "stirling 7 3",
    ]


@pytest.mark.parametrize("argv,expected", COMPARED, ids=[" ".join(a) for a, _ in COMPARED])
def test_cli_example_prints_what_the_readme_shows(capsys, argv, expected):
    code = cli.run(argv)
    assert (code, capsys.readouterr()) == (0, (expected, ""))
