"""The docs stay runnable.

Every ``python -m repro ...`` command shown in README.md's shell blocks
or in ``repro.cli``'s docstring must parse with the real argument
parser, and every repository path README.md names in backticks must
exist (output directories listed in ``.gitignore`` excepted).
"""

import itertools
import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SHELL_OPS = {"|", "||", "&&", ";", "&", ">", ">>", "2>", "<"}
PATH_RE = re.compile(r"`((?:src|tests|benchmarks|examples|\.github)/[^`\s]*)`")


def _shell_block_lines(markdown):
    """Lines of the ```` ```sh ```` fenced blocks (the package map and
    Python snippets are not commands)."""
    lang = None
    for line in markdown.splitlines():
        fence = line.strip()
        if fence.startswith("```"):
            lang = fence[3:] if lang is None else None
        elif lang == "sh":
            yield line


def _repro_argvs(lines):
    """``python -m repro`` argument lists: ``\\`` continuations joined,
    ``#`` comments dropped, cut at the first shell operator."""
    buf = ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            buf += line.rstrip()[:-1] + " "
            continue
        tokens, buf = shlex.split(buf + line, comments=True), ""
        for i in range(len(tokens) - 2):
            if tokens[i:i + 3] == ["python", "-m", "repro"]:
                yield list(itertools.takewhile(
                    lambda tok: tok not in SHELL_OPS, tokens[i + 3:]))
                break


def _gitignored(path):
    for line in (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines():
        entry = line.strip().rstrip("/")
        if entry and not entry.startswith("#") and (
                path.rstrip("/") == entry or path.startswith(entry + "/")):
            return True
    return False


_CLI_EXAMPLES = repro.cli.__doc__.split("::", 1)[1].splitlines()
COMMANDS = sorted({
    shlex.join(argv)
    for argv in (*_repro_argvs(_shell_block_lines(README)),
                 *_repro_argvs(_CLI_EXAMPLES))
})
PATHS = sorted(p for p in set(PATH_RE.findall(README)) if not _gitignored(p))


def test_docs_show_commands_and_paths():
    assert len(COMMANDS) > 20 and len(PATHS) > 10


@pytest.mark.parametrize("command", COMMANDS)
def test_documented_command_parses(command, capsys):
    try:
        build_parser().parse_args(shlex.split(command))
    except SystemExit as exc:
        pytest.fail(f"`python -m repro {command}` does not parse "
                    f"(exit {exc.code}): {capsys.readouterr().err.strip()}")


@pytest.mark.parametrize("path", PATHS)
def test_readme_path_exists(path):
    assert (ROOT / path).exists(), f"README.md names missing path {path}"
