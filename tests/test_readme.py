"""The README's command-line examples stay true.

Every `tiltwall ...` line of README.md (with `\\` continuations joined) that
is followed by `# ...` output lines is run through `cli.run`, and its stdout
is compared with those lines. Lines marked `# (stderr)` describe stderr and
are not compared. Every `--name` the README mentions must be an option of
some subcommand, and every backticked CamelCase name an attribute of
`tiltwall`.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import tiltwall
from tiltwall.cli import build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each README example with output lines."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    i = 0
    while i < len(lines):
        cmd = lines[i]
        i += 1
        if not cmd.startswith("tiltwall "):
            continue
        while cmd.endswith("\\") and i < len(lines):
            cmd = cmd[:-1].rstrip() + " " + lines[i].strip()
            i += 1
        shown = []
        while i < len(lines) and lines[i].startswith("# "):
            if not lines[i].startswith("# (stderr)"):
                shown.append(lines[i][2:])
            i += 1
        if shown:
            examples.append((cmd, "".join(line + "\n" for line in shown)))
    return examples


EXAMPLES = readme_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("cmd,stdout", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
def test_example_stdout(cmd, stdout, capsys):
    run(shlex.split(cmd, comments=True)[1:])
    assert capsys.readouterr().out == stdout


def test_readme_names_only_real_flags():
    # every --name in the README is an option of some subcommand, so a
    # deleted flag cannot linger in the docs; `pip` lines and the `--flag`
    # placeholder are not tiltwall options
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        opt for sub in subparsers.choices.values() for a in sub._actions for opt in a.option_strings
    }
    lines = README.read_text(encoding="utf-8").splitlines()
    named = {
        flag
        for line in lines
        if not line.startswith("pip ")
        for flag in re.findall(r"--[a-z][a-z0-9-]*", line)
    }
    unknown = named - options - {"--flag"}
    assert not unknown, sorted(unknown)


def test_readme_names_only_real_api():
    # every backticked CamelCase name, with any `.attr` suffix, resolves in
    # tiltwall, so a deleted class or method cannot linger in the docs
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*(?:\.[A-Za-z_]\w*)*)`", text))

    def resolves(dotted: str) -> bool:
        obj = tiltwall
        for name in dotted.split("."):
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    unknown = {n for n in named if n.split(".")[0] not in ("Fraction", "TypeError") and not resolves(n)}
    assert not unknown, sorted(unknown)
