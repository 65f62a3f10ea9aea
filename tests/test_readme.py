"""The README's command-line examples stay true.

Every `tiltwall ...` line of README.md (with `\\` continuations joined) is
run through `cli.run` in a scratch directory. It must exit 0, or 1 for
`support`, write each file it names with `--svg` or `--csv`, and, when
`# ...` output lines follow it, print those lines on stdout. Lines marked
`# (stderr)` describe stderr and are not compared. Every `--name` the README
mentions must be an option of some subcommand, and every backticked
CamelCase name an attribute of `tiltwall`.
"""

import argparse
import re
import shlex

import pytest

import tiltwall
from cli_corpus import README, readme_examples
from tiltwall.cli import build_parser, run

EXAMPLES = readme_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 8 and sum(stdout is not None for _, stdout in EXAMPLES) >= 5
    # one example writes both files
    assert any("--svg" in cmd and "--csv" in cmd for cmd, _ in EXAMPLES)


@pytest.mark.parametrize("cmd,stdout", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
def test_example_stdout(cmd, stdout, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(cmd, comments=True)[1:]
    assert run(argv) == (1 if argv[0] == "support" else 0)
    if stdout is not None:
        assert capsys.readouterr().out == stdout
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--svg", "--csv"):
            assert (tmp_path / path).stat().st_size > 0


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
