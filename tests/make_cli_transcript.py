"""Write `cli_transcript.txt`: what the CLI prints for every command of the
tests' own corpus.

The commands are every `cli_corpus.COMMANDS` entry, every README example
and `--help` of `tiltwall` and of each subcommand. Each runs in process
through `cli.run`, in a fresh scratch working directory holding the
`cli_corpus.CONFIGS` files, with `COLUMNS=80` so that argparse wraps usage
and help text the same way on every terminal. Per command the transcript
holds the argv, the exit code, every stdout and stderr line, and the
SHA-256 of each file named by `--csv` or `--svg` (or `absent`).

The transcript is written by the code it checks, so it pins behaviour; it
is not an oracle. `test_cli_transcript.py` rebuilds it in memory and
compares. After a deliberate output change, regenerate it from the
repository root and list the changed lines in CHANGES.md:

    PYTHONPATH=src python3 tests/make_cli_transcript.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import tempfile
from pathlib import Path
from unittest import mock

from cli_corpus import COMMANDS, CONFIGS, readme_examples
from tiltwall.cli import build_parser, run

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")


def transcript_commands(parser: argparse.ArgumentParser) -> list[list[str]]:
    """The argv of every command the transcript covers, in its order; the
    subcommands are read from `parser`."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return (
        [argv for argv, _ in COMMANDS]
        + [shlex.split(cmd, comments=True)[1:] for cmd, _ in readme_examples()]
        + [["--help"]]
        + [[name, "--help"] for name in subparsers.choices]
    )


def _block(label: str, text: str) -> list[str]:
    lines = text.split("\n")
    last = lines.pop()  # "" when the text ends with a newline
    out = [f"{label}| {line}" for line in lines]
    if last:
        out += [f"{label}| {last}", f"{label}  (no newline at end)"]
    return out


def run_command(argv: list[str]) -> list[str]:
    """The transcript lines of one command, run in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = ["$ tiltwall " + shlex.join(argv), f"exit {code}"]
    lines += _block("out", out.getvalue()) + _block("err", err.getvalue())
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--csv", "--svg"):
            target = Path(path)
            digest = hashlib.sha256(target.read_bytes()).hexdigest() if target.is_file() else None
            lines.append(f"file {path} {digest or 'absent'}")
    return lines


def build_transcript() -> str:
    """The transcript text, from running every command of `transcript_commands`."""
    lines: list[str] = []
    cwd = os.getcwd()
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(transcript_commands(build_parser())):
            work = Path(scratch, str(i))
            work.mkdir()
            for name, text in CONFIGS.items():
                (work / name).write_text(text, encoding="latin-1")
            os.chdir(work)
            try:
                lines += run_command(argv) + [""]
            finally:
                os.chdir(cwd)
    return "\n".join(lines)


if __name__ == "__main__":
    TRANSCRIPT.write_text(build_transcript(), encoding="utf-8")
