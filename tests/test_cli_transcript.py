"""The CLI's output is pinned byte for byte: stdout, stderr, exit code and
CSV/SVG digests of every corpus command, README example and `--help` match
the committed `cli_transcript.txt` (see `make_cli_transcript.py`)."""

import difflib

from make_cli_transcript import TRANSCRIPT, build_transcript


def test_cli_output_matches_the_transcript():
    want = TRANSCRIPT.read_text(encoding="utf-8")
    got = build_transcript()
    diff = difflib.unified_diff(
        want.splitlines(), got.splitlines(), "cli_transcript.txt", "this tree", lineterm=""
    )
    assert got == want, "CLI output changed:\n" + "\n".join(list(diff)[:200])
