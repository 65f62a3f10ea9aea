"""The tests' own CLI command corpus, shared by `test_reachable.py`,
`test_readme.py` and `make_cli_transcript.py`.

`COMMANDS` is one command of each subcommand kind and option, a config file
and the CLI's error paths, each with its exit code; `CONFIGS` are the config
files they name. `readme_examples` reads the command lines of README.md.
Nothing here imports pytest or tiltwall, so the transcript generator runs
on any Python the package supports.
"""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

X = ["--genus", "0", "--degree", "3"]
CH = "1,1,3,1/2,3/2,1/2"
PT = ["--alpha2", "1", "--beta", "0"]
SKY = "0,0,0,0,0,1"

# (argv, exit code), run with a scratch directory as the working directory;
# the `--config` files are the `CONFIGS` below.
COMMANDS = [
    # check: all eight kinds, a violated verdict, decimals and JSON
    (["check", "--ineq", "conj31", "--char", CH, *PT, *X], 0),
    (["check", "--ineq", "conj32", "--char", CH, *PT, *X, "--approx"], 0),
    (["check", "--ineq", "star", "--char", CH, *PT, *X], 0),
    (["check", "--ineq", "weak", "--char", CH, *PT, *X, "--format", "json"], 0),
    (["check", "--ineq", "nabla", "--char", "1,0,0,0,1,0", *X], 1),
    (["check", "--ineq", "corollary", "--char", CH, *X], 0),
    (["check", "--ineq", "fiber-bog", "--char", CH, "--k", "2", *X], 0),
    (["check", "--ineq", "classical", "--char", CH, *X, "--approx"], 0),
    # slope: all five kinds, finite and infinite
    (["slope", "--kind", "muHF", "--char", CH, "--approx"], 0),
    (["slope", "--kind", "muHF", "--char", SKY], 0),
    (["slope", "--kind", "muC", "--char", CH], 0),
    (["slope", "--kind", "muC", "--char", "0,0,1,0,1,0"], 0),
    (["slope", "--kind", "muC", "--char", SKY], 0),
    (["slope", "--kind", "nu", "--char", CH, "--alpha2", "1", "--beta=-1/2"], 0),
    (["slope", "--kind", "nu", "--char", SKY, *PT], 0),
    (["slope", "--kind", "nuMixed", "--char", CH, *PT, "--t", "2", *X], 0),
    (["slope", "--kind", "nuMixed", "--char", SKY, *PT, "--t", "2", *X], 0),
    (["slope", "--kind", "nuSigma", "--char", CH, *PT, "--s", "1", "--t", "1", *X], 0),
    (["slope", "--kind", "nuSigma", "--char", SKY, *PT, "--s", "1", "--t", "1", *X], 0),
    # chern: both sources, every transform, and each beta_bar case
    (["chern", "--char", CH, "--dual", "--tensor-line", "1,-1", "--twist", "1/2",
      "--pushforward", "2", *X], 0),
    (["chern", "--line-bundle", "1,0", "--twist", "0", "--format", "json", *X], 0),
    (["chern", "--char", "1,0,0,-1,0,0", *X], 0),
    (["chern", "--char=-1,0,0,2,0,0", *X], 0),
    (["chern", "--char", "1,0,0,-2,0,0", *X], 0),
    (["chern", "--char", "0,1,0,1/2,0,0", *X], 0),
    (["chern", "--char", "0,0,1,0,0,0", *X], 0),
    (["chern", "--char", "1,0,0,1,0,0", "--genus", "0", "--degree", "-1"], 0),
    # wall: each kind of locus, text and JSON
    (["wall", "--u", "1,0,0", "--w", "1,1,1/2"], 0),
    (["wall", "--u", "1,0,0", "--w", "0,0,1", "--format", "text"], 0),
    (["wall", "--u", "1,0,0", "--w", "2,0,0"], 0),
    (["wall", "--u", "1,0,0", "--w", "1,1,0"], 0),
    (["wall", "--u", "0,1,0", "--w", "0,1,1/2"], 0),
    # walls: listing, region, CSV and SVG, disc(u) = 0 and < 0, rank-0 classes, no wall
    # above the point, and oversized scans refused by the walk and by the floor
    (["walls", "--u", "1,0,-1", "--rank-bound", "2", "--at", "1/16,-3/2",
      "--csv", "walls.csv", "--svg", "walls.svg"], 0),
    (["walls", "--u", "1,0,-1", "--rank-bound", "2", "--at", "1,0", "--format", "json"], 0),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1", "--svg", "vertical.svg"], 0),
    (["walls", "--u", "0,3,1/2", "--rank-bound", "2", "--svg", "rank0.svg"], 0),
    (["walls", "--u", "1,1,1/2", "--rank-bound", "2", "--svg", "empty.svg"], 0),
    (["walls", "--u", "1,0,1", "--rank-bound", "2"], 0),
    (["walls", "--u", "0,-1,0", "--rank-bound", "1"], 0),
    (["walls", "--u", "0,0,1", "--rank-bound", "1"], 0),
    (["walls", "--u", "1,0,-1", "--rank-bound", "2", "--at", "100,5"], 0),
    (["walls", "--u", "1,0,-1000000", "--rank-bound", "1000"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1000000000"], 2),
    # chi, support, selftest
    (["chi", "--char", CH, "--pair-from", "1,0", *X, "--approx"], 0),
    (["chi", "--char", CH, *X, "--format", "json"], 0),
    (["support", *PT, "--s", "1", "--t", "1", *X], 1),
    (["support", "--alpha2", "2", "--beta", "1/2", "--s", "1", "--t", "3", *X,
      "--format", "json"], 1),
    (["selftest", "--seed", "3"], 0),  # seed 3 meets two vertical walls
    # config files: true, false, a comment and a blank line; then each bad file
    (["chern", "--config", "job.cfg"], 0),
    (["chi", "--config", "noeq.cfg"], 2),
    (["chi", "--config", "latin1.cfg"], 2),
    (["chi", "--config", "nested.cfg"], 2),
    (["chi", "--config", "missing.cfg"], 2),
    # error paths: missing flags, bad choices, values off their domain
    (["chi", "--char", CH], 2),
    (["chi", *X], 2),
    (["chern", *X], 2),
    (["slope", "--kind", "nu", "--char", CH], 2),
    (["slope", "--kind", "nuMixed", "--char", CH, *PT, *X], 2),
    (["slope", "--kind", "muHF"], 2),
    (["slope", "--kind", "bogus", "--char", CH], 2),
    (["support", *PT, *X], 2),
    (["support", *PT, "--s", "0", "--t", "1", *X], 2),
    (["slope", "--kind", "nuMixed", "--char", CH, *PT, "--t", "0", *X], 2),
    (["check", "--ineq", "weak", "--char", CH, "--alpha2", "0", "--beta", "0", *X], 2),
    (["check", "--ineq", "fiber-bog", "--char", CH, "--k", "0", *X], 2),
    (["check", "--ineq", "star", "--char", SKY, *PT, *X], 2),
    (["check", "--ineq", "weak", "--char", "1,0,0,1/3,0,0", *PT, *X], 2),
    (["check", "--ineq", "weak", "--char", "1,0,0", *PT, *X], 2),
    (["chi", "--char", "1.5,0,0,0,0,0", *X], 2),
    (["chi", "--char", CH, "--genus", "-1", "--degree", "3"], 2),
    # integers outside the wire format: '1_0' and non-ASCII digits
    (["chi", "--char", CH, "--genus", "1_0", "--degree", "3"], 2),
    (["chern", "--line-bundle", "1,\u0663", *X], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "\u0662"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1", "--at", "1"], 2),
    (["chern", "--line-bundle", "1,2,3", *X], 2),
    (["chern", "--line-bundle", "1,0", "--char", CH, *X], 2),
    (["chern", "--char", CH, "--pushforward", "0", *X], 2),
    (["wall", "--u", "1,0", "--w", "1,0,0"], 2),
    (["walls", "--u", "1,0,1/3", "--rank-bound", "1"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "0"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1", "--at", "0,1"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1", "--csv", "no/such/dir.csv"], 2),
    # a value beyond the float range, which `--approx` and the SVG cannot draw
    (["chi", "--char", "1,0,0,0,0,1" + "0" * 400, *X, "--approx"], 2),
    (["walls", "--u", "1,0,-1", "--rank-bound", "1", "--at", "1" + "0" * 400 + ",0",
      "--svg", "huge.svg"], 2),
]

CONFIGS = {
    "job.cfg": "# the README example, read by chern\ngenus = 0\ndegree = 3\n\n"
               f"char = {CH}\ndual = true\napprox = false\n",
    "noeq.cfg": "genus 0\n",
    "latin1.cfg": "genus = 0 # \xe9\n",
    "nested.cfg": "config = job.cfg\n",
}


def readme_examples() -> list[tuple[str, str | None]]:
    """(command line, expected stdout, or None where no output lines follow)
    for each README example."""
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
        examples.append((cmd, "".join(line + "\n" for line in shown) if shown else None))
    return examples
