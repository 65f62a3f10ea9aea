"""`cli`: sequential `tiltwall` processes over a seeded command mix.

Every op starts `sys.executable -c "from tiltwall.cli import main; main()"`
with PYTHONPATH=src from the checkout root, so interpreter start, `import
tiltwall.cli`, argument parsing and output are all inside the op. A round
holds the same number of ops of each kind (ROUND_MIX): the seed picks the
commands once and every round reshuffles them. The `selftest` and five
`support` runs are the slowest, so the tail percentile falls among the
`support` runs. Text and JSON output both occur, and a share of the
commands take their flags from a `--config` file.

Checks: exit code and stdout bytes, plus the bytes of any CSV/SVG written;
for `support`, exit code 1 with a JSON `witness` of null.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from harness import OP_TIMEOUT_S, ROOT, WORK_DIR, child_env, sha

LAUNCHER = [sys.executable, "-c", "from tiltwall.cli import main; main()"]
ROUND_MIX = {
    "selftest": 1, "support": 5, "walls": 5, "chi": 6, "slope": 5,
    "check": 4, "chern": 3, "wall": 3,
}
POOL_PER_KIND = 24
CONFIG_SHARE = 4  # one chi/slope/check/chern command in this many uses --config
WORK_REL = WORK_DIR.relative_to(ROOT).as_posix()

SMALL_WALL_CLASSES = ("1,0,-1", "0,3,1/2", "1,0,-2", "2,1,-1", "1,1,-3/2", "0,2,-1", "-1,1,2")


def _rat(rng, span=12, den=6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _pos(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _char(rng) -> str:
    return ",".join(str(x) for x in (
        rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-8, 8),
        Fraction(rng.randint(-10, 10), 2), Fraction(rng.randint(-10, 10), 2),
        Fraction(rng.randint(-18, 18), 6),
    ))


def _reduced(rng) -> str:
    return f"{rng.randint(-3, 3)},{rng.randint(-4, 4)},{Fraction(rng.randint(-8, 8), 2)}"


def _x(rng) -> dict:
    return {"genus": rng.randint(0, 5), "degree": rng.randint(-3, 5)}


def _fmt(rng) -> dict:
    return {"format": rng.choice(("text", "json"))}


def command(kind: str, j: int) -> dict:
    """Flags of pool command j of one kind: {"kind", "flags", "switches", "config"}."""
    rng = random.Random(f"cli:{kind}:{j}")
    flags: dict = {}
    switches: list[str] = []
    if kind == "chi":
        flags.update(_x(rng), char=_char(rng), **_fmt(rng))
        if rng.random() < 0.35:
            flags["pair-from"] = f"{rng.randint(-2, 2)},{rng.randint(-2, 2)}"
        if rng.random() < 0.25:
            switches.append("approx")
    elif kind == "slope":
        kind_ = rng.choice(("muHF", "muC", "nu", "nuMixed", "nuSigma"))
        flags.update(kind=kind_, char=_char(rng), **_fmt(rng))
        if kind_ in ("nu", "nuMixed", "nuSigma"):
            flags.update(alpha2=_pos(rng), beta=_rat(rng))
        if kind_ in ("nuMixed", "nuSigma"):
            flags.update(_x(rng), t=_pos(rng))
        if kind_ == "nuSigma":
            flags["s"] = _pos(rng)
    elif kind == "check":
        ineq = rng.choice(
            ("conj31", "conj32", "star", "weak", "nabla", "corollary", "fiber-bog", "classical")
        )
        flags.update(_x(rng), ineq=ineq, **_fmt(rng))
        while True:
            ch = _char(rng)
            a2, b = _pos(rng), _rat(rng)
            r, c = (int(x) for x in ch.split(",")[:2])
            if ineq != "star" or c - b * r != 0:  # star needs a finite tilt slope
                break
        flags["char"] = ch
        if ineq in ("conj31", "conj32", "star", "weak"):
            flags.update(alpha2=a2, beta=b)
        if ineq == "fiber-bog":
            flags["k"] = rng.randint(1, 3)
        if rng.random() < 0.3:
            switches.append("approx")
    elif kind == "chern":
        flags.update(_x(rng), **_fmt(rng))
        if rng.random() < 0.5:
            flags["char"] = _char(rng)
        else:
            flags["line-bundle"] = f"{rng.randint(-3, 3)},{rng.randint(-3, 3)}"
        if rng.random() < 0.3:
            switches.append("dual")
        if rng.random() < 0.4:
            flags["tensor-line"] = f"{rng.randint(-2, 2)},{rng.randint(-2, 2)}"
        if rng.random() < 0.5:
            flags["twist"] = _rat(rng, 6, 4)
        if rng.random() < 0.3:
            flags["pushforward"] = rng.randint(1, 3)
    elif kind == "wall":
        flags.update(u=_reduced(rng), w=_reduced(rng))
        if rng.random() < 0.5:
            flags["format"] = rng.choice(("text", "json"))
    elif kind == "walls":
        flags.update(u=rng.choice(SMALL_WALL_CLASSES), **{"rank-bound": rng.randint(1, 3)})
        flags.update(_fmt(rng))
        if rng.random() < 0.3:
            flags["at"] = f"{Fraction(rng.randint(1, 8), 8)},{_rat(rng, 8, 4)}"
        if rng.random() < 0.3:
            flags["csv"] = f"{WORK_REL}/walls-{j}.csv"
        if rng.random() < 0.3:
            flags["svg"] = f"{WORK_REL}/walls-{j}.svg"
    elif kind == "support":
        flags.update(_x(rng), alpha2=_pos(rng), beta=_rat(rng, 6, 4), s=_pos(rng), t=_pos(rng))
        flags["format"] = "json"
    elif kind == "selftest":
        flags["seed"] = j
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    config = None
    if kind in ("chi", "slope", "check", "chern") and rng.randrange(CONFIG_SHARE) == 0:
        # A config value starting with '-' would parse as a flag, so it stays on the line.
        moved = [
            k for k in ("genus", "degree", "char", "alpha2", "beta")
            if k in flags and not str(flags[k]).startswith("-")
        ]
        config = "".join(f"{k} = {flags.pop(k)}\n" for k in moved)
        flags["config"] = f"{WORK_REL}/{kind}-{j}.conf"
    return {"kind": kind, "flags": flags, "switches": switches, "config": config}


def argv(cmd: dict) -> list[str]:
    args = [cmd["kind"]]
    args += [f"--{k}={v}" for k, v in cmd["flags"].items()]
    args += [f"--{s}" for s in cmd["switches"]]
    return args


def outputs(cmd: dict) -> list[str]:
    return [cmd["flags"][k] for k in ("csv", "svg") if k in cmd["flags"]]


def pool() -> list[dict]:
    return [command(kind, j) for kind in ROUND_MIX for j in range(POOL_PER_KIND)]


def command_key(cmd: dict) -> str:
    return " ".join(argv(cmd)) + (f" <<{cmd['config']!r}" if cmd["config"] else "")


def observe(cmd: dict, code: int, stdout: bytes) -> dict:
    """What a run of `cmd` showed: exit code, stdout digest, output-file digests."""
    files = {}
    for rel in outputs(cmd):
        path = ROOT / rel
        files[rel] = sha(path.read_bytes()) if path.is_file() else None
    return {"exit": code, "stdout": sha(stdout), "files": files}


def no_witness(code: int, stdout: bytes) -> bool:
    """`support` passes with exit 1 and a JSON witness of null, whatever else it says."""
    try:
        return code == 1 and json.loads(stdout)["witness"] is None
    except (ValueError, KeyError, TypeError):
        return False


def prepare_files(cmds: list[dict]) -> None:
    WORK_DIR.mkdir(exist_ok=True)
    for cmd in cmds:
        if cmd["config"]:
            (ROOT / cmd["flags"]["config"]).write_text(cmd["config"], encoding="utf-8")


def launch(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        args, cwd=ROOT, env=child_env(), capture_output=True, timeout=OP_TIMEOUT_S
    )


def run_in_process(tw, args: list[str]) -> tuple[int, bytes]:
    """`tiltwall.cli.run` with stdout captured, from the checkout root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tw.cli.run(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8")


class CliWorkload:
    name = "cli"
    children = True  # peak RSS is the children's
    tail_percentile = 90.0

    def __init__(self, tw, expected: dict, seed: int, in_process: bool = False):
        self.tw = tw
        self.seed = seed
        self.in_process = in_process
        self.answers = {e["key"]: e for e in expected["commands"]}
        self.by_kind = {kind: [command(kind, j) for j in range(POOL_PER_KIND)] for kind in ROUND_MIX}
        prepare_files([c for cmds in self.by_kind.values() for c in cmds])
        rng = random.Random(f"cli:{seed}")
        self.picks = [c for kind, n in ROUND_MIX.items() for c in rng.sample(self.by_kind[kind], n)]

    def round(self, i: int) -> list:
        rng = random.Random(f"cli:{self.seed}:{i}")
        cmds = list(self.picks)
        rng.shuffle(cmds)
        return [self._op(c) for c in cmds]

    def warm_up_ops(self) -> list:
        return [self._op(self.by_kind["chi"][0])]

    def _op(self, cmd: dict):
        tw = self.tw
        args = argv(cmd)
        key = command_key(cmd)
        expected = self.answers.get(key)
        for rel in outputs(cmd):
            (ROOT / rel).unlink(missing_ok=True)

        if self.in_process:
            def call():
                return run_in_process(tw, args)
        else:
            def call():
                done = launch(LAUNCHER + args)
                return done.returncode, done.stdout

        def check(result) -> bool:
            code, stdout = result
            if cmd["kind"] == "support":
                return no_witness(code, stdout)
            seen = observe(cmd, code, stdout)
            for rel in outputs(cmd):
                (ROOT / rel).unlink(missing_ok=True)
            return expected is not None and seen == {k: expected[k] for k in seen}

        return key, call, check

    def details(self) -> dict:
        return {"round_ops": sum(ROUND_MIX.values()), "round_mix": ROUND_MIX}
