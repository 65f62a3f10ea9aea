"""Command-line front end.

Subcommands: chern | slope | check | wall | walls | chi | support | selftest.
Rationals are printed exactly ('p' or 'p/q'); --approx adds a clearly labeled
decimal. Exit codes: 0 success / inequality holds, 1 negative verdict
(inequality violated, no support witness, selftest failure), 2 malformed
input. `support` never exits 0: for every charge it prints the exact kernel
vector that rules out its whole family of forms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .chern import (
    ReducedClass,
    TiltPoint,
    beta_bar,
    parse_reduced,
    reduced,
    tensor_line,
    twist,
)
from .exactnum import format_list, format_rat, lattice_error, parse_int, parse_list, parse_rat
from .geometry import (
    RuledThreefold,
    dual_char,
    euler_char,
    euler_char_pair,
    fiber_pushforward_char,
    line_bundle_char,
    parse_char,
)
from .inequalities import (
    bg_main_defect,
    bg_nu_zero_defect,
    bg_star_defect,
    bg_weak_defect,
    corollary_defect,
    disc_bar,
    disc_classical,
    disc_tilde,
    fiber_bogomolov_defect,
    nabla,
)
from .stability import ChargeParams, mu_C, mu_HF, nu, nu_mixed, nu_sigma
from .support import null_kernel_vector
from .walls import (
    EVERYWHERE,
    SemicircleWall,
    VerticalWall,
    Wall,
    candidate_bound,
    candidate_floor,
    enumerate_destabilizers,
    no_wall_reason,
    numerical_wall,
)


def _type(parser_fn, what):
    def convert(text):
        try:
            return parser_fn(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what}: {exc}") from exc

    return convert


def _on_lattice(x):
    error = lattice_error(x)
    if error:
        raise ValueError(error)
    return x


_int = _type(parse_int, "integer")
_rat = _type(parse_rat, "rational")
_char = _type(lambda s: _on_lattice(parse_char(s)), "character")
_reduced = _type(lambda s: _on_lattice(parse_reduced(s)), "reduced class")
_line_bundle = _type(lambda s: parse_list(s, "pair", 2, parse_int), "pair")
_at = _type(lambda s: TiltPoint(*parse_list(s, "point", 2)), "point")


# Most candidate classes `walls` scans, by `candidate_bound`. On a 2-vCPU host
# a bounded class costs about 1 us when disc(u) is large and up to about 20 us
# when it is small against the rank.
MAX_WALL_CANDIDATES = 1_000_000


class ConfigGiven(Exception):
    """Raised as the type of `--config`, once argparse has resolved every flag."""


def _config_given(path):
    raise ConfigGiven


def apply_config(argv: list[str]) -> list[str]:
    """Splice a config file's `key = value` entries in as flags right after the
    subcommand, in place of `--config FILE`, once a parse has met `--config`
    (so no flag is ambiguous). argparse keeps a flag's last value, so flags on
    the command line win in every spelling; it checks each entry as a flag."""
    locate = argparse.ArgumentParser(add_help=False)
    locate.add_argument("--config")
    found, argv = locate.parse_known_args(argv)
    extra: list[str] = []
    with open(found.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = f"--{key}"
            if value.lower() == "true":
                extra.append(flag)
            elif value.lower() != "false":
                # One token, so a value such as -1/2 is not read as a flag.
                extra.append(f"{flag}={value}")
    return argv[:1] + extra + argv[1:]


def _threefold(args) -> RuledThreefold:
    if args.genus is None or args.degree is None:
        raise ValueError("this command needs --genus and --degree")
    X = RuledThreefold(args.genus, args.degree)
    if X.degree < 0:
        print("note: degree < 0, the relative hyperplane class is not nef", file=sys.stderr)
    return X


def _approx(args, q: Fraction) -> str:
    return f"  (approx {float(q):.6g})" if args.approx else ""


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError("missing required flags: " + ", ".join(f"--{n}" for n in missing))


def _point_flags(args) -> TiltPoint:
    _require(args, ["alpha2", "beta"])
    return TiltPoint(args.alpha2, args.beta)


def _charge_flags(args) -> ChargeParams:
    _require(args, ["alpha2", "beta", "s", "t"])
    return ChargeParams(args.alpha2, args.beta, args.s, args.t)


# ---------------------------------------------------------------- subcommands


def _cmd_chern(args) -> int:
    X = _threefold(args)
    if (args.char is None) == (args.line_bundle is None):
        raise ValueError("give exactly one of --char or --line-bundle")
    ch = args.char if args.char is not None else line_bundle_char(*args.line_bundle, X)
    if args.dual:
        ch = dual_char(ch)
    if args.tensor_line is not None:
        ch = tensor_line(ch, *args.tensor_line, X)
    if args.twist is not None:
        ch = twist(ch, args.twist, X)
    if args.pushforward is not None:
        ch = fiber_pushforward_char(args.pushforward, ch)
    red = reduced(ch)
    payload: dict = {
        "char": format_list(ch.as_tuple()),
        "reduced": format_list(red.as_tuple()),
        "lattice": lattice_error(ch) is None,
        "disc_bar": format_rat(disc_bar(ch)),
        "disc_tilde0": format_rat(disc_tilde(ch, 0, X)),
        "nabla": format_rat(nabla(ch, X)),
        "mu_HF": str(mu_HF(ch)),
        "mu_C": str(mu_C(ch)),
    }
    try:
        payload["beta_bar"] = str(beta_bar(ch))
    except ValueError as exc:
        payload["beta_bar"] = None
        payload["beta_bar_note"] = str(exc)
    lines = [f"{k} = {v}" for k, v in payload.items()]
    _emit(args, payload, lines)
    return 0


def _cmd_slope(args) -> int:
    _require(args, ["char"])
    kind, ch = args.kind, args.char
    if kind == "muHF":
        value = mu_HF(ch)
    elif kind == "muC":
        value = mu_C(ch)
    else:
        pt = _point_flags(args)
        if kind == "nu":
            value = nu(ch, pt)
        elif kind == "nuMixed":
            _require(args, ["t"])
            value = nu_mixed(ch, pt, args.t, _threefold(args))
        else:  # nuSigma
            value = nu_sigma(ch, _charge_flags(args), _threefold(args))
    suffix = "" if value.is_infinite else _approx(args, value.value)
    _emit(args, {"kind": kind, "value": str(value)}, [str(value) + suffix])
    return 0


def _verdict_lines(args, defects: dict) -> tuple[int, list[str]]:
    ok = all(v >= 0 for v in defects.values())
    lines = [f"{name} = {format_rat(v)}{_approx(args, v)}" for name, v in defects.items()]
    lines.append(
        "verdict: holds (conditional on semistability)" if ok else "verdict: violated"
    )
    return (0 if ok else 1), lines


# --ineq kind -> its defect of (ch, args, X), or a dict of named defects. A kind
# evaluated at a tilt point reads it through `_point_flags`.
CHECKS = {
    "conj31": lambda ch, a, X: bg_main_defect(ch, _point_flags(a), X),
    "conj32": lambda ch, a, X: bg_nu_zero_defect(ch, _point_flags(a), X),
    "star": lambda ch, a, X: bg_star_defect(ch, _point_flags(a), X),
    "weak": lambda ch, a, X: bg_weak_defect(ch, _point_flags(a), X),
    "nabla": lambda ch, a, X: nabla(ch, X),
    "corollary": lambda ch, a, X: corollary_defect(ch, X),
    "fiber-bog": lambda ch, a, X: fiber_bogomolov_defect(a.k, ch, X),
    "classical": lambda ch, a, X: dict(zip(("F_defect", "H_defect"), disc_classical(ch, X))),
}


def _cmd_check(args) -> int:
    X = _threefold(args)
    _require(args, ["char"])
    defects = CHECKS[args.ineq](args.char, args, X)
    if not isinstance(defects, dict):
        defects = {"defect": defects}
    code, lines = _verdict_lines(args, defects)
    payload = {name: format_rat(v) for name, v in defects.items()}
    payload["holds"] = code == 0
    _emit(args, payload, lines)
    return code


def _wall_payload(wall) -> dict:
    if wall is EVERYWHERE:
        return {"type": "everywhere"}
    if wall is None:
        return {"type": "none"}
    if isinstance(wall, VerticalWall):
        return {"type": "vertical", "beta": format_rat(wall.beta)}
    return {
        "type": "semicircle",
        "center": format_rat(wall.center),
        "radius_sq": format_rat(wall.radius_sq),
    }


def _wall_text(wall) -> str:
    p = _wall_payload(wall)
    return " ".join([p.pop("type"), *(f"{k}={v}" for k, v in p.items())])


def _cmd_wall(args) -> int:
    wall = numerical_wall(args.u, args.w)
    _emit(args, _wall_payload(wall), [_wall_text(wall)])
    return 0


def _no_walls_note(args) -> str:
    if reason := no_wall_reason(args.u):
        return reason
    if args.at is None:
        return f"no class with |rank| <= {args.rank_bound} passes (A)-(E)"
    point = f"({format_rat(args.at.alpha2)}, {format_rat(args.at.beta)})"
    return f"no wall of a class with |rank| <= {args.rank_bound} passes through or above {point}"


def _cmd_walls(args) -> int:
    # the constant-time floor first, so a huge rank bound is refused at once
    for bound, size in ((candidate_floor, "at least"), (candidate_bound, "up to")):
        estimate = bound(args.u, args.rank_bound)
        if estimate > MAX_WALL_CANDIDATES:
            raise ValueError(
                f"the scan would test {size} {estimate} candidate classes, "
                f"more than the cap of {MAX_WALL_CANDIDATES}"
            )
    found = enumerate_destabilizers(args.u, args.rank_bound, args.at)
    if not found:
        print(f"note: {_no_walls_note(args)}", file=sys.stderr)
    payload = [
        dict(w=format_list(w.as_tuple()), **_wall_payload(wall))
        for w, wall in found
    ]
    lines = [
        f"{_wall_text(wall)}  (w={format_list(w.as_tuple())})"
        for w, wall in found
    ] or ["no walls"]
    if args.csv:
        emit_csv(found, args.csv)
    if args.svg:
        emit_svg([wall for _, wall in found], args.at, args.svg)
    _emit(args, {"walls": payload}, lines)
    return 0


def _cmd_chi(args) -> int:
    X = _threefold(args)
    _require(args, ["char"])
    ch = args.char
    if args.pair_from is not None:
        value = euler_char_pair(X, line_bundle_char(*args.pair_from, X), ch)
    else:
        value = euler_char(X, ch)
    _emit(args, {"chi": format_rat(value)}, [format_rat(value) + _approx(args, value)])
    return 0


def _cmd_support(args) -> int:
    X = _threefold(args)
    v = null_kernel_vector(_charge_flags(args), X)
    if args.format == "json":
        vector = [format_rat(x) for x in v]
        reason = {"kind": "null_kernel_vector", "vector": vector, "vanishing": ["Q_weak", "Q_disc"]}
        print(json.dumps({"witness": None, "reason": reason}))
    else:
        print("no witness")
        print(
            f"note: Q_weak and Q_disc both vanish on v = ({format_list(v)}) in ker Z, "
            "so no mu*Q_weak + lambda*Q_disc is negative definite on ker Z",
            file=sys.stderr,
        )
    return 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(args.seed)
    for name, checks, fails in results:
        print(f"{name}: {'FAIL' if fails else 'PASS'} ({checks - fails}/{checks} checks)")
    passed = not any(fails for _, _, fails in results)
    print(f"selftest: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ------------------------------------------------------------------ emission


def emit_csv(found: list[tuple[ReducedClass, Wall]], path: str) -> None:
    """CRLF-ended rows; no field holds a comma, quote or newline to quote."""
    rows = ["w_r,w_c,w_d,wall_type,center,radius_sq"]
    for w, wall in found:
        p = _wall_payload(wall)
        fields = [p["type"], p.get("center", p.get("beta")), p.get("radius_sq", "")]
        rows.append(",".join([format_list(w.as_tuple()), *fields]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(row + "\r\n" for row in rows))


def emit_svg(walls: list[Wall], query: TiltPoint | None, path: str) -> None:
    """Deterministic plot: beta horizontal, alpha vertical, equal aspect."""
    width, height, margin = 800.0, 520.0, 48.0
    # (center, radius) of a semicircle, (beta, None) of a vertical wall
    shapes = [
        (float(w.center), math.sqrt(float(w.radius_sq))) if isinstance(w, SemicircleWall)
        else (float(w.beta), None)
        for w in walls
    ]
    xs: list[float] = []
    tops: list[float] = []
    for c, r in shapes:
        if r is None:
            xs.append(c)
        else:
            xs.extend([c - r, c + r])
            tops.append(r)
    if query is not None:
        xs.append(float(query.beta))
        tops.append(math.sqrt(float(query.alpha2)))
    if not xs:
        xs = [-2.0, 2.0]
    if not tops:
        tops = [2.0]
    xmin, xmax = min(xs) - 0.5, max(xs) + 0.5
    ymax = max(tops) * 1.15 + 0.1
    scale = min((width - 2 * margin) / (xmax - xmin), (height - 2 * margin) / ymax)

    def sx(x: float) -> float:
        return margin + (x - xmin) * scale

    def sy(y: float) -> float:
        return height - margin - y * scale

    f = lambda v: f"{v:.4f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(width)} {int(height)}">',
        f'<line x1="{f(sx(xmin))}" y1="{f(sy(0))}" x2="{f(sx(xmax))}" y2="{f(sy(0))}" '
        'stroke="black" stroke-width="1"/>',
    ]
    if xmin <= 0 <= xmax:
        parts.append(
            f'<line x1="{f(sx(0))}" y1="{f(sy(0))}" x2="{f(sx(0))}" y2="{f(sy(ymax))}" '
            'stroke="black" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    parts.append(
        f'<text x="{f(width - margin + 6)}" y="{f(sy(0) + 4)}" font-size="14">beta</text>'
    )
    parts.append(f'<text x="{f(margin - 34)}" y="{f(margin)}" font-size="14">alpha</text>')
    for c, r in shapes:
        if r is None:
            parts.append(
                f'<line x1="{f(sx(c))}" y1="{f(sy(0))}" x2="{f(sx(c))}" y2="{f(sy(ymax))}" '
                'stroke="steelblue" stroke-width="1.5"/>'
            )
        else:
            rr = r * scale
            parts.append(
                f'<path d="M {f(sx(c - r))} {f(sy(0))} A {f(rr)} {f(rr)} 0 0 1 '
                f'{f(sx(c + r))} {f(sy(0))}" fill="none" stroke="crimson" stroke-width="1.5"/>'
            )
    if query is not None:
        qx = sx(float(query.beta))
        qy = sy(math.sqrt(float(query.alpha2)))
        parts.append(f'<circle cx="{f(qx)}" cy="{f(qy)}" r="4" fill="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# -------------------------------------------------------------------- parser


def _common_flags(format_default: str) -> argparse.ArgumentParser:
    """The flags every subcommand shares. Subparsers share their parent's action
    objects, so `set_defaults(format=...)` on one would change every
    subcommand's default: `wall` gets a parent of its own instead."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=_config_given, help="key = value file supplying default flags"
    )
    common.add_argument("--format", choices=("text", "json"), default=format_default)
    common.add_argument("--approx", action="store_true", help="add decimal approximations")
    common.add_argument("--genus", type=_int, default=None)
    common.add_argument("--degree", type=_int, default=None)
    return common


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tiltwall", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    common = _common_flags("text")

    p = sub.add_parser("chern", parents=[common], help="character transforms and invariants")
    p.add_argument("--char", type=_char, default=None)
    p.add_argument("--line-bundle", type=_line_bundle, default=None, metavar="a,b")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--tensor-line", type=_line_bundle, default=None, metavar="a,b")
    p.add_argument("--twist", type=_rat, default=None, metavar="BETA")
    p.add_argument("--pushforward", type=_int, default=None, metavar="K")
    p.set_defaults(handler=_cmd_chern)

    p = sub.add_parser("slope", parents=[common], help="evaluate a slope function")
    p.add_argument("--kind", required=True, choices=("muHF", "muC", "nu", "nuMixed", "nuSigma"))
    p.add_argument("--char", type=_char, default=None)
    p.add_argument("--alpha2", type=_rat, default=None)
    p.add_argument("--beta", type=_rat, default=None)
    p.add_argument("--s", type=_rat, default=None)
    p.add_argument("--t", type=_rat, default=None)
    p.set_defaults(handler=_cmd_slope)

    p = sub.add_parser("check", parents=[common], help="evaluate an inequality defect")
    p.add_argument(
        "--ineq",
        required=True,
        choices=tuple(CHECKS),
    )
    p.add_argument("--char", type=_char, default=None)
    p.add_argument("--alpha2", type=_rat, default=None)
    p.add_argument("--beta", type=_rat, default=None)
    p.add_argument("--k", type=_int, default=1, help="fiber multiplicity for fiber-bog")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "wall", parents=[_common_flags("json")], help="numerical wall of two reduced classes"
    )
    p.add_argument("--u", type=_reduced, required=True)
    p.add_argument("--w", type=_reduced, required=True)
    p.set_defaults(handler=_cmd_wall)

    p = sub.add_parser("walls", parents=[common], help="enumerate destabilizer walls")
    p.add_argument("--u", type=_reduced, required=True)
    p.add_argument("--rank-bound", type=_int, required=True)
    p.add_argument("--at", type=_at, default=None, metavar="ALPHA2,BETA")
    p.add_argument("--svg", default=None, metavar="PATH")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_walls)

    p = sub.add_parser("chi", parents=[common], help="Euler characteristic")
    p.add_argument("--char", type=_char, default=None)
    p.add_argument("--pair-from", type=_line_bundle, default=None, metavar="a,b")
    p.set_defaults(handler=_cmd_chi)

    p = sub.add_parser("support", parents=[common], help="why no support-property witness exists")
    p.add_argument("--alpha2", type=_rat, default=None)
    p.add_argument("--beta", type=_rat, default=None)
    p.add_argument("--s", type=_rat, default=None)
    p.add_argument("--t", type=_rat, default=None)
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in invariant suite")
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return top


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except ConfigGiven:
            args = parser.parse_args(apply_config(list(argv)))
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ConfigGiven:
        print("error: a config file cannot name another config file", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
