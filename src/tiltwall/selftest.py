"""Built-in invariant suite behind the `selftest` subcommand.

Deterministic for a fixed seed; each suite returns (name, checks, failures).
The rand_* generators are the seeded draws the test suite shares.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chern import ReducedClass, TiltPoint, tensor_line, twist
from .geometry import CHAR_O, CharVector, RuledThreefold, canonical_and_c2, euler_char
from .inequalities import bg_main_defect, bg_star_defect, disc_bar, disc_tilde, nabla
from .stability import nu
from .walls import EVERYWHERE, numerical_wall, walls_meet


def rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def rand_lattice_char(rng: random.Random) -> CharVector:
    return CharVector(
        rng.randint(-5, 5),
        rng.randint(-5, 5),
        rng.randint(-8, 8),
        Fraction(rng.randint(-10, 10), 2),
        Fraction(rng.randint(-10, 10), 2),
        Fraction(rng.randint(-18, 18), 6),
    )


def rand_reduced(rng: random.Random) -> ReducedClass:
    return ReducedClass(
        rng.randint(-3, 3), rng.randint(-4, 4), Fraction(rng.randint(-8, 8), 2)
    )


def rand_threefold(rng: random.Random) -> RuledThreefold:
    return RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))


def rand_point(rng: random.Random) -> TiltPoint:
    return TiltPoint(Fraction(rng.randint(1, 9), rng.randint(1, 4)), rand_rat(rng))


def _suite_twist_group_law(rng, n=200):
    fails = 0
    for _ in range(n):
        X = rand_threefold(rng)
        ch = rand_lattice_char(rng)
        b1, b2 = rand_rat(rng), rand_rat(rng)
        if twist(twist(ch, b1, X), b2, X) != twist(ch, b1 + b2, X):
            fails += 1
    return n, fails


def _suite_invariances(rng, n=200):
    checks = fails = 0
    for _ in range(n):
        X = rand_threefold(rng)
        ch = rand_lattice_char(rng)
        b = rand_rat(rng)
        m = rng.randint(-6, 6)
        pt = rand_point(rng)
        cases = [
            disc_bar(twist(ch, b, X)) == disc_bar(ch),
            nabla(twist(ch, b, X), X) == nabla(ch, X),
            disc_tilde(tensor_line(ch, 0, m, X), b, X) == disc_tilde(ch, b, X),
            nu(tensor_line(ch, 0, m, X), pt) == nu(ch, pt),
        ]
        checks += len(cases)
        fails += sum(1 for ok in cases if not ok)
    return checks, fails


def _suite_euler(_rng):
    checks = fails = 0
    for g in range(6):
        for d in range(-3, 6):
            X = RuledThreefold(g, d)
            k, c2H, c2F = canonical_and_c2(X)
            c1c2 = -k[0] * c2H - k[1] * c2F
            cases = [
                euler_char(X, CHAR_O) == 1 - g,
                c1c2 == 24 * (1 - g),
            ]
            checks += len(cases)
            fails += sum(1 for ok in cases if not ok)
    return checks, fails


def _suite_equivalence(rng, n=200):
    checks = fails = 0
    while checks < n:
        X = rand_threefold(rng)
        ch = rand_lattice_char(rng)
        pt = rand_point(rng)
        c_b = ch.cHF - pt.beta * ch.r
        if c_b == 0:
            continue
        checks += 1
        if bg_main_defect(ch, pt, X) != c_b * bg_star_defect(ch, pt, X):
            fails += 1
    return checks, fails


def _suite_nested_walls(rng, n=100):
    checks = fails = 0
    while checks < n:
        u = rand_reduced(rng)
        if u.c * u.c - 2 * u.r * u.dd < 0:
            continue
        w1, w2 = rand_reduced(rng), rand_reduced(rng)
        a = numerical_wall(u, w1)
        b = numerical_wall(u, w2)
        if a is None or b is None or a is EVERYWHERE or b is EVERYWHERE:
            continue
        checks += 1
        if a != b and walls_meet(a, b):
            fails += 1
    return checks, fails


SUITES = [
    ("twist group law", _suite_twist_group_law),
    ("discriminant and slope invariances", _suite_invariances),
    ("Euler characteristic ground truth", _suite_euler),
    ("main/star defect equivalence", _suite_equivalence),
    ("nested walls", _suite_nested_walls),
]


def run_selftest(seed: int = 0) -> list[tuple[str, int, int]]:
    rng = random.Random(seed)
    return [(name, *suite(rng)) for name, suite in SUITES]
