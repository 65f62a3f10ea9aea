"""Built-in invariant suite behind the `selftest` subcommand.

Deterministic for a fixed seed. Each suite yields one verdict per check, and
`run_selftest` counts them into (name, checks, failures).
The rand_* generators are the seeded draws the test suite shares.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from .chern import ReducedClass, TiltPoint, disc_bar_reduced, tensor_line, twist
from .geometry import CHAR_O, CharVector, RuledThreefold, canonical_and_c2, euler_char
from .inequalities import bg_main_defect, bg_star_defect, disc_bar, disc_tilde, nabla
from .stability import nu
from .walls import Wall, numerical_wall, walls_meet


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


def _suite_twist_group_law(rng):
    for _ in range(200):
        X = rand_threefold(rng)
        ch = rand_lattice_char(rng)
        b1, b2 = rand_rat(rng), rand_rat(rng)
        yield twist(twist(ch, b1, X), b2, X) == twist(ch, b1 + b2, X)


def _suite_invariances(rng):
    for _ in range(200):
        X = rand_threefold(rng)
        ch = rand_lattice_char(rng)
        b = rand_rat(rng)
        m = rng.randint(-6, 6)
        pt = rand_point(rng)
        yield disc_bar(twist(ch, b, X)) == disc_bar(ch)
        yield nabla(twist(ch, b, X), X) == nabla(ch, X)
        yield disc_tilde(tensor_line(ch, 0, m, X), b, X) == disc_tilde(ch, b, X)
        yield nu(tensor_line(ch, 0, m, X), pt) == nu(ch, pt)


def _suite_euler(_rng):
    for g in range(6):
        for d in range(-3, 6):
            X = RuledThreefold(g, d)
            k, c2H, c2F = canonical_and_c2(X)
            yield euler_char(X, CHAR_O) == 1 - g
            yield -k[0] * c2H - k[1] * c2F == 24 * (1 - g)


def _suite_equivalence(rng):
    def draws():  # a draw with c^beta = 0 is no check
        while True:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            c_b = ch.cHF - pt.beta * ch.r
            if c_b != 0:
                yield bg_main_defect(ch, pt, X) == c_b * bg_star_defect(ch, pt, X)

    return islice(draws(), 200)


def _suite_nested_walls(rng):
    def draws():  # a class with disc(u) < 0, or a pair without two walls, is no check
        while True:
            u = rand_reduced(rng)
            if disc_bar_reduced(u) < 0:
                continue
            a = numerical_wall(u, rand_reduced(rng))
            b = numerical_wall(u, rand_reduced(rng))
            if isinstance(a, Wall) and isinstance(b, Wall):
                yield a == b or not walls_meet(a, b)

    return islice(draws(), 100)


SUITES = [
    ("twist group law", _suite_twist_group_law),
    ("discriminant and slope invariances", _suite_invariances),
    ("Euler characteristic ground truth", _suite_euler),
    ("main/star defect equivalence", _suite_equivalence),
    ("nested walls", _suite_nested_walls),
]


def run_selftest(seed: int = 0) -> list[tuple[str, int, int]]:
    rng = random.Random(seed)
    verdicts = [(name, list(suite(rng))) for name, suite in SUITES]  # one rng, suite by suite
    return [(name, len(v), v.count(False)) for name, v in verdicts]
