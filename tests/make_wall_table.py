"""Write `wall_table.txt`: the walls of every small lattice class, computed by
the brute-force oracle of `wall_oracle.py` alone, never by tiltwall's
`candidate_box`.

The family is every lattice class u = (r, c, D/2) with |r| <= 3, |c| <= 6 and
0 < disc(u) = c^2 - r D <= 20 (|D| <= 12 when r = 0): 1,152 classes. For each
class and each rank bound in `BOUNDS` the table has one line

    r,c,d bound walls digest

where `walls` counts the walls and `digest` is the first 16 hex digits of the
SHA-256 of their `wall_lines`: one line per wall, in the order
`enumerate_destabilizers` promises (vertical walls by beta, then semicircles
by descending radius^2, then center), each with its least witness. The oracle
scans |c_w| <= max(40, covering_c_window(u, bound)): the covering window rests
on rho^2 <= disc(u)^2 / 4, the fixed 40 on nothing.

Run from the repository root (it takes several minutes):

    PYTHONPATH=src python3 tests/make_wall_table.py
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from tiltwall import ReducedClass, VerticalWall
from wall_oracle import covering_c_window, oracle_enumerate

TABLE = Path(__file__).with_name("wall_table.txt")
BOUNDS = (1, 2, 3)


def table_classes() -> list[ReducedClass]:
    """The 1,152 classes of the family, by ascending (r, c, D)."""
    return [
        ReducedClass(r, c, Fraction(D, 2))
        for r in range(-3, 4)
        for c in range(-6, 7)
        for D in (range(-12, 13) if r == 0 else range(-36, 37))  # c^2 - 20 <= r D < c^2 <= 36
        if 0 < c * c - r * D <= 20
    ]


def wall_lines(walls) -> list[str]:
    """One 'kind coordinates witness' line per (oracle key, witness tuple)."""
    return [" ".join([*map(str, key), ",".join(map(str, w))]) for key, w in walls]


def entry(u: ReducedClass, bound: int, lines: list[str]) -> str:
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    return f"{','.join(map(str, u.as_tuple()))} {bound} {len(lines)} {digest}"


def oracle_entry(u: ReducedClass, bound: int) -> str:
    found = oracle_enumerate(u, bound, max(40, covering_c_window(u, bound)))
    order = lambda kw: (0, kw[0][1]) if kw[0][0] == "vertical" else (1, -kw[0][2], kw[0][1])
    return entry(u, bound, wall_lines(sorted(found, key=order)))


def scan_entry(u: ReducedClass, bound: int, found) -> str:
    """The entry of a scan result, a list of (witness, wall), in its own order."""
    walls = [
        (("vertical", wall.beta) if isinstance(wall, VerticalWall)
         else ("semicircle", wall.center, wall.radius_sq), w.as_tuple())
        for w, wall in found
    ]
    return entry(u, bound, wall_lines(walls))


def main() -> None:
    lines = [oracle_entry(u, bound) for u in table_classes() for bound in BOUNDS]
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
