#!/usr/bin/env python3
"""Survey bounded wall enumerations for a few sample classes.

For each class, print the wall list at increasing rank bounds and how the
largest semicircle stabilizes. Optionally emit one SVG per class.

    python scripts/wall_survey.py [--svg-dir OUT]
"""

import argparse
import pathlib
from fractions import Fraction

from tiltwall import ReducedClass, SemicircleWall, enumerate_destabilizers
from tiltwall.cli import emit_svg
from tiltwall.exactnum import format_list, parse_int, parse_list

SAMPLES = [
    ReducedClass(1, 0, -1),
    ReducedClass(1, 0, -2),
    ReducedClass(2, 1, 0),
    ReducedClass(2, -1, -1),
    ReducedClass(0, 1, Fraction(1, 2)),
    ReducedClass(0, 3, 1),
    ReducedClass(3, 1, -1),
]


def describe(wall) -> str:
    if isinstance(wall, SemicircleWall):
        return f"semicircle(center={wall.center}, radius_sq={wall.radius_sq})"
    return f"vertical(beta={wall.beta})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank-bounds", default="1,2,3,4")
    ap.add_argument("--svg-dir", default=None)
    args = ap.parse_args()
    bounds = parse_list(args.rank_bounds, "rank bound list", None, parse_int)

    for u in SAMPLES:
        label = format_list(u.as_tuple())
        print(f"== class ({label})")
        for rank_bound in bounds:
            found = enumerate_destabilizers(u, rank_bound)
            semis = [w for _, w in found if isinstance(w, SemicircleWall)]
            head = describe(semis[0]) if semis else "-"
            print(f"  rank<= {rank_bound}: {len(found):3d} walls, largest {head}")
        # `found` is the enumeration at the last rank bound
        if args.svg_dir:
            out = pathlib.Path(args.svg_dir)
            out.mkdir(parents=True, exist_ok=True)
            emit_svg([w for _, w in found], None, str(out / f"walls_{label.replace(',', '_').replace('/', 'o')}.svg"))
        for w, wall in found:
            print(f"    {describe(wall)}  from ({format_list(w.as_tuple())})")
        print()


if __name__ == "__main__":
    main()
