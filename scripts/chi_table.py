#!/usr/bin/env python3
"""Exact Euler characteristic tables for line bundles O(aH + bF).

    python scripts/chi_table.py --genus 0 --degree 3 --range 4
"""

import argparse

from tiltwall import RuledThreefold, euler_char, line_bundle_char
from tiltwall.exactnum import parse_int


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--genus", type=parse_int, default=0)
    ap.add_argument("--degree", type=parse_int, default=3)
    ap.add_argument("--range", type=parse_int, default=4, dest="span")
    args = ap.parse_args()

    X = RuledThreefold(args.genus, args.degree)
    span = args.span
    print(f"chi(O(aH + bF)) on genus {X.genus}, degree {X.degree}")
    header = "a\\b " + " ".join(f"{b:>6d}" for b in range(-span, span + 1))
    print(header)
    for a in range(-span, span + 1):
        row = [f"{a:>3d} "]
        for b in range(-span, span + 1):
            row.append(f"{str(euler_char(X, line_bundle_char(a, b, X))):>6s}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
