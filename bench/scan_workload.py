"""`scan`: in-process destabilizer enumerations, one query at a time.

The seed picks one random query from each stratum of the recorded pool, and
every round runs those picks and the twelve fixed queries (ROADMAP's classes
at rank bounds 2, 4 and 8) in a freshly shuffled order.
The pool holds lattice classes with disc(u) >= 0, of rank 0 and nonzero rank,
whose candidate box has at most MAX_CANDIDATES classes; a quarter of them
carry a region point. Strata are cut by box size, so every round has the same
spread of work and the fixed queries alone make up the slowest ops: the tail
then follows the inner loop and the median the per-query overhead. Every
round repeats the same queries, so run.py can take each query's median.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import canon, sha

FIXED_CLASSES = ("1,0,-1", "1,0,-10", "3,1,-7", "0,3,1/2")
FIXED_BOUNDS = (2, 4, 8)
STRATA = 80
PER_STRATUM = 5
MAX_CANDIDATES = 1500
REGION_SHARE = 4  # one pool query in this many carries a region point
POOL_SEED = 1017


def fixed_queries() -> list[dict]:
    return [
        {"u": u, "bound": b, "region": None}
        for u in FIXED_CLASSES
        for b in FIXED_BOUNDS
    ]


def query_key(q: dict) -> str:
    return f"{q['u']}@{q['bound']}" + (f"|{q['region']}" if q["region"] else "")


def wall_line(w: tuple, shape: tuple) -> str:
    """One wall with its witness: shape is ("S", center, radius^2) or ("V", beta)."""
    return "|".join([canon(w), *(str(x) for x in shape)])


def digest_lines(lines) -> str:
    return sha("\n".join(sorted(lines)))


def digest(result) -> str:
    """Order-free digest of the wall set with its witness classes."""
    return digest_lines(
        wall_line(
            tuple(w.as_tuple()),
            ("S", wall.center, wall.radius_sq) if hasattr(wall, "radius_sq") else ("V", wall.beta),
        )
        for w, wall in result
    )


def parse_rats(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def random_pool(box_size) -> list[dict]:
    """Seeded random queries, filtered by box size; box_size(u_text, bound) -> int."""
    rng = random.Random(POOL_SEED)
    pool: list[dict] = []
    seen = set()
    while len(pool) < STRATA * PER_STRATUM:
        r, c, d2 = rng.randint(-3, 3), rng.randint(-5, 5), rng.randint(-10, 10)
        bound = rng.choice(FIXED_BOUNDS)
        with_region = rng.randrange(REGION_SHARE) == 0
        a2 = Fraction(rng.randint(1, 8), 8)
        shift = Fraction(rng.randint(-8, 8), 4)
        if c * c - r * d2 < 0 or (r == 0 and c <= 0):
            continue
        d = Fraction(d2, 2)
        u = f"{r},{c},{d}"
        apex = Fraction(c, r) if r else d / c
        region = f"{a2},{apex + shift}" if with_region else None
        q = {"u": u, "bound": bound, "region": region}
        if query_key(q) in seen:
            continue
        n = box_size(u, bound)
        if not 0 < n <= MAX_CANDIDATES:
            continue
        q["candidates"] = n
        seen.add(query_key(q))
        pool.append(q)
    return pool


def strata(pool: list[dict]) -> list[list[dict]]:
    ordered = sorted(pool, key=lambda q: (q["candidates"], query_key(q)))
    return [ordered[i * PER_STRATUM:(i + 1) * PER_STRATUM] for i in range(STRATA)]


def prepare(tw, q: dict) -> dict:
    """The query with its key and the tiltwall arguments (u, rank_bound, region)."""
    u = tw.chern.ReducedClass(*parse_rats(q["u"]))
    region = tw.chern.TiltPoint(*parse_rats(q["region"])) if q["region"] else None
    return dict(q, key=query_key(q), args=(u, q["bound"], region))


class ScanWorkload:
    name = "scan"
    children = False  # peak RSS is this process's own
    tail_percentile = 90.0  # fixed, so a faster program is read at the same rank

    def __init__(self, tw, expected: dict, seed: int):
        self.tw = tw
        self.seed = seed
        self.answers = {e["key"]: e for e in expected["queries"]}
        self.fixed = [prepare(tw, q) for q in fixed_queries()]
        self.strata = [[prepare(tw, q) for q in s] for s in strata(expected["pool"])]
        rng = random.Random(f"scan:{seed}")
        self.picks = [rng.choice(s) for s in self.strata]

    def round(self, i: int) -> list:
        rng = random.Random(f"scan:{self.seed}:{i}")
        queries = self.fixed + self.picks
        rng.shuffle(queries)
        return [self._op(q) for q in queries]

    def warm_up_ops(self) -> list:
        return [self._op(q) for q in self.fixed if q["bound"] == 2 and q["u"] != "3,1,-7"]

    def _op(self, q: dict):
        walls = self.tw.walls
        args = q["args"]
        expected = self.answers.get(q["key"], {}).get("digest")

        def call():
            return walls.enumerate_destabilizers(*args)

        def check(result) -> bool:
            return expected is not None and digest(result) == expected

        return q["key"], call, check

    def details(self) -> dict:
        return {
            "round_ops": len(self.fixed) + STRATA,
            "region_share": sum(1 for q in self.picks if q["region"]) / len(self.picks),
        }
