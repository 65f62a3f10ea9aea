"""`algebra`: in-process point queries over the lattice, slope, inequality and
support layers, with no destabilizer scan.

A query is a seeded threefold, central-charge parameters and a batch of 40
to 300 lattice characters. Every character gets the full report (twist, tensor,
dual, pushforward, euler_char, euler_char_pair, prop42_chi_bounds, the five
slopes, heart_sign_constraints, every defect, beta_bar with f_ch2_twisted),
then the query runs one verify_support on the CLI's default 9x8 grid. Query j
of the pool is a pure function of j, so only its digest is recorded, with a
fingerprint of its inputs that check_bench.py compares.

The pool is cut into strata by batch size. The seed picks one query from
each stratum, and every round runs those picks in a freshly shuffled order,
so every round has the same spread of work whatever the seed and however far
a run gets, and run.py can take each query's median.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import canon, sha

POOL_SIZE = 120
STRATA = 10  # a round runs one query from each
# Batch sizes vary, so p50 and the tail percentile fall on different sizes.
CHARS_PER_QUERY = (40, 300)
# The `support` subcommand's default grids: 0..2 and 1/4..2 in steps of 1/4.
LAMBDA_GRID = [Fraction(i, 4) for i in range(0, 9)]
MU_GRID = [Fraction(i, 4) for i in range(1, 9)]


def query_spec(j: int) -> dict:
    """Inputs of pool query j, as exact rationals and ints."""
    rng = random.Random(f"algebra:{j}")
    spec = {
        "genus": rng.randint(0, 5),
        "degree": rng.randint(-3, 5),
        "alpha2": Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        "beta": Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
        "s": Fraction(rng.randint(1, 6), rng.randint(1, 3)),
        "t": Fraction(rng.randint(1, 6), rng.randint(1, 3)),
        "chars": [],
    }
    for _ in range(rng.randint(*CHARS_PER_QUERY)):
        ch = (
            rng.randint(-5, 5),
            rng.randint(-5, 5),
            rng.randint(-8, 8),
            Fraction(rng.randint(-10, 10), 2),
            Fraction(rng.randint(-10, 10), 2),
            Fraction(rng.randint(-18, 18), 6),
        )
        line = (rng.randint(-3, 3), rng.randint(-3, 3))
        k = rng.randint(1, 3)
        spec["chars"].append((ch, line, k))
    return spec


def spec_fingerprint(spec: dict) -> str:
    return sha(canon([spec[k] for k in sorted(spec)]))


def strata(specs: list[dict]) -> list[list[int]]:
    """Pool indices in STRATA equal groups, ordered by batch size."""
    ordered = sorted(range(len(specs)), key=lambda j: (len(specs[j]["chars"]), j))
    size = len(ordered) // STRATA
    return [ordered[i * size:(i + 1) * size] for i in range(STRATA)]


def evaluate(tw, q) -> list:
    """All exact values of one prepared query; the timed op."""
    X, p, pt, chars = q
    chern, geo, stab, ineq = tw.chern, tw.geometry, tw.stability, tw.inequalities
    beta, t = p.beta, p.t
    out = []
    for ch, (a, b), k in chars:
        slope = stab.nu(ch, pt)
        try:
            bb = chern.beta_bar(ch)
            bb_check = chern.f_ch2_twisted(ch, bb)
        except ValueError as exc:
            bb = bb_check = type(exc).__name__
        out.append((
            chern.twist(ch, beta, X),
            chern.tensor_line(ch, a, b, X),
            geo.dual_char(ch),
            geo.fiber_pushforward_char(k, ch),
            geo.euler_char(X, ch),
            geo.euler_char_pair(X, geo.line_bundle_char(a, b, X), ch),
            ineq.prop42_chi_bounds(ch, X),
            stab.mu_HF(ch),
            stab.mu_C(ch),
            slope,
            stab.nu_mixed(ch, pt, t, X),
            stab.nu_sigma(ch, p, X),
            stab.heart_sign_constraints(ch, pt, X),
            ineq.disc_classical(ch, X),
            ineq.disc_bar(ch),
            ineq.disc_tilde(ch, beta, X),
            ineq.nabla(ch, X),
            ineq.corollary_defect(ch, X),
            ineq.bg_main_defect(ch, pt, X),
            ineq.bg_nu_zero_defect(ch, pt, X),
            None if slope.is_infinite else ineq.bg_star_defect(ch, pt, X),
            ineq.bg_weak_defect(ch, pt, X),
            ineq.liu_abcd(ch, pt, X),
            ineq.fiber_bogomolov_defect(k, ch, X),
            bb,
            bb_check,
        ))
    out.append(tw.support.verify_support(p, X, LAMBDA_GRID, MU_GRID))
    return out


def digest(tw, values: list) -> str:
    *report, witness = values
    if isinstance(witness, tw.support.SupportWitness):
        tail = canon((witness.lam, witness.mu, witness.form.upper_entries()))
    else:
        tail = "no witness"  # None, or a later version's reason for having none
    return sha("\n".join(canon(row) for row in report) + "\n" + tail)


class AlgebraWorkload:
    name = "algebra"
    children = False
    tail_percentile = 75.0

    def __init__(self, tw, expected: dict, seed: int):
        self.tw = tw
        self.seed = seed
        self.answers = expected["queries"]
        specs = [query_spec(j) for j in range(POOL_SIZE)]
        self.queries = [self._prepare(spec) for spec in specs]
        self.strata = strata(specs)
        rng = random.Random(f"algebra:{seed}")
        self.picks = [rng.choice(s) for s in self.strata]

    def _prepare(self, spec: dict) -> tuple:
        tw = self.tw
        X = tw.geometry.RuledThreefold(spec["genus"], spec["degree"])
        p = tw.stability.ChargeParams(spec["alpha2"], spec["beta"], spec["s"], spec["t"])
        chars = [(tw.geometry.CharVector(*ch), line, k) for ch, line, k in spec["chars"]]
        return X, p, p.tilt_point(), chars

    def round(self, i: int) -> list:
        rng = random.Random(f"algebra:{self.seed}:{i}")
        picks = list(self.picks)
        rng.shuffle(picks)
        return [self._op(j) for j in picks]

    def warm_up_ops(self) -> list:
        return [self._op(self.strata[0][0])]

    def _op(self, j: int):
        tw = self.tw
        query = self.queries[j]
        expected = self.answers[j]["digest"] if j < len(self.answers) else None

        def call():
            return evaluate(tw, query)

        def check(values) -> bool:
            return digest(tw, values) == expected

        return f"query {j}", call, check

    def details(self) -> dict:
        return {"round_ops": STRATA, "chars_per_query": CHARS_PER_QUERY}
