"""Self-checks of the benchmark itself (stdlib unittest, about two minutes).

    python3 bench/check_bench.py

- The recorded answers of the small `scan` queries agree with a brute-force
  scan built from the slope equality. Its c window comes from
  rho^2 <= disc(u)^2 / 4 alone, never from tiltwall's candidate_box.
- The exact counts of a traced run repeat across runs with the same seed,
  and the traced scan reproduces the box size, (A)-(C) passes and walls of
  (3,1,-7) at rank bound 8.
- The recorded pools match what the generators produce now.
- In a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

import algebra_workload
import cli_workload
import harness
import scan_workload

RUN = [sys.executable, str(harness.BENCH_DIR / "run.py")]

# Brute force covers fixed and pool queries up to this rank bound and box size.
BRUTE_MAX_BOUND = 4
BRUTE_MAX_CANDIDATES = 400


def slope_equality(u, w):
    """P(a, b) = (chi/2)(a + b^2) - psi b + omega, read off the cleared slope
    equality nu_u(a, b) = nu_w(a, b) at three points; returns (chi, psi, omega)."""

    def p(a, b):
        def twisted(x):
            r, c, d = x
            return c - b * r, d - b * c + b * b * r / 2

        cu, du = twisted(u)
        cw, dw = twisted(w)
        return (dw - a * w[0] / 2) * cu - (du - a * u[0] / 2) * cw

    omega = p(0, 0)
    half_chi = p(1, 0) - omega
    psi = -(p(0, 1) - half_chi - omega)
    return 2 * half_chi, psi, omega


def ceil_sqrt(q: Fraction) -> int:
    n = math.isqrt(q.numerator // q.denominator)
    while n * n < q:
        n += 1
    return n


def brute_force_lines(u, rank_bound: int, region) -> list[str]:
    """Every admissible class in a window from rho^2 <= disc(u)^2/4, as wall lines."""
    r_u, c_u, d_u = u
    delta = c_u * c_u - 2 * r_u * d_u
    if r_u != 0:
        # A wall of u with center x has radius^2 = (x - c_u/r_u)^2 - delta/r_u^2.
        dev = ceil_sqrt(delta * delta / 4 + delta / (r_u * r_u))
        center_max = abs(c_u / r_u) + dev
        cbar_u_max = abs(r_u) * dev
    else:
        center_max, cbar_u_max = abs(d_u / c_u), c_u
    # (E) at the apex x: 0 <= c_w - x r_w <= c_u - x r_u.
    window = math.ceil(center_max * rank_bound + cbar_u_max) + 1
    best: dict[tuple, tuple] = {}
    for r in range(-rank_bound, rank_bound + 1):
        for c in range(-window, window + 1):
            # (A)-(C) give disc(w) in [0, delta]; with r = 0 bound d by disc(u - w).
            if r != 0:
                lo, hi = sorted((Fraction(c * c) - delta, Fraction(c * c)))
                lo, hi = sorted((lo / (2 * r), hi / (2 * r)))
            elif r_u != 0:
                base = 2 * r_u * d_u - (c_u - c) ** 2
                lo, hi = sorted((base / (2 * r_u), (base + delta - c * c) / (2 * r_u)))
            else:
                continue
            for n in range(math.floor(2 * lo) - 1, math.ceil(2 * hi) + 2):
                w = (Fraction(r), Fraction(c), Fraction(n, 2))
                if w == (0, 0, 0):
                    continue
                v = tuple(a - b for a, b in zip(u, w))
                dw = w[1] ** 2 - 2 * w[0] * w[2]
                dv = v[1] ** 2 - 2 * v[0] * v[2]
                if dw < 0 or dv < 0 or dw + dv > delta:
                    continue
                chi, psi, omega = slope_equality(u, w)
                if chi != 0:
                    x = psi / chi
                    rad2 = x * x - 2 * omega / chi
                    if rad2 <= 0:
                        continue
                    shape = ("S", x, rad2)
                elif psi != 0:
                    x = omega / psi
                    shape = ("V", x)
                else:
                    continue
                if not 0 <= w[1] - x * w[0] <= c_u - x * r_u:
                    continue
                if region is not None:
                    a2, beta = region
                    if shape[0] == "V" and beta != x:
                        continue
                    if shape[0] == "S" and (beta - x) ** 2 + a2 > shape[2]:
                        continue
                if shape not in best or w < best[shape]:
                    best[shape] = w
    return [scan_workload.wall_line(w, shape) for shape, w in best.items()]


@functools.lru_cache(maxsize=None)
def traced_run(workload: str, seed: int, attempt: int) -> tuple[dict, dict]:
    del attempt  # part of the cache key only: each attempt is a fresh process
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=harness.ROOT, timeout=300,
    )
    if done.returncode != 0:
        raise AssertionError(f"traced {workload} run failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("info "))


class ScanAnswers(unittest.TestCase):
    def test_small_queries_match_brute_force(self):
        expected = harness.load_expected("scan")
        answers = {e["key"]: e for e in expected["queries"]}
        checked = 0
        for q in scan_workload.fixed_queries() + expected["pool"]:
            key = scan_workload.query_key(q)
            if q["bound"] > BRUTE_MAX_BOUND or answers[key]["candidates"] > BRUTE_MAX_CANDIDATES:
                continue
            u = tuple(scan_workload.parse_rats(q["u"]))
            region = tuple(scan_workload.parse_rats(q["region"])) if q["region"] else None
            lines = brute_force_lines(u, q["bound"], region)
            with self.subTest(query=key):
                self.assertEqual(scan_workload.digest_lines(lines), answers[key]["digest"])
                self.assertEqual(len(lines), answers[key]["walls"])
            checked += 1
        self.assertGreaterEqual(checked, 40)


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_for_the_same_seed(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        for workload in ("scan", "algebra", "cli"):
            first, info = traced_run(workload, 11, 0)
            second, _ = traced_run(workload, 11, 1)
            with self.subTest(workload=workload):
                self.assertTrue(first["correct"] and second["correct"])
                self.assertTrue(info["counts_repeat"])
                self.assertEqual(info["absent"], [])
                self.assertEqual(
                    {k: first["metrics"][k]["value"] for k in counts},
                    {k: second["metrics"][k]["value"] for k in counts},
                )

    def test_fixed_scan_counts(self):
        _, info = traced_run("scan", 11, 0)
        self.assertEqual(
            info["fixed_queries"]["3,1,-7@8"],
            {"walls.candidates": 47472, "walls.numerical_wall.calls": 920,
             "walls.walls_found": 57},
        )
        self.assertEqual(info["fixed_queries"]["1,0,-10@4"]["walls.numerical_wall.calls"], 357)


class RecordedPools(unittest.TestCase):
    def test_algebra_specs(self):
        recorded = harness.load_expected("algebra")["queries"]
        self.assertEqual(len(recorded), algebra_workload.POOL_SIZE)
        for j, entry in enumerate(recorded):
            spec = algebra_workload.query_spec(j)
            self.assertEqual(entry["spec"], algebra_workload.spec_fingerprint(spec))

    def test_algebra_strata(self):
        specs = [algebra_workload.query_spec(j) for j in range(algebra_workload.POOL_SIZE)]
        strata = algebra_workload.strata(specs)
        self.assertEqual(len(strata), algebra_workload.STRATA)
        self.assertEqual(sorted(j for s in strata for j in s), list(range(len(specs))))

    def test_cli_commands(self):
        recorded = {e["key"] for e in harness.load_expected("cli")["commands"]}
        self.assertEqual(recorded, {cli_workload.command_key(c) for c in cli_workload.pool()})

    def test_scan_strata(self):
        pool = harness.load_expected("scan")["pool"]
        strata = scan_workload.strata(pool)
        self.assertEqual([len(s) for s in strata], [scan_workload.PER_STRATUM] * scan_workload.STRATA)
        self.assertTrue(any(q["u"].startswith("0,") for q in pool))
        self.assertTrue(any(not q["u"].startswith("0,") for q in pool))


class WithoutProgram(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = harness.WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(harness.BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180,
            )
        finally:
            harness.clean_work_dir()
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
