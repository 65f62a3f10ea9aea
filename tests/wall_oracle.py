"""Independent wall oracles shared by the unit and acceptance suites.

Everything here recomputes from the defining slope equality with its own
arithmetic, no calls into tiltwall.walls internals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tiltwall import ReducedClass, SemicircleWall, TiltPoint, VerticalWall


def oracle_wall(u: ReducedClass, w: ReducedClass):
    """Wall from the cleared-denominator slope equality."""
    chi = u.r * w.c - w.r * u.c
    psi = u.r * w.dd - w.r * u.dd
    omega = u.c * w.dd - w.c * u.dd
    if chi == psi == omega == 0:
        return "everywhere"
    if chi != 0:
        c = psi / chi
        r2 = c * c - 2 * omega / chi
        return ("semicircle", c, r2) if r2 > 0 else None
    return ("vertical", omega / psi) if psi != 0 else None


def _oracle_d_values(u: ReducedClass, r: int, c: int, delta: Fraction):
    """Half-integer d range forced by the two-sided discriminant constraints,
    derived from the raw inequalities with one half-integer of slack."""
    if r != 0:
        # c^2 - 2 r d in [0, delta]
        lo, hi = sorted((Fraction(c * c - delta, 2 * r), Fraction(c * c, 2 * r)))
    elif u.r != 0:
        # (c_u - c)^2 - 2 r_u (d_u - d) in [0, delta - c^2]
        if c * c > delta:
            return []
        base = 2 * u.r * u.dd - (u.c - c) ** 2
        lo, hi = sorted((base / (2 * u.r), (base + delta - c * c) / (2 * u.r)))
    else:
        # r = r_u = 0 admits no wall: chi and psi both vanish identically
        return []
    lo, hi = lo - Fraction(1, 2), hi + Fraction(1, 2)
    n = lo.numerator * 2 // lo.denominator
    out = []
    while Fraction(n, 2) <= hi:
        if Fraction(n, 2) >= lo:
            out.append(Fraction(n, 2))
        n += 1
    return out


def oracle_enumerate(u: ReducedClass, rank_bound: int, c_window: int):
    """Brute-force scan with raw definitional checks; complete as long as
    c_window covers every admissible |c|."""
    delta = u.c * u.c - 2 * u.r * u.dd
    found: dict = {}
    for r in range(-rank_bound, rank_bound + 1):
        for c in range(-c_window, c_window + 1):
            for dd in _oracle_d_values(u, r, c, delta):
                w = ReducedClass(r, c, dd)
                if w.r == 0 and w.c == 0 and w.dd == 0:
                    continue
                dw = w.c * w.c - 2 * w.r * w.dd
                v = ReducedClass(u.r - w.r, u.c - w.c, u.dd - w.dd)
                dv = v.c * v.c - 2 * v.r * v.dd
                if dw < 0 or dv < 0 or dw + dv > delta:
                    continue
                wall = oracle_wall(u, w)
                if wall is None or wall == "everywhere":
                    continue
                apex = wall[1]
                cw_twisted = w.c - apex * w.r
                cu_twisted = u.c - apex * u.r
                if not (0 <= cw_twisted <= cu_twisted):
                    continue
                if wall not in found or w.as_tuple() < found[wall].as_tuple():
                    found[wall] = w
    return {(k, tuple(wv.as_tuple())) for k, wv in found.items()}


def oracle_in_region(key, pt: TiltPoint) -> bool:
    """Whether an oracle wall key passes through or above the point pt."""
    if key[0] == "vertical":
        return pt.beta == key[1]
    _, center, radius_sq = key
    return (pt.beta - center) ** 2 + pt.alpha2 <= radius_sq


def _ceil_sqrt(q: Fraction) -> int:
    """Least integer n >= 0 with n^2 >= q."""
    m = max(0, math.ceil(q))
    n = math.isqrt(m)
    return n if n * n >= m else n + 1


def covering_c_window(u: ReducedClass, rank_bound: int, slack: int = 3) -> int:
    """A window |c_w| <= N holding every admissible destabilizer, from the
    apex bound rho^2 <= disc(u)^2 / 4 alone.

    At the apex x of the wall, (E) reads 0 <= c_w - x r_w <= c_u - x r_u, so
    |c_w| <= |x| rank_bound + (c_u - x r_u). For r_u != 0 a wall centered at x
    has rho^2 = (x - c_u/r_u)^2 - disc(u)/r_u^2, which bounds |x - c_u/r_u|
    (a vertical wall sits at x = c_u/r_u); for r_u = 0 the center is d_u/c_u
    and the window needs c_u > 0.
    """
    delta = u.c * u.c - 2 * u.r * u.dd
    if u.r != 0:
        dev = _ceil_sqrt(delta * delta / 4 + delta / (u.r * u.r))
        center_max = abs(u.c / u.r) + dev
        cbar_u_max = abs(u.r) * dev
    elif u.c > 0:
        center_max, cbar_u_max = abs(u.dd / u.c), u.c
    else:
        return 0
    return math.ceil(center_max * rank_bound + cbar_u_max) + slack


def result_to_set(pairs):
    out = set()
    for w, wall in pairs:
        if isinstance(wall, VerticalWall):
            key = ("vertical", wall.beta)
        else:
            key = ("semicircle", wall.center, wall.radius_sq)
        out.add((key, tuple(w.as_tuple())))
    return out


def sample_points(
    wall: SemicircleWall, avoid: list[ReducedClass] = (), n: int = 5
) -> list[TiltPoint]:
    """n rational points on the semicircle, avoiding the betas where a class
    in `avoid` has vanishing twisted denominator."""
    c = wall.center
    rho = Fraction(
        math.isqrt(wall.radius_sq.numerator),
        math.isqrt(wall.radius_sq.denominator) + 1,
    )
    if rho <= 0:
        rho = wall.radius_sq / (wall.radius_sq + 1)
    bad = {cls.c / cls.r for cls in avoid if cls.r != 0}
    pts = []
    denom = 2 * n + 3
    for k in range(-(denom // 2), denom // 2 + 1):
        beta = c + rho * Fraction(k, denom)
        if beta in bad:
            continue
        alpha2 = wall.radius_sq - (beta - c) ** 2
        assert alpha2 > 0
        pts.append(TiltPoint(alpha2, beta))
        if len(pts) == n:
            break
    assert len(pts) == n
    return pts
