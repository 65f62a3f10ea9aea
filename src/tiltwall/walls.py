"""Wall-and-chamber geometry of the tilt slope in the (beta, alpha)-plane.

A numerical wall for a reduced class u against w is the locus where the two
tilt slopes agree. With

    chi = r_u c_w - r_w c_u,  psi = r_u d_w - r_w d_u,  omega = c_u d_w - c_w d_u

the locus is (chi/2)(alpha^2 + beta^2) - psi*beta + omega = 0: a semicircle
centered on the beta-axis when chi != 0, a vertical ray when chi = 0 != psi,
empty or the whole plane otherwise. All coordinates are exact; alpha is
carried as alpha^2.

Bounded destabilizer search
---------------------------

`enumerate_destabilizers` scans a finite box that provably contains every
class w admissible for u under the constraints

    (A) disc(w) >= 0,  (B) disc(u - w) >= 0,  (C) disc(w) + disc(u - w) <= disc(u),
    (D) the wall exists,  (E) 0 <= c^b(w) <= c^b(u) at the wall's apex b,

with disc the reduced discriminant c^2 - 2 r d. The box comes from two exact
facts. First, at the apex of a semicircular wall both twisted slopes vanish,
which forces d^apex = (rho^2/2) r for u, w and u - w, hence

    disc(w) = cbar_w^2 - rho^2 r_w^2   (cbar = c twisted at the apex)

(sympy proves both for u, w and u - w in `tests/test_symbolic.py`), and
the window (E) makes all three cbar values nonnegative with
cbar_w + cbar_{u-w} = cbar_u. Eliminating the cbar's shows rho^2 is a ratio
of integers with numerator at most disc(u)^2 and positive denominator at
least 4, so rho^2 <= disc(u)^2 / 4. That bounds the center (through
rho^2 = (center - c_u/r_u)^2 - disc(u)/r_u^2 when r_u != 0, or fixes
center = d_u/c_u when r_u = 0) and with it the untwisted c_w range per rank.
Second, given (r_w, c_w) the d_w range is pinned two-sidedly: by
disc(w) in [0, disc(u)] when r_w != 0, and by disc(u - w) in
[0, disc(u) - c_w^2] when r_w = 0 != r_u; the remaining case r_w = r_u = 0
admits no wall at all.

The scan itself runs in doubled coordinates D = 2 d, so that for lattice
classes disc = c^2 - r D, chi, P = 2 psi = r_u D_w - r_w D_u and
O = 2 omega = c_u D_w - c_w D_u are all ints. For fixed (r_w, c_w) the
constraints (A)-(C) are affine in D_w:

    (A) c_w^2 - r_w D_w >= 0,
    (B) (c_u - c_w)^2 - (r_u - r_w)(D_u - D_w) >= 0,
    (C) (r_u - 2 r_w) D_w + c_w^2 + (c_u - c_w)^2 - (r_u - r_w) D_u <= disc(u),

so with floor and ceiling division they clip the box's D range to one exact
integer interval, and only D inside it is visited. On that interval (D) and
(E) are tested without a Fraction: the semicircle exists iff
P^2 - 4 O chi > 0 (its squared radius is that over 4 chi^2), the vertical
wall iff chi = 0 != P, and the window 0 <= c_w - b r_w <= c_u - b r_u at the
apex b = P / (2 chi), or b = O / P on a vertical wall, is multiplied through
by the positive 2 |chi|, or |P|. Only a class passing (A)-(E) gets its
`ReducedClass`, its Fraction wall and the region filter. The box only needs
to be a superset of the admissible classes.

The window (E) checked at the apex is equivalent to the window on the whole
wall: c^b(w) is linear in b along the wall chord and (A) gives
cbar_w >= rho |r_w|, so nonnegativity at the apex forces it at both
endpoints; same for u - w via (B). `tests/test_symbolic.py` proves this too.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import ReducedClass, TiltPoint, disc_bar_reduced
from .exactnum import Record, ceil_sqrt


class VerticalWall(Record):
    """Ray parallel to the alpha-axis at a fixed beta."""

    FIELDS = ("beta",)


class SemicircleWall(Record):
    """Semicircle centered on the beta-axis, stored as (center, radius^2)."""

    FIELDS = ("center", "radius_sq")

    def _check(self):
        if self.radius_sq <= 0:
            raise ValueError("semicircle needs positive squared radius")


Wall = VerticalWall | SemicircleWall


class _EverywhereType:
    """Degenerate wall of proportional classes: slope equality holds everywhere."""

    def __repr__(self):
        return "EVERYWHERE"


EVERYWHERE = _EverywhereType()


def numerical_wall(u: ReducedClass, w: ReducedClass):
    """Wall of slope equality: a Wall, None when empty, EVERYWHERE when degenerate."""
    chi = u.r * w.c - w.r * u.c
    psi = u.r * w.dd - w.r * u.dd
    omega = u.c * w.dd - w.c * u.dd
    if chi == 0 and psi == 0 and omega == 0:
        return EVERYWHERE
    if chi != 0:
        center = psi / chi
        radius_sq = center * center - 2 * omega / chi
        if radius_sq > 0:
            return SemicircleWall(center, radius_sq)
        return None
    if psi != 0:
        return VerticalWall(omega / psi)
    return None


def walls_meet(w1: Wall, w2: Wall) -> bool:
    """Whether two walls share a point with alpha^2 > 0. Exact."""
    if w1 == w2:
        return True
    if isinstance(w1, VerticalWall) and isinstance(w2, VerticalWall):
        return w1.beta == w2.beta
    if isinstance(w1, VerticalWall) or isinstance(w2, VerticalWall):
        v, s = (w1, w2) if isinstance(w1, VerticalWall) else (w2, w1)
        db = v.beta - s.center
        return s.radius_sq - db * db > 0
    if w1.center == w2.center:
        return w1.radius_sq == w2.radius_sq
    beta = (w1.radius_sq - w2.radius_sq + w2.center**2 - w1.center**2) / (
        2 * (w2.center - w1.center)
    )
    db = beta - w1.center
    return w1.radius_sq - db * db > 0


def _passes_region(wall: Wall, region: TiltPoint) -> bool:
    """Wall passes through or above the region point."""
    if isinstance(wall, VerticalWall):
        return wall.beta == region.beta
    db = region.beta - wall.center
    return db * db + region.alpha2 <= wall.radius_sq


def candidate_box(u: ReducedClass, rank_bound: int):
    """Per-rank (c range, d interval) superset of all admissible destabilizers.

    Yields (r_w, c_lo, c_hi, d_interval_fn); d_interval_fn(c_w) returns the
    exact closed d_w interval or None.
    """
    delta = disc_bar_reduced(u)
    if delta < 0:
        return
    r_u, c_u, d_u = u.r, u.c, u.dd
    if r_u == 0 and c_u == 0:
        return

    if r_u != 0:
        mu = c_u / r_u
        rho2max = delta * delta / 4
        cdev = Fraction(ceil_sqrt(rho2max + delta / (r_u * r_u)))
        cbar_max = Fraction(ceil_sqrt(delta + rho2max * r_u * r_u))
        c_min_center, c_max_center = mu - cdev, mu + cdev
    else:
        if c_u < 0:
            return  # window 0 <= cbar_w <= c_u is empty
        fixed_center = d_u / c_u
        cbar_max = c_u

    for r_w in range(-rank_bound, rank_bound + 1):
        if r_u != 0:
            ends = (c_min_center * r_w, c_max_center * r_w)
            lo = min(ends)
            hi = max(ends) + cbar_max
        else:
            if r_w == 0:
                continue  # no wall exists against a rank-0 base class
            lo = fixed_center * r_w
            hi = fixed_center * r_w + cbar_max
        c_lo = lo.numerator // lo.denominator
        c_hi = -((-hi.numerator) // hi.denominator)

        def d_interval(c_w: int, r_w=r_w):
            cw2 = Fraction(c_w * c_w)
            if r_w != 0:
                a, b = (cw2 - delta) / (2 * r_w), cw2 / (2 * r_w)
                return (a, b) if a <= b else (b, a)
            if cw2 > delta:
                return None
            base = 2 * r_u * d_u - (c_u - c_w) ** 2
            a, b = base / (2 * r_u), (base + delta - cw2) / (2 * r_u)
            return (a, b) if a <= b else (b, a)

        yield r_w, c_lo, c_hi, d_interval


def candidate_bound(u: ReducedClass, rank_bound: int) -> int:
    """Upper bound on the classes in `candidate_box`, without scanning c.

    The d_w interval of a class of rank r_w != 0 has width disc(u) / (2 |r_w|),
    and for r_w = 0 at most disc(u) / (2 |r_u|), so it holds at most
    floor(disc(u) / |r|) + 1 half-integers.
    """
    _check_scan_args(u, rank_bound)
    delta = int(disc_bar_reduced(u))
    return sum(
        (c_hi - c_lo + 1) * (delta // abs(r_w or u.r) + 1)
        for r_w, c_lo, c_hi, _ in candidate_box(u, rank_bound)
    )


def _check_scan_args(u: ReducedClass, rank_bound: int) -> None:
    if not isinstance(rank_bound, int) or rank_bound <= 0:
        raise ValueError("rank_bound must be a positive integer")
    if not u.is_lattice():
        raise ValueError("u must be a lattice class (integer r, c and half-integer d)")


def enumerate_destabilizers(
    u: ReducedClass,
    rank_bound: int,
    region: TiltPoint | None = None,
) -> list[tuple[ReducedClass, Wall]]:
    """All walls of u from lattice classes with |rank| <= rank_bound.

    One entry per distinct wall, witnessed by the lexicographically least
    (r, c, d) among the admissible classes producing it. Vertical walls sort
    first (by beta), semicircles follow by descending radius^2 then center.
    """
    _check_scan_args(u, rank_bound)
    # Doubled coordinates D = 2 d: every quantity below is an int. The box is
    # empty when disc(u) < 0, so no class is scanned and no wall returned.
    r_u, c_u, D_u, delta = int(u.r), int(u.c), int(2 * u.dd), int(disc_bar_reduced(u))
    by_wall: dict[Wall, ReducedClass] = {}
    for r_w, c_lo, c_hi, d_interval in candidate_box(u, rank_bound):
        r_v = r_u - r_w
        for c_w in range(c_lo, c_hi + 1):
            iv = d_interval(c_w)
            if iv is None:
                continue
            lo2, hi2 = 2 * iv[0], 2 * iv[1]
            lo = -(-lo2.numerator // lo2.denominator)
            hi = hi2.numerator // hi2.denominator
            c_v = c_u - c_w
            # (A), (B), (C) as a D + b >= 0, clipped to one exact interval.
            for a, b in (
                (-r_w, c_w * c_w),
                (r_v, c_v * c_v - r_v * D_u),
                (2 * r_w - r_u, delta - c_w * c_w - c_v * c_v + r_v * D_u),
            ):
                if a > 0:
                    lo = max(lo, -(b // a))
                elif a < 0:
                    hi = min(hi, b // -a)
                elif b < 0:
                    hi = lo - 1
            chi = r_u * c_w - r_w * c_u
            for D in range(lo, hi + 1):
                P = r_u * D - r_w * D_u  # 2 psi
                O = c_u * D - c_w * D_u  # 2 omega
                # (D) and (E): the window 0 <= c_w - b0 r_w <= c_u - b0 r_u at
                # the apex b0 = P / (2 chi), or O / P on a vertical wall,
                # cleared of its positive denominator.
                if chi != 0:
                    if P * P - 4 * O * chi <= 0:
                        continue
                    s = 1 if chi > 0 else -1
                    cw = s * (2 * chi * c_w - P * r_w)
                    cu = s * (2 * chi * c_u - P * r_u)
                elif P != 0:
                    s = 1 if P > 0 else -1
                    cw = s * (P * c_w - O * r_w)
                    cu = s * (P * c_u - O * r_u)
                else:
                    continue
                if not 0 <= cw <= cu:
                    continue
                w = ReducedClass(r_w, c_w, Fraction(D, 2))
                wall = numerical_wall(u, w)
                if region is not None and not _passes_region(wall, region):
                    continue
                # r, c and D ascend, so the first witness of a wall is its least.
                by_wall.setdefault(wall, w)

    def sort_key(item):
        w, wall = item
        if isinstance(wall, VerticalWall):
            return (0, wall.beta, Fraction(0))
        return (1, -wall.radius_sq, wall.center)

    return sorted(((w, wall) for wall, w in by_wall.items()), key=sort_key)


def largest_wall(u: ReducedClass, rank_bound: int) -> SemicircleWall | None:
    """Semicircular wall of maximal radius among the enumerated ones."""
    semis = [
        wall
        for _, wall in enumerate_destabilizers(u, rank_bound)
        if isinstance(wall, SemicircleWall)
    ]
    return semis[0] if semis else None
