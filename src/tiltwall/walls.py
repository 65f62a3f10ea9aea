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

and the window (E) makes all three cbar values nonnegative with
cbar_w + cbar_{u-w} = cbar_u. Eliminating the cbar's shows rho^2 is a ratio
of integers with numerator at most disc(u)^2 and positive denominator at
least 4, so rho^2 <= disc(u)^2 / 4. That bounds the center (through
rho^2 = (center - c_u/r_u)^2 - disc(u)/r_u^2 when r_u != 0, or fixes
center = d_u/c_u when r_u = 0) and with it the untwisted c_w range per rank.
Second, given (r_w, c_w) the d_w range is pinned two-sidedly: by
disc(w) in [0, disc(u)] when r_w != 0, and by disc(u - w) in
[0, disc(u) - c_w^2] when r_w = 0 != r_u; the remaining case r_w = r_u = 0
admits no wall at all. Candidates are filtered by the exact predicate
(A)-(E), so the box only needs to be a superset.

The window (E) checked at the apex is equivalent to the window on the whole
wall: c^b(w) is linear in b along the wall chord and (A) gives
cbar_w >= rho |r_w|, so nonnegativity at the apex forces it at both
endpoints; same for u - w via (B).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .chern import ReducedClass, TiltPoint, disc_bar_reduced
from .exactnum import Rat, ceil_sqrt
from .stability import nu


@dataclass(frozen=True)
class VerticalWall:
    """Ray parallel to the alpha-axis at a fixed beta."""

    beta: Rat

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))


@dataclass(frozen=True)
class SemicircleWall:
    """Semicircle centered on the beta-axis, stored as (center, radius^2)."""

    center: Rat
    radius_sq: Rat

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radius_sq", Fraction(self.radius_sq))
        if self.radius_sq <= 0:
            raise ValueError("semicircle needs positive squared radius")


Wall = VerticalWall | SemicircleWall


class _EverywhereType:
    """Degenerate wall of proportional classes: slope equality holds everywhere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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


def wall_contains(wall: Wall, pt: TiltPoint) -> bool:
    if isinstance(wall, VerticalWall):
        return pt.beta == wall.beta
    db = pt.beta - wall.center
    return db * db + pt.alpha2 == wall.radius_sq


def circle_through(u: ReducedClass, pt: TiltPoint) -> SemicircleWall:
    """The member of u's wall pencil through pt: center beta + nu, radius^2 alpha^2 + nu^2."""
    s = nu(u.lift(), pt)
    if s.is_infinite:
        raise ValueError("no slope circle through a point of infinite slope")
    v = s.value
    return SemicircleWall(pt.beta + v, pt.alpha2 + v * v)


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


def _apex_beta(wall: Wall) -> Fraction:
    return wall.center if isinstance(wall, SemicircleWall) else wall.beta


def _admit(u: ReducedClass, w: ReducedClass, delta: Fraction, region):
    """Exact admissibility predicate; returns the wall or None."""
    if w.is_zero():
        return None
    dw = disc_bar_reduced(w)
    if dw < 0:
        return None
    dv = disc_bar_reduced(u - w)
    if dv < 0 or dw + dv > delta:
        return None
    wall = numerical_wall(u, w)
    if wall is None or wall is EVERYWHERE:
        return None
    b0 = _apex_beta(wall)
    cw = w.c - b0 * w.r
    cu = u.c - b0 * u.r
    if not (0 <= cw <= cu):
        return None
    if region is not None and not _passes_region(wall, region):
        return None
    return wall


def _half_int_range(lo: Fraction, hi: Fraction):
    """Half-integers in [lo, hi], ascending."""
    start = lo * 2
    n = start.numerator // start.denominator  # floor
    if Fraction(n, 2) < lo:
        n += 1
    out = []
    while Fraction(n, 2) <= hi:
        out.append(Fraction(n, 2))
        n += 1
    return out


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
    if not isinstance(rank_bound, int) or rank_bound <= 0:
        raise ValueError("rank_bound must be a positive integer")
    if not u.is_lattice():
        raise ValueError("u must be a lattice class (integer r, c and half-integer d)")
    delta = disc_bar_reduced(u)
    if delta < 0:
        warnings.warn(
            "disc(u) < 0: no tilt-semistable object has this class; returning no walls",
            stacklevel=2,
        )
        return []

    by_wall: dict[Wall, ReducedClass] = {}
    for r_w, c_lo, c_hi, d_interval in candidate_box(u, rank_bound):
        for c_w in range(c_lo, c_hi + 1):
            iv = d_interval(c_w)
            if iv is None:
                continue
            for d_w in _half_int_range(*iv):
                w = ReducedClass(r_w, c_w, d_w)
                wall = _admit(u, w, delta, region)
                if wall is None:
                    continue
                best = by_wall.get(wall)
                if best is None or w.as_tuple() < best.as_tuple():
                    by_wall[wall] = w

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
