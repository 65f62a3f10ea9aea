import math
import warnings
from fractions import Fraction

import pytest

from tiltwall import (
    EVERYWHERE,
    ReducedClass,
    SemicircleWall,
    TiltPoint,
    VerticalWall,
    enumerate_destabilizers,
    numerical_wall,
    nu,
    walls_meet,
)
from tiltwall.chern import disc_bar_reduced
from tiltwall.walls import candidate_bound, candidate_box, candidate_floor, no_wall_reason
import reference_formulas as ref
from conftest import lift, rand_reduced, sub
from wall_oracle import (
    covering_c_window,
    oracle_enumerate,
    oracle_in_region,
    result_to_set,
    sample_points,
)


class TestNumericalWall:
    def test_semicircle_example(self):
        wall = numerical_wall(ReducedClass(1, 0, 0), ReducedClass(1, 1, Fraction(1, 2)))
        assert wall == SemicircleWall(Fraction(1, 2), Fraction(1, 4))

    def test_proportional_everywhere(self):
        assert numerical_wall(ReducedClass(1, 0, 0), ReducedClass(2, 0, 0)) is EVERYWHERE

    def test_vertical_example(self):
        wall = numerical_wall(ReducedClass(1, 0, 0), ReducedClass(0, 0, 1))
        assert wall == VerticalWall(0)

    def test_point_locus_is_absent(self):
        assert numerical_wall(ReducedClass(1, 0, 0), ReducedClass(1, 1, 0)) is None

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            VerticalWall(0.5)
        with pytest.raises(TypeError):
            SemicircleWall(0.5, 1)
        with pytest.raises(TypeError):
            SemicircleWall(0, 0.25)

    def test_empty_locus_is_absent(self):
        # chi != 0 with negative squared radius
        assert numerical_wall(ReducedClass(0, 1, 0), ReducedClass(1, 0, -1)) is None

    def test_symmetry(self, rng):
        for _ in range(150):
            u, w = rand_reduced(rng), rand_reduced(rng)
            assert numerical_wall(u, w) == numerical_wall(w, u)
            assert numerical_wall(u, w) == numerical_wall(u, sub(u, w))

    def test_slope_equality_on_walls(self, rng):
        seen = 0
        while seen < 200:
            u, w = rand_reduced(rng), rand_reduced(rng)
            wall = numerical_wall(u, w)
            if not isinstance(wall, SemicircleWall):
                continue
            seen += 1
            for pt in sample_points(wall, [u, w]):
                assert nu(lift(u), pt) == nu(lift(w), pt)


def pencil_circle(u: ReducedClass, pt: TiltPoint) -> SemicircleWall:
    """The member of u's wall pencil through pt: center beta + nu, radius^2 alpha^2 + nu^2."""
    v = nu(lift(u), pt).value
    return SemicircleWall(pt.beta + v, pt.alpha2 + v * v)


class TestCircleThrough:
    def test_example(self):
        # nu(O(H)) = 0 at (1, 0), so the pencil circle there is center 0, radius^2 1;
        # (0, 1, 0) has d = r/2 and c != r, so its wall against O(H) is that circle
        u = ReducedClass(1, 1, Fraction(1, 2))
        assert nu(lift(u), TiltPoint(1, 0)).value == 0
        assert numerical_wall(u, ReducedClass(0, 1, 0)) == SemicircleWall(0, 1)

    def test_contains_its_point(self, rng):
        # (0, 1, beta + nu) has tilt slope nu at pt, so its numerical wall
        # against u is the pencil circle through pt
        seen = 0
        while seen < 150:
            u = rand_reduced(rng)
            pt = TiltPoint(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                           Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            s = nu(lift(u), pt)
            if s.is_infinite or u.r == 0:
                continue
            seen += 1
            assert numerical_wall(u, ReducedClass(0, 1, pt.beta + s.value)) == pencil_circle(u, pt)

    def test_center_constancy_along_circle(self, rng):
        seen = 0
        while seen < 150:
            u = rand_reduced(rng)
            pt = TiltPoint(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                           Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            s = nu(lift(u), pt)
            if s.is_infinite:
                continue
            wall = pencil_circle(u, pt)
            seen += 1
            for q in sample_points(wall, [u]):
                sq = nu(lift(u), q)
                assert q.beta + sq.value == wall.center

    def test_never_crosses_pencil_walls(self, rng):
        # members of one class's pencil never cross when disc(u) >= 0
        seen = 0
        while seen < 100:
            u, w = rand_reduced(rng), rand_reduced(rng)
            if disc_bar_reduced(u) < 0:
                continue
            wall = numerical_wall(u, w)
            if not isinstance(wall, SemicircleWall):
                continue
            pt = TiltPoint(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                           Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            s = nu(lift(u), pt)
            if s.is_infinite:
                continue
            seen += 1
            circle = pencil_circle(u, pt)
            assert circle == wall or not walls_meet(circle, wall)


class TestNestedWalls:
    def test_identical_or_disjoint(self, rng):
        seen = 0
        while seen < 250:
            u = rand_reduced(rng)
            if disc_bar_reduced(u) < 0:
                continue
            w1, w2 = rand_reduced(rng), rand_reduced(rng)
            a, b = numerical_wall(u, w1), numerical_wall(u, w2)
            if a in (None, EVERYWHERE) or b in (None, EVERYWHERE):
                continue
            seen += 1
            assert a == b or not walls_meet(a, b)
            # an equal wall built anew meets the wall, vertical or semicircular
            for wall in (a, b, VerticalWall(Fraction(-1, 2)), SemicircleWall(1, 2)):
                assert walls_meet(wall, type(wall)(*wall.as_tuple()))

    def test_common_base_point_when_disc_negative(self):
        # all pencil members share one point when disc(u) < 0, so the
        # disjointness statement genuinely needs disc(u) >= 0
        u = ReducedClass(1, 0, 1)
        a = numerical_wall(u, ReducedClass(0, 1, 1))
        b = numerical_wall(u, ReducedClass(0, 1, -1))
        assert isinstance(a, SemicircleWall) and isinstance(b, SemicircleWall)
        assert a != b and walls_meet(a, b)
        base = TiltPoint(2, 0)  # alpha^2 = -disc(u)/r^2, beta = c/r
        for wall in (a, b):
            assert (base.beta - wall.center) ** 2 + base.alpha2 == wall.radius_sq


class TestEnumerate:
    def test_disc_zero_gives_nothing(self):
        for u in (ReducedClass(1, 1, Fraction(1, 2)), ReducedClass(2, 0, 0)):
            assert enumerate_destabilizers(u, 4) == []

    def test_known_walls_for_ideal_sheaf_like_class(self):
        u = ReducedClass(1, 0, -1)
        got = enumerate_destabilizers(u, 2)
        walls = [wall for _, wall in got]
        assert VerticalWall(0) in walls
        assert SemicircleWall(Fraction(-3, 2), Fraction(1, 4)) in walls
        assert walls[0] == VerticalWall(0)

    def test_rank_zero_base_class_empty(self):
        assert enumerate_destabilizers(ReducedClass(0, 1, 0), 1) == []

    def test_rank_zero_base_class_with_walls(self):
        got = enumerate_destabilizers(ReducedClass(0, 1, Fraction(1, 2)), 2)
        assert got == [
            (ReducedClass(-1, 0, 0), SemicircleWall(Fraction(1, 2), Fraction(1, 4)))
        ]

    def test_concentric_pencil_for_rank_zero(self):
        got = enumerate_destabilizers(ReducedClass(0, 3, 1), 2)
        centers = {wall.center for _, wall in got}
        assert centers == {Fraction(1, 3)}
        assert len(got) == 4

    @pytest.mark.parametrize(
        "u,rank_bound",
        [
            (ReducedClass(1, 0, -1), 1),
            (ReducedClass(1, 0, -1), 2),
            (ReducedClass(1, 0, -1), 3),
            (ReducedClass(2, 1, 0), 2),
            (ReducedClass(2, 1, 0), 3),
            (ReducedClass(0, 1, 0), 2),
            (ReducedClass(0, 2, Fraction(1, 2)), 2),
            (ReducedClass(-1, 1, 1), 2),
            (ReducedClass(-2, -3, 2), 2),
            (ReducedClass(2, -4, -3), 3),
            # A class below the witness in (r, c, d) misses (C) by exactly 1.
            (ReducedClass(2, 0, Fraction(-1, 2)), 2),
            (ReducedClass(3, 3, 1), 2),
        ],
    )
    def test_against_oracle(self, u, rank_bound):
        got = result_to_set(enumerate_destabilizers(u, rank_bound))
        want = oracle_enumerate(u, rank_bound, covering_c_window(u, rank_bound))
        assert got == want

    @pytest.mark.parametrize(
        "u,w,rho2",
        [
            # rho^2 = (disc(u) - 1)^2 / 4, the largest seen for r_u != 0
            (ReducedClass(1, 0, -6), ReducedClass(0, 1, Fraction(-13, 2)), Fraction(121, 4)),
            (ReducedClass(1, 0, -4), ReducedClass(0, 1, Fraction(-9, 2)), Fraction(49, 4)),
            (ReducedClass(1, 1, -3), ReducedClass(0, 1, -3), Fraction(9)),
            (ReducedClass(-1, 1, Fraction(5, 2)), ReducedClass(-1, 0, 0), Fraction(25, 4)),
            # rho^2 = disc(u)^2 / 4, the bound itself
            (ReducedClass(0, 1, Fraction(-5, 2)), ReducedClass(-1, 3, Fraction(-9, 2)), Fraction(1, 4)),
        ],
    )
    def test_against_lemma_free_window(self, u, w, rho2):
        """w witnesses u's largest wall, and the scan equals a brute force over
        the fixed window |c_w| <= 40, whose d range comes from (A)-(C) alone,
        not from rho^2 <= disc(u)^2 / 4. The window holds the whole box, so a
        wall outside the box would show."""
        window, rank_bound = 40, 3
        wall = numerical_wall(u, w)
        assert wall.radius_sq == rho2
        got = enumerate_destabilizers(u, rank_bound)
        assert (w, wall) in got
        assert max(x.radius_sq for _, x in got if isinstance(x, SemicircleWall)) == rho2
        assert all(max(-lo, hi) < window for _, lo, hi, _ in candidate_box(u, rank_bound))
        assert result_to_set(got) == oracle_enumerate(u, rank_bound, window)

    def test_against_oracle_randomized(self, rng):
        checked = regions = 0
        while checked < 40:
            u = ReducedClass(
                rng.randint(-3, 3), rng.randint(-8, 8), Fraction(rng.randint(-20, 20), 2)
            )
            rank_bound = rng.randint(1, 3)
            delta = disc_bar_reduced(u)
            # The oracle's cost grows like (disc(u) * rank_bound)^2.
            if delta < 0 or u == ReducedClass(0, 0, 0) or delta * rank_bound > 80:
                continue
            checked += 1
            want = oracle_enumerate(u, rank_bound, covering_c_window(u, rank_bound))
            region = None
            if want and rng.randrange(4) == 0:
                # Under, on or above the apex of one of the oracle's own walls.
                key, _ = sorted(want)[rng.randrange(len(want))]
                if key[0] == "vertical":
                    region = TiltPoint(Fraction(rng.randint(1, 8), 4), key[1])
                else:
                    region = TiltPoint(key[2] * Fraction(rng.randint(1, 5), 4), key[1])
                want = {item for item in want if oracle_in_region(item[0], region)}
                regions += 1
            got = result_to_set(enumerate_destabilizers(u, rank_bound, region))
            assert got == want
        assert regions >= 5

    def test_candidate_bound_covers_box(self, rng):
        for _ in range(60):
            u = ReducedClass(
                rng.randint(-4, 4), rng.randint(-8, 8), Fraction(rng.randint(-20, 20), 2)
            )
            rank_bound = rng.randint(1, 6)
            size = 0
            for _r, c_lo, c_hi, d_interval in candidate_box(u, rank_bound):
                for c_w in range(c_lo, c_hi + 1):
                    iv = d_interval(c_w)
                    if iv is not None:
                        size += math.floor(2 * iv[1]) - math.ceil(2 * iv[0]) + 1
            assert size <= candidate_bound(u, rank_bound)
        assert candidate_bound(ReducedClass(1, 0, 1), 2) == 0
        with pytest.raises(ValueError):
            candidate_bound(ReducedClass(1, 0, -1), 0)

    def test_box_matches_the_fraction_reference(self):
        # r_u < 0, rank-0 classes with a non-integral center, disc(u) = 0 and
        # half-integer d_u, beside a sweep of small classes
        named = [(-3, 2, Fraction(-1, 2)), (0, 3, Fraction(1, 2)), (0, 2, -1), (2, 2, 1),
                 (-1, 1, Fraction(-1, 2)), (3, 1, Fraction(-7, 2)), (3, 1, -7)]
        sweep = [(r, c, Fraction(D, 2)) for r in range(-2, 3) for c in range(-1, 3)
                 for D in range(-3, 4)]
        for u in (ReducedClass(*x) for x in named + sweep):
            delta = int(disc_bar_reduced(u))
            for rank_bound in range(1, 13):
                got, want = list(candidate_box(u, rank_bound)), list(ref.candidate_box(u, rank_bound))
                assert [row[:3] for row in got] == [row[:3] for row in want]
                assert all(type(c) is int for row in got for c in row[1:3])
                bound = sum((c_hi - c_lo + 1) * (delta // abs(r_w or u.r) + 1)
                            for r_w, c_lo, c_hi, _ in want)
                assert candidate_bound(u, rank_bound) == bound
                per_rank = 1 if u.r != 0 else int(u.c) + 1
                assert candidate_floor(u, rank_bound) == len(want) * per_rank <= bound
            # the largest box holds every rank of the smaller ones
            for (_r, c_lo, c_hi, d_interval), (*_, d_reference) in zip(got, want):
                assert all(d_interval(c_w) == d_reference(c_w) for c_w in range(c_lo, c_hi + 1))

    def test_window_holds_along_whole_wall(self):
        for u in (ReducedClass(1, 0, -1), ReducedClass(2, 1, 0), ReducedClass(1, 1, -2)):
            for w, wall in enumerate_destabilizers(u, 3):
                if not isinstance(wall, SemicircleWall):
                    continue
                for pt in sample_points(wall, [u, w]):
                    cw = w.c - pt.beta * w.r
                    cu = u.c - pt.beta * u.r
                    assert 0 <= cw <= cu

    def test_region_filter(self):
        u = ReducedClass(1, 0, -1)
        inside = TiltPoint(Fraction(1, 16), Fraction(-3, 2))
        got = enumerate_destabilizers(u, 2, inside)
        assert [wall for _, wall in got] == [
            SemicircleWall(Fraction(-3, 2), Fraction(1, 4))
        ]

    def test_sorted_descending_radius(self, rng):
        for _ in range(30):
            u = rand_reduced(rng)
            if disc_bar_reduced(u) < 0:
                continue
            got = enumerate_destabilizers(u, 3)
            radii = [w.radius_sq for _, w in got if isinstance(w, SemicircleWall)]
            assert radii == sorted(radii, reverse=True)
            kinds = [isinstance(w, VerticalWall) for _, w in got]
            assert kinds == sorted(kinds, reverse=True)

    def test_each_empty_box_has_its_reason(self):
        for u, reason in (
            (ReducedClass(1, 0, 1), "disc(u) < 0"),
            (ReducedClass(0, 0, 1), "r = c = 0"),
            (ReducedClass(0, 0, 0), "r = c = 0"),
            (ReducedClass(0, -1, 0), "r = 0 and c < 0"),
        ):
            assert no_wall_reason(u).startswith(reason + ", ")
            assert list(candidate_box(u, 3)) == [] and enumerate_destabilizers(u, 3) == []
        for u in (ReducedClass(1, 0, -1), ReducedClass(0, 1, Fraction(1, 2)), ReducedClass(2, 0, 0)):
            assert no_wall_reason(u) is None and list(candidate_box(u, 1)) != []

    def test_negative_disc_empty_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_destabilizers(ReducedClass(1, 0, 1), 2) == []

    def test_rejects_bad_rank_bound(self):
        with pytest.raises(ValueError):
            enumerate_destabilizers(ReducedClass(1, 0, -1), 0)

    def test_rejects_non_lattice(self):
        with pytest.raises(ValueError):
            enumerate_destabilizers(ReducedClass(1, 0, Fraction(1, 3)), 1)


def largest_wall(u: ReducedClass, rank_bound: int) -> SemicircleWall | None:
    """The first semicircle of `enumerate_destabilizers`, which lists them by
    descending radius^2 after the vertical walls."""
    semis = [w for _, w in enumerate_destabilizers(u, rank_bound) if isinstance(w, SemicircleWall)]
    return semis[0] if semis else None


class TestLargestWall:
    def test_disc_zero_absent(self):
        assert enumerate_destabilizers(ReducedClass(1, 1, Fraction(1, 2)), 3) == []
        assert largest_wall(ReducedClass(1, 1, Fraction(1, 2)), 3) is None

    def test_head_of_enumeration(self):
        assert largest_wall(ReducedClass(1, 0, -1), 2) == SemicircleWall(
            Fraction(-3, 2), Fraction(1, 4)
        )

    def test_monotone_in_rank_bound(self):
        # a larger rank bound scans a superset, so no wall is lost and the
        # largest radius never shrinks
        for u in (ReducedClass(1, 0, -2), ReducedClass(3, 1, -1)):
            prev_walls, prev = set(), Fraction(0)
            for rank_bound in (1, 2, 3, 4):
                walls = {wall for _, wall in enumerate_destabilizers(u, rank_bound)}
                assert prev_walls <= walls
                wall = largest_wall(u, rank_bound)
                assert wall.radius_sq >= prev
                prev_walls, prev = walls, wall.radius_sq
