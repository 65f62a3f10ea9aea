"""Acceptance suite: one test per criterion, every comparison exact
(tolerance zero). Each test prints a single PASS line on success; a failed
assertion marks the criterion FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
from fractions import Fraction

from tiltwall import (
    CHAR_O,
    ChargeParams,
    ChargeValue,
    CharVector,
    ReducedClass,
    RuledThreefold,
    TiltPoint,
    bg_main_defect,
    bg_star_defect,
    bg_weak_defect,
    canonical_and_c2,
    central_charge,
    disc_bar,
    disc_tilde,
    enumerate_destabilizers,
    euler_char,
    line_bundle_char,
    nabla,
    nu,
    null_kernel_vector,
    numerical_wall,
    prop42_chi_bounds,
    tensor_line,
    twist,
    verify_support,
    walls_meet,
)
from tiltwall.chern import disc_bar_reduced
from reference_formulas import bg_weak_gram, chi_bounds_via_rr, quad_value
from tiltwall.walls import EVERYWHERE, SemicircleWall
from conftest import lift
from wall_oracle import covering_c_window, oracle_enumerate, result_to_set, sample_points

SEED = 20260809
BASIS = [CharVector(*[int(i == j) for j in range(6)]) for i in range(6)]


def _rat(rng, span=12, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _char(rng):
    return CharVector(
        rng.randint(-5, 5),
        rng.randint(-5, 5),
        rng.randint(-8, 8),
        Fraction(rng.randint(-10, 10), 2),
        Fraction(rng.randint(-10, 10), 2),
        Fraction(rng.randint(-18, 18), 6),
    )


def _reduced(rng):
    return ReducedClass(
        rng.randint(-3, 3), rng.randint(-4, 4), Fraction(rng.randint(-8, 8), 2)
    )


def _threefold(rng):
    return RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))


def _point(rng):
    return TiltPoint(Fraction(rng.randint(1, 9), rng.randint(1, 4)), _rat(rng))


def test_criterion_1_hrr_ground_truth():
    for g in range(6):
        for d in range(-3, 6):
            X = RuledThreefold(g, d)
            assert euler_char(X, CHAR_O) == 1 - g
            k, c2h, c2f = canonical_and_c2(X)
            assert -k[0] * c2h - k[1] * c2f == 24 * (1 - g)
    print("ACCEPTANCE 1: PASS - chi(O_X) = 1-g and c1.c2 = 24(1-g) on the (g,d) grid")


def test_criterion_2_chi_functionals():
    rng = random.Random(SEED + 2)
    for _ in range(10):
        X = _threefold(rng)
        for v in BASIS:
            assert prop42_chi_bounds(v, X) == chi_bounds_via_rr(v, X)
        for _ in range(100):
            ch = _char(rng)
            assert prop42_chi_bounds(ch, X) == chi_bounds_via_rr(ch, X)
    print("ACCEPTANCE 2: PASS - displayed chi functionals match Riemann-Roch pairing exactly")


def test_criterion_3_equivalence_identity():
    rng = random.Random(SEED + 3)
    seen = 0
    while seen < 1000:
        X = _threefold(rng)
        ch = _char(rng)
        pt = _point(rng)
        c_b = ch.cHF - pt.beta * ch.r
        if c_b == 0:
            continue
        seen += 1
        assert bg_main_defect(ch, pt, X) == c_b * bg_star_defect(ch, pt, X)
    print("ACCEPTANCE 3: PASS - main defect = cHF^beta * star defect on 1000 samples")


def test_criterion_4_invariance_suite():
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        X = _threefold(rng)
        ch = _char(rng)
        b, b2 = _rat(rng), _rat(rng)
        m = rng.randint(-6, 6)
        pt = _point(rng)
        assert disc_bar(twist(ch, b, X)) == disc_bar(ch)
        assert nabla(twist(ch, b, X), X) == nabla(ch, X)
        assert disc_tilde(tensor_line(ch, 0, m, X), b, X) == disc_tilde(ch, b, X)
        assert nu(tensor_line(ch, 0, m, X), pt) == nu(ch, pt)
        assert twist(twist(ch, b, X), b2, X) == twist(ch, b + b2, X)
    print("ACCEPTANCE 4: PASS - twist/fiber-twist invariances and group law on 1000 samples")


def test_criterion_5_line_bundle_equalities():
    for g in range(6):
        for d in range(-3, 6):
            X = RuledThreefold(g, d)
            for a in range(-10, 11):
                for b in range(-10, 11):
                    lb = line_bundle_char(a, b, X)
                    assert disc_bar(lb) == 0
                    assert nabla(lb, X) == 0
                    h2l, hfl = a * d + b, a
                    hl2, fl2 = a * a * d + 2 * a * b, a * a
                    remark = (
                        Fraction(h2l * hfl)
                        - Fraction(hl2, 2)
                        + Fraction(d * fl2, 6)
                        - Fraction(2 * d, 3) * hfl * hfl
                    )
                    assert remark == 0
    print("ACCEPTANCE 5: PASS - disc, nabla and the divisor expression vanish on all line bundles")


def test_criterion_6_wall_geometry():
    rng = random.Random(SEED + 6)

    # (a) slope equality at 5 rational points per wall, 200 pairs
    seen = 0
    while seen < 200:
        u, w = _reduced(rng), _reduced(rng)
        wall = numerical_wall(u, w)
        if not isinstance(wall, SemicircleWall):
            continue
        seen += 1
        for pt in sample_points(wall, [u, w]):
            assert nu(lift(u), pt) == nu(lift(w), pt)

    # (b) nested walls: identical or disjoint for classes of nonnegative disc
    seen = 0
    while seen < 200:
        u = _reduced(rng)
        if disc_bar_reduced(u) < 0:
            continue
        a = numerical_wall(u, _reduced(rng))
        b = numerical_wall(u, _reduced(rng))
        if a in (None, EVERYWHERE) or b in (None, EVERYWHERE):
            continue
        seen += 1
        assert a == b or not walls_meet(a, b)

    # (c) circle-through constancy at 5 rational points per circle: the member
    # of u's pencil through pt has center beta + nu and radius^2 alpha^2 + nu^2
    seen = 0
    while seen < 200:
        u = _reduced(rng)
        pt = _point(rng)
        s = nu(lift(u), pt)
        if s.is_infinite:
            continue
        seen += 1
        circle = SemicircleWall(pt.beta + s.value, pt.alpha2 + s.value**2)
        for q in sample_points(circle, [u]):
            assert q.beta + nu(lift(u), q).value == circle.center

    # (d) disc-zero classes have no semicircular walls
    null_classes = [ReducedClass(k, k * m, Fraction(k * m * m, 2)) for k in (1, 2, -1) for m in (-2, 0, 3)]
    null_classes += [ReducedClass(0, 0, 1), ReducedClass(0, 0, Fraction(-3, 2))]
    for u in null_classes:
        assert disc_bar_reduced(u) == 0
        semis = [
            wall
            for _, wall in enumerate_destabilizers(u, 3)
            if isinstance(wall, SemicircleWall)
        ]
        assert semis == []
    print("ACCEPTANCE 6: PASS - wall slope equality, nesting, circle constancy, disc-zero emptiness")


def test_criterion_7_enumeration_vs_oracle():
    for u in (ReducedClass(1, 0, -1), ReducedClass(2, 1, 0)):
        for rank_bound in (1, 2, 3):
            got = result_to_set(enumerate_destabilizers(u, rank_bound))
            want = oracle_enumerate(u, rank_bound, covering_c_window(u, rank_bound))
            assert got == want
    print("ACCEPTANCE 7: PASS - enumeration equals brute-force box scan for both classes, ranks 1-3")


def test_criterion_8_support_machinery():
    rng = random.Random(SEED + 8)

    # the weak defect is the hand-expanded Gram form of b*c - a*d on 1000 samples
    for _ in range(1000):
        X = _threefold(rng)
        pt = _point(rng)
        ch = _char(rng)
        assert quad_value(bg_weak_gram(pt, X), ch.as_tuple()) == bg_weak_defect(ch, pt, X)

    # the family yields no witness, and says why: an exact null kernel vector
    X = RuledThreefold(0, 3)
    p = ChargeParams(1, 0, 1, 1)
    assert verify_support(p, X, [Fraction(k, 4) for k in range(9)], [Fraction(k, 4) for k in range(1, 9)]) is None
    v = null_kernel_vector(p, X)
    assert v == (0, 0, 1, 0, 0, Fraction(1, 2))
    assert central_charge(CharVector(*v), p, X) == ChargeValue(0, 0)
    assert bg_weak_defect(CharVector(*v), p.tilt_point(), X) == disc_bar(CharVector(*v)) == 0
    print("ACCEPTANCE 8: PASS - weak-form identity, no witness in the family, with its null vector")


def test_criterion_9_support_search_outcome_is_stable():
    # Regression fixture: on these parameter sets the two-parameter family
    # carries no witness, because the kernel of the charge contains the line
    # through (0, 0, 1, 0, beta, (alpha^2+beta^2)/2) and both base forms
    # vanish on it. The runs must report that inconclusively, without error.
    param_sets = [
        (ChargeParams(1, 0, 1, 1), RuledThreefold(0, 3)),
        (ChargeParams(Fraction(1, 2), Fraction(1, 2), 2, 1), RuledThreefold(1, 0)),
        (ChargeParams(2, -1, Fraction(1, 2), Fraction(3, 2)), RuledThreefold(2, -2)),
    ]
    lam_grid = [Fraction(k, 4) for k in range(9)]
    mu_grid = [Fraction(k, 4) for k in range(1, 9)]
    for p, X in param_sets:
        null_vector = CharVector(0, 0, 1, 0, p.beta, (p.alpha2 + p.beta**2) / 2)
        assert central_charge(null_vector, p, X) == ChargeValue(0, 0)
        assert disc_bar(null_vector) == 0
        assert bg_weak_defect(null_vector, p.tilt_point(), X) == 0
        assert verify_support(p, X, lam_grid, mu_grid) is None
    print("ACCEPTANCE 9: PASS - support search reports inconclusive (fixture: no witness in family)")
