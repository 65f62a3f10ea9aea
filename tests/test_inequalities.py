from fractions import Fraction

import pytest
from hypothesis import given

from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    CharVector,
    RuledThreefold,
    TiltPoint,
    bg_main_defect,
    bg_nu_zero_defect,
    bg_star_defect,
    bg_weak_defect,
    corollary_defect,
    disc_bar,
    disc_classical,
    disc_tilde,
    euler_char_pair,
    fiber_bogomolov_defect,
    line_bundle_char,
    liu_abcd,
    nabla,
    nu,
    nu_mixed,
    prop42_chi_bounds,
    tensor_line,
    twist,
)
from reference_formulas import chi_bounds_via_rr
from conftest import (
    add,
    lattice_chars,
    rand_lattice_char,
    rand_point,
    rand_threefold,
    rats,
    threefolds,
    tilt_points,
)

BASIS = [
    CharVector(*[int(i == j) for j in range(6)]) for i in range(6)
]


def oracle_twist(ch: CharVector, b: Fraction, d: int) -> tuple:
    """Independent expansion of the six twisted degrees."""
    r, c1, c2, dF, dH, e = ch.as_tuple()
    return (
        r,
        c1 - b * r,
        c2 - b * d * r,
        dF - b * c1 + b * b / 2 * r,
        dH - b * c2 + b * b / 2 * d * r,
        e - b * dH + b * b / 2 * c2 - b**3 / 6 * d * r,
    )


def oracle_main_defect(ch, pt, X):
    r, c1, c2, dF, dH, e = oracle_twist(ch, pt.beta, X.degree)
    a2, d = pt.alpha2, X.degree
    lhs = (dF - a2 / 2 * r) * (dH - Fraction(d, 3) * dF)
    rhs = (e - a2 / 2 * c2 + a2 * d / 3 * c1) * c1
    return lhs - rhs


class TestDiscClassical:
    def test_line_bundles_vanish(self, rng):
        for _ in range(40):
            X = rand_threefold(rng)
            lb = line_bundle_char(rng.randint(-5, 5), rng.randint(-5, 5), X)
            assert disc_classical(lb, X) == (0, 0)

    def test_direct_sum_class(self, rng):
        for d in (-2, 0, 3):
            X = RuledThreefold(1, d)
            ch = add(CHAR_O, line_bundle_char(1, 0, X))
            assert disc_classical(ch, X) == (-1, -d)

    @given(lattice_chars, threefolds)
    def test_f_component_is_disc_bar(self, ch, X):
        assert disc_classical(ch, X)[0] == disc_bar(ch)


class TestDiscBar:
    def test_line_bundles_and_skyscraper(self, rng):
        X = rand_threefold(rng)
        assert disc_bar(line_bundle_char(2, -3, X)) == 0
        assert disc_bar(SKYSCRAPER) == 0

    @given(lattice_chars, rats, threefolds)
    def test_twist_invariant(self, ch, b, X):
        assert disc_bar(twist(ch, b, X)) == disc_bar(ch)

    @given(lattice_chars)
    def test_integer_on_lattice(self, ch):
        assert disc_bar(ch).denominator == 1


class TestDiscTilde:
    def test_o_h_at_zero(self):
        for d in (-1, 0, 4):
            X = RuledThreefold(2, d)
            assert disc_tilde(line_bundle_char(1, 0, X), 0, X) == Fraction(d, 2)

    @given(rats, threefolds)
    def test_structure_sheaf_formula(self, b, X):
        assert disc_tilde(CHAR_O, b, X) == b * b * X.degree / 2

    @given(lattice_chars, rats, threefolds)
    def test_fiber_twist_invariant(self, ch, b, X):
        for m in (-3, 2):
            assert disc_tilde(tensor_line(ch, 0, m, X), b, X) == disc_tilde(ch, b, X)


class TestNabla:
    def test_line_bundles_vanish(self, rng):
        for _ in range(40):
            X = rand_threefold(rng)
            lb = line_bundle_char(rng.randint(-6, 6), rng.randint(-6, 6), X)
            assert nabla(lb, X) == 0

    @given(lattice_chars, rats, threefolds)
    def test_twist_invariant(self, ch, b, X):
        assert nabla(twist(ch, b, X), X) == nabla(ch, X)

    @given(lattice_chars, threefolds)
    def test_fiber_twist_invariant(self, ch, X):
        for m in (-2, 5):
            assert nabla(tensor_line(ch, 0, m, X), X) == nabla(ch, X)

    @given(lattice_chars, threefolds)
    def test_agrees_with_corollary_form(self, ch, X):
        assert nabla(ch, X) == corollary_defect(ch, X)

    def test_direct_sum_substitution(self):
        X = RuledThreefold(0, 3)
        ch = add(CHAR_O, line_bundle_char(1, 0, X))
        d = X.degree
        expected = (
            Fraction(d, 3) * 2 * Fraction(1, 2)
            - Fraction(2 * d, 3)
            + d
            - 2 * Fraction(d, 2)
        )
        assert nabla(ch, X) == expected


class TestMainDefect:
    def test_equality_cases(self):
        X = RuledThreefold(0, 3)
        assert bg_main_defect(line_bundle_char(1, 0, X), TiltPoint(1, 0), X) == 0
        assert bg_main_defect(CHAR_O, TiltPoint(1, -1), X) == 0

    def test_against_expansion_oracle(self, rng):
        for _ in range(300):
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            assert bg_main_defect(ch, pt, X) == oracle_main_defect(ch, pt, X)


class TestNuZeroDefect:
    def test_o_h(self):
        X = RuledThreefold(0, 3)
        assert bg_nu_zero_defect(line_bundle_char(1, 0, X), TiltPoint(1, 0), X) == 0

    def test_skyscraper(self):
        X = RuledThreefold(0, 3)
        assert bg_nu_zero_defect(SKYSCRAPER, TiltPoint(1, 0), X) == -1

    def test_specializes_main_on_slope_zero_classes(self, rng):
        seen = 0
        while seen < 60:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            v = nu(ch, pt)
            if v.is_infinite or v.value != 0:
                continue
            seen += 1
            c_b = ch.cHF - pt.beta * ch.r
            assert bg_nu_zero_defect(ch, pt, X) * c_b == bg_main_defect(ch, pt, X)


class TestStarDefect:
    def test_equality_case(self):
        X = RuledThreefold(0, 3)
        assert bg_star_defect(line_bundle_char(1, 0, X), TiltPoint(1, 0), X) == 0

    def test_factor_identity_all_signs(self, rng):
        seen_pos = seen_neg = 0
        while seen_pos + seen_neg < 400:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            c_b = ch.cHF - pt.beta * ch.r
            if c_b == 0:
                continue
            if c_b > 0:
                seen_pos += 1
            else:
                seen_neg += 1
            assert bg_main_defect(ch, pt, X) == c_b * bg_star_defect(ch, pt, X)
        assert seen_pos > 50 and seen_neg > 50

    def test_recentering_consistency(self, rng):
        seen = 0
        while seen < 100:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            v = nu(ch, pt)
            if v.is_infinite:
                continue
            seen += 1
            recentered = TiltPoint(pt.alpha2 + v.value**2, pt.beta + v.value)
            assert bg_star_defect(ch, pt, X) == bg_nu_zero_defect(ch, recentered, X)

    def test_rejects_infinite_slope(self):
        X = RuledThreefold(0, 3)
        with pytest.raises(ValueError):
            bg_star_defect(SKYSCRAPER, TiltPoint(1, 0), X)


class TestWeakDefect:
    def test_o_h_margin(self):
        for d in (1, 3, 4):
            X = RuledThreefold(0, d)
            got = bg_weak_defect(line_bundle_char(1, 0, X), TiltPoint(1, 0), X)
            assert got == Fraction(d, 12)

    def test_vanishing_denominator_heart_case(self, rng):
        seen = 0
        while seen < 60:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            tw = twist(ch, pt.beta, X)
            if tw.cHF != 0:
                continue
            if tw.dH < 0 or tw.dF < pt.alpha2 * ch.r / 2 or tw.dF < 0:
                continue
            seen += 1
            assert bg_weak_defect(ch, pt, X) >= 0

    def test_implied_by_main_on_nef_degrees(self, rng):
        seen = 0
        while seen < 150:
            g, d = rng.randint(0, 5), rng.randint(0, 6)
            X = RuledThreefold(g, d)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            if disc_bar(ch) < 0 or bg_main_defect(ch, pt, X) < 0:
                continue
            seen += 1
            assert bg_weak_defect(ch, pt, X) >= 0


class TestLiuABCD:
    def test_skyscraper(self):
        X = RuledThreefold(0, 3)
        assert liu_abcd(SKYSCRAPER, TiltPoint(1, 0), X) == (0, -1, 0, 0)

    def test_o_h(self):
        X = RuledThreefold(0, 3)
        a, b, c, d = liu_abcd(line_bundle_char(1, 0, X), TiltPoint(1, 0), X)
        assert (a, b, c, d) == (0, Fraction(3, 12), 1, Fraction(3, 2))
        assert b * c - a * d == Fraction(3, 12)

    @given(lattice_chars, tilt_points, threefolds)
    def test_bc_minus_ad_is_weak_defect(self, ch, pt, X):
        a, b, c, d = liu_abcd(ch, pt, X)
        assert b * c - a * d == bg_weak_defect(ch, pt, X)

    def test_mixed_slope_formula(self, rng):
        seen = 0
        while seen < 100:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            a, b, c, d = liu_abcd(ch, pt, X)
            if c == 0:
                continue
            seen += 1
            assert nu_mixed(ch, pt, t, X).value == (d - t * a) / c


class TestFiberBogomolov:
    def test_structure_sheaf(self):
        X = RuledThreefold(0, 3)
        assert fiber_bogomolov_defect(1, CHAR_O, X) == 0

    def test_o_h(self):
        X = RuledThreefold(0, 3)
        assert fiber_bogomolov_defect(1, line_bundle_char(1, 0, X), X) == 0

    @given(lattice_chars, threefolds)
    def test_scales_as_k_squared_disc(self, ch, X):
        for k in (1, 2, 3):
            assert fiber_bogomolov_defect(k, ch, X) == k * k * disc_bar(ch)

    @given(lattice_chars, rats, threefolds)
    def test_twist_invariant(self, ch, b, X):
        assert fiber_bogomolov_defect(2, twist(ch, b, X), X) == fiber_bogomolov_defect(
            2, ch, X
        )


class TestProp42:
    def test_structure_sheaf(self):
        X = RuledThreefold(2, 5)
        assert prop42_chi_bounds(CHAR_O, X) == (0, 0)

    def test_o_h_first_component(self, rng):
        for _ in range(20):
            X = rand_threefold(rng)
            chi1, _ = prop42_chi_bounds(line_bundle_char(1, 0, X), X)
            assert chi1 == 1 - X.genus

    @given(threefolds)
    def test_agrees_with_rr_on_basis(self, X):
        for v in BASIS:
            assert prop42_chi_bounds(v, X) == chi_bounds_via_rr(v, X)

    def test_agrees_with_rr_on_random_chars(self, rng):
        for _ in range(150):
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            assert prop42_chi_bounds(ch, X) == chi_bounds_via_rr(ch, X)

    def test_rr_route_uses_line_bundle_pairs(self, rng):
        X = RuledThreefold(1, 2)
        ch = rand_lattice_char(rng)
        assert chi_bounds_via_rr(ch, X) == (
            euler_char_pair(X, line_bundle_char(1, 0, X), ch),
            euler_char_pair(X, line_bundle_char(2, 0, X), ch),
        )


class TestRemarkExpression:
    def test_vanishes_on_all_line_bundles(self):
        for g in range(3):
            for d in range(-3, 6):
                X = RuledThreefold(g, d)
                for a in range(-6, 7):
                    for b in range(-6, 7):
                        h2l = a * d + b
                        hfl = a
                        hl2 = a * a * d + 2 * a * b
                        fl2 = a * a
                        expr = (
                            Fraction(h2l * hfl)
                            - Fraction(hl2, 2)
                            + Fraction(d * fl2, 6)
                            - Fraction(2 * d, 3) * hfl * hfl
                        )
                        assert expr == 0
                        assert nabla(line_bundle_char(a, b, X), X) == expr
