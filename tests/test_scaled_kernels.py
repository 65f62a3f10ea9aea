"""The integer lattice, slope, charge and defect kernels against their
rational formulas.

`reference_formulas` keeps each function's Fraction body verbatim; every
kernel must return the same value, of the same type, on non-lattice
characters, twists and parameters with large denominators, and on the
degenerate loci (c_beta = 0, rank 0, the heart cascade's branches 2 and 3,
beta_bar's domain errors and rational roots).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_formulas as ref
from conftest import (
    neg,
    wide_betas,
    wide_charges,
    wide_chars,
    wide_pos_rats,
    wide_rats,
    wide_threefolds,
    wide_tilt_points,
)
from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    CharVector,
    ChargeParams,
    ChargeValue,
    ExtRat,
    QuadRat,
    RuledThreefold,
    TiltPoint,
    beta_bar,
    bg_main_defect,
    bg_nu_zero_defect,
    bg_star_defect,
    bg_weak_defect,
    central_charge,
    disc_bar,
    disc_classical,
    disc_tilde,
    euler_char,
    f_ch2_twisted,
    fiber_bogomolov_defect,
    fiber_pushforward_char,
    heart_sign_constraints,
    line_bundle_char,
    liu_abcd,
    nabla,
    nu,
    nu_mixed,
    nu_sigma,
    prop42_chi_bounds,
)

ODD_CHAR = CharVector(
    Fraction(-7, 999983), Fraction(5, 3), 2, Fraction(1, 10**6), -1, Fraction(11, 7)
)
ODD_POINT = TiltPoint(Fraction(999999, 7), Fraction(-999999999989, 10**12))
ODD_CHARGE = ChargeParams(Fraction(13, 999), Fraction(-5, 11), Fraction(17, 10**6), Fraction(7, 3))

wide_ints = st.integers(-(10**6), 10**6)


def same_rat(got, want) -> bool:
    return type(got) is Fraction and got == want


def same_rats(got, want) -> bool:
    return type(got) is tuple and len(got) == len(want) and all(map(same_rat, got, want))


def same_char(got, want) -> bool:
    return type(got) is CharVector and all(map(same_rat, got.as_tuple(), want.as_tuple()))


def same_quad(got, want) -> bool:
    """Same parts, each a Fraction, and so the same printed form."""
    parts = (got.a, got.b, got.radicand)
    return (
        type(got) is QuadRat
        and all(map(same_rat, parts, (want.a, want.b, want.radicand)))
        and str(got) == str(want)
    )


def outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return str(err)


def same_slope(got, want) -> bool:
    if not isinstance(got, ExtRat) or got.is_infinite != want.is_infinite:
        return False
    return got.is_infinite or same_rat(got.value, want.value)


def same_heart(got, want) -> bool:
    return got == want and all(type(x) is bool for x in vars(got).values())


def vertical(ch: CharVector, beta) -> CharVector:
    """ch moved onto the locus c_beta = cHF - beta r = 0."""
    return CharVector(ch.r, Fraction(beta) * ch.r, ch.cHH, ch.dF, ch.dH, ch.e)


class TestSlopes:
    @given(wide_chars, wide_tilt_points)
    @example(ODD_CHAR, ODD_POINT)
    @example(CHAR_O, TiltPoint(1, 0))
    def test_nu(self, ch, pt):
        assert same_slope(nu(ch, pt), ref.nu(ch, pt))

    @given(wide_chars, wide_tilt_points, wide_pos_rats, wide_threefolds)
    @example(ODD_CHAR, ODD_POINT, Fraction(3, 999983), RuledThreefold(2, -5))
    @example(CHAR_O, TiltPoint(1, 0), 2, RuledThreefold(0, 1))
    def test_nu_mixed(self, ch, pt, t, X):
        assert same_slope(nu_mixed(ch, pt, t, X), ref.nu_mixed(ch, pt, t, X))

    @given(wide_chars, wide_tilt_points, wide_threefolds)
    @example(ODD_CHAR, ODD_POINT, RuledThreefold(2, -5))
    def test_heart_sign_constraints(self, ch, pt, X):
        got = heart_sign_constraints(ch, pt, X)
        assert same_heart(got, ref.heart_sign_constraints(ch, pt, X))

    @given(wide_chars, wide_charges, wide_threefolds)
    @example(ODD_CHAR, ODD_CHARGE, RuledThreefold(2, -5))
    @example(SKYSCRAPER, ODD_CHARGE, RuledThreefold(0, 3))
    def test_central_charge_and_nu_sigma(self, ch, p, X):
        z, want = central_charge(ch, p, X), ref.central_charge(ch, p, X)
        assert type(z) is ChargeValue and same_rat(z.re, want.re) and same_rat(z.im, want.im)
        assert same_slope(nu_sigma(ch, p, X), ref.nu_sigma(ch, p, X))


class TestDefects:
    @given(wide_chars, wide_tilt_points, wide_threefolds)
    @example(ODD_CHAR, ODD_POINT, RuledThreefold(2, -5))
    @example(line_bundle_char(1, 0, RuledThreefold(0, 3)), TiltPoint(1, 0), RuledThreefold(0, 3))
    def test_twisted(self, ch, pt, X):
        for kernel in (bg_main_defect, bg_nu_zero_defect, bg_weak_defect):
            assert same_rat(kernel(ch, pt, X), getattr(ref, kernel.__name__)(ch, pt, X))
        assert same_rats(liu_abcd(ch, pt, X), ref.liu_abcd(ch, pt, X))
        assert same_rat(disc_tilde(ch, pt.beta, X), ref.disc_tilde(ch, pt.beta, X))

    @given(wide_chars, wide_betas, wide_threefolds)
    def test_disc_tilde_at_any_beta(self, ch, b, X):
        assert same_rat(disc_tilde(ch, b, X), ref.disc_tilde(ch, b, X))

    @given(wide_chars, wide_tilt_points, wide_threefolds)
    @example(ODD_CHAR, ODD_POINT, RuledThreefold(2, -5))
    def test_star(self, ch, pt, X):
        if ref.nu(ch, pt).is_infinite:
            with pytest.raises(ValueError):
                bg_star_defect(ch, pt, X)
        else:
            assert same_rat(bg_star_defect(ch, pt, X), ref.bg_star_defect(ch, pt, X))

    @given(wide_chars, wide_threefolds, st.integers(1, 6))
    @example(ODD_CHAR, RuledThreefold(2, -5), 3)
    def test_untwisted(self, ch, X, k):
        assert same_rats(disc_classical(ch, X), ref.disc_classical(ch, X))
        assert same_rat(disc_bar(ch), ref.disc_bar(ch))
        assert same_rat(nabla(ch, X), ref.nabla(ch, X))
        assert same_rat(fiber_bogomolov_defect(k, ch, X), ref.fiber_bogomolov_defect(k, ch, X))
        assert same_rats(prop42_chi_bounds(ch, X), ref.prop42_chi_bounds(ch, X))
        assert same_rat(euler_char(X, ch), ref.euler_char(X, ch))

    def test_fiber_count_still_checked(self):
        for k in (0, -1, Fraction(1)):
            with pytest.raises(ValueError):
                fiber_bogomolov_defect(k, CHAR_O, RuledThreefold(0, 1))


class TestDegenerateLoci:
    @given(wide_chars, wide_tilt_points, wide_pos_rats, wide_threefolds)
    @example(CharVector(2, 1, 0, 0, 0, 0), TiltPoint(1, Fraction(1, 2)), 1, RuledThreefold(0, 1))
    def test_vertical_locus(self, ch, pt, t, X):
        """c_beta = 0: infinite slopes, heart branch 2, no recentered defect."""
        ch = vertical(ch, pt.beta)
        assert nu(ch, pt).is_infinite and ref.nu(ch, pt).is_infinite
        assert nu_mixed(ch, pt, t, X).is_infinite
        assert ref.nu_mixed(ch, pt, t, X).is_infinite
        got = heart_sign_constraints(ch, pt, X)
        assert got.branch2_checked and same_heart(got, ref.heart_sign_constraints(ch, pt, X))
        with pytest.raises(ValueError):
            bg_star_defect(ch, pt, X)
        with pytest.raises(ValueError):
            ref.bg_star_defect(ch, pt, X)
        for kernel in (bg_main_defect, bg_nu_zero_defect, bg_weak_defect):
            assert same_rat(kernel(ch, pt, X), getattr(ref, kernel.__name__)(ch, pt, X))
        assert same_rats(liu_abcd(ch, pt, X), ref.liu_abcd(ch, pt, X))

    @given(wide_rats, wide_rats, wide_rats, wide_tilt_points, wide_threefolds)
    @example(Fraction(2), Fraction(0), Fraction(1), TiltPoint(1, 1), RuledThreefold(0, 1))
    def test_rank_zero_branch3(self, cHH, dF, e, pt, X):
        """r = 0, cHF = 0 and dH = beta cHH put the cascade in branch 3,
        where ch3^beta = e - beta^2 cHH / 2."""
        b = Fraction(pt.beta)
        ch = CharVector(0, 0, cHH, dF, b * cHH, e)
        got = heart_sign_constraints(ch, pt, X)
        assert got.branch3_checked and got.ch3_nonneg == (e - b * b * cHH / 2 >= 0)
        assert same_heart(got, ref.heart_sign_constraints(ch, pt, X))

    @given(wide_chars, wide_tilt_points, wide_charges, wide_threefolds)
    def test_rank_zero(self, ch, pt, p, X):
        ch = CharVector(0, *ch.as_tuple()[1:])
        assert same_slope(nu(ch, pt), ref.nu(ch, pt))
        assert same_heart(heart_sign_constraints(ch, pt, X), ref.heart_sign_constraints(ch, pt, X))
        assert same_slope(nu_sigma(ch, p, X), ref.nu_sigma(ch, p, X))
        assert same_rat(bg_main_defect(ch, pt, X), ref.bg_main_defect(ch, pt, X))
        if not ref.nu(ch, pt).is_infinite:
            assert same_rat(bg_star_defect(ch, pt, X), ref.bg_star_defect(ch, pt, X))

    def test_heart_branches_by_hand(self):
        X = RuledThreefold(0, 1)
        pt = TiltPoint(1, 0)
        shifted = neg(SKYSCRAPER)
        sky = heart_sign_constraints(SKYSCRAPER, pt, X)
        assert sky.branch3_checked and sky.ch3_nonneg and sky.passes
        minus = heart_sign_constraints(shifted, pt, X)
        assert minus.branch3_checked and not minus.ch3_nonneg and not minus.passes
        torsion = heart_sign_constraints(CharVector(0, 0, 1, 0, 1, 0), pt, X)
        assert torsion.branch2_checked and not torsion.branch3_checked and torsion.passes
        for ch in (SKYSCRAPER, shifted, CharVector(0, 0, 1, 0, 1, 0), CharVector(-1, 0, 0, -1, 0, 0)):
            assert same_heart(heart_sign_constraints(ch, pt, X), ref.heart_sign_constraints(ch, pt, X))

    def test_skyscraper_charge_on_real_axis(self):
        p = ODD_CHARGE
        X = RuledThreefold(1, 2)
        assert central_charge(SKYSCRAPER, p, X) == ChargeValue(-1, 0)
        assert nu_sigma(SKYSCRAPER, p, X).is_infinite


class TestLatticeConstructors:
    @given(wide_ints, wide_ints, wide_threefolds)
    @example(0, 0, RuledThreefold(0, 1))
    @example(1, 0, RuledThreefold(0, 3))
    @example(-3, 7, RuledThreefold(2, -5))
    def test_line_bundle_char(self, a, b, X):
        assert same_char(line_bundle_char(a, b, X), ref.line_bundle_char(a, b, X))

    @given(st.integers(1, 10**6), wide_chars)
    @example(1, ODD_CHAR)
    @example(6, CHAR_O)
    def test_fiber_pushforward_char(self, k, ch):
        assert same_char(fiber_pushforward_char(k, ch), ref.fiber_pushforward_char(k, ch))

    @given(st.one_of(wide_chars, wide_chars.map(lambda ch: CharVector(0, *ch.as_tuple()[1:]))))
    @example(ODD_CHAR)
    @example(CharVector(1, 0, 0, -1, 0, 0))
    @example(CharVector(2, 0, 0, -2, 0, 0))
    def test_beta_bar(self, ch):
        got, want = outcome(beta_bar, ch), outcome(ref.beta_bar, ch)
        assert got == want if isinstance(want, str) else same_quad(got, want)

    @pytest.mark.parametrize(
        "ch, start",
        [
            (CharVector(0, 0, 1, 2, 3, 4), "beta_bar undefined"),
            (CharVector(0, 0, Fraction(1, 3), Fraction(5, 7), 0, Fraction(1, 6)), "beta_bar undefined"),
            (CharVector(1, 0, 0, 1, 0, 0), "beta_bar domain"),
            (CharVector(Fraction(2, 3), Fraction(1, 5), 0, Fraction(7, 9), 0, 0), "beta_bar domain"),
        ],
    )
    def test_beta_bar_domain_errors(self, ch, start):
        """Rank 0 with cHF = 0, and a negative discriminant: the same message."""
        got = outcome(beta_bar, ch)
        assert got.startswith(start) and got == outcome(ref.beta_bar, ch)

    @given(wide_rats.filter(bool), wide_rats, wide_rats.filter(bool))
    @example(Fraction(1), Fraction(1), Fraction(1))
    @example(Fraction(-7, 999983), Fraction(5, 3), Fraction(1, 3))
    def test_beta_bar_rational_root(self, r, c, s):
        """A perfect-square discriminant c^2 - 2 r dF = s^2 normalises b to 0."""
        ch = CharVector(r, c, 0, (c * c - s * s) / (2 * r), 0, 0)
        got = beta_bar(ch)
        assert got.b == 0 and got.radicand == 0 and got == (c - abs(s)) / r
        assert same_quad(got, ref.beta_bar(ch))


class TestFCh2Twisted:
    @given(wide_chars, wide_rats, wide_rats, wide_pos_rats)
    @example(CharVector(1, 0, 0, 0, 0, 0), Fraction(1, 3), Fraction(2, 7), Fraction(2))
    @example(CharVector(1, 0, 0, 0, 0, 0), Fraction(1, 3), Fraction(2, 7), Fraction(9, 4))
    def test_quadratic_argument(self, ch, x, y, D):
        b = QuadRat(x, y, D)
        assert same_quad(f_ch2_twisted(ch, b), QuadRat(*ref.f_ch2_twisted(ch, b)))

    @given(wide_chars, st.one_of(st.integers(-50, 50), wide_rats))
    @example(ODD_CHAR, 0)
    @example(ODD_CHAR, Fraction(-5, 11))
    def test_rational_argument(self, ch, b):
        got = f_ch2_twisted(ch, b)
        assert got.b == 0 and same_quad(got, QuadRat(*ref.f_ch2_twisted(ch, b)))

    @given(wide_chars)
    def test_beta_bar_roots_annihilate(self, ch):
        try:
            b = beta_bar(ch)
        except ValueError:
            return
        # the other root of (r/2) b^2 - cHF b + dF: the two sum to 2 cHF / r
        other = QuadRat(2 * ch.cHF / ch.r - b.a, -b.b, b.radicand) if ch.r else b
        for root in (b, other):
            got = f_ch2_twisted(ch, root)
            assert got == 0 and (got.a, got.b, got.radicand) == ref.f_ch2_twisted(ch, root)
