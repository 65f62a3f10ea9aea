from fractions import Fraction

import pytest
from hypothesis import example, given

from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    ChargeParams,
    ChargeValue,
    CharVector,
    RuledThreefold,
    TiltPoint,
    bg_weak_defect,
    central_charge,
    disc_bar,
    line_bundle_char,
    liu_abcd,
    null_kernel_vector,
    verify_support,
)
from tiltwall import support
import reference_formulas as ref
from conftest import (
    add,
    rand_lattice_char,
    rand_point,
    rand_threefold,
    sub,
    wide_charges,
    wide_chars,
    wide_threefolds,
    wide_tilt_points,
)
from test_scaled_kernels import ODD_CHAR, ODD_CHARGE, ODD_POINT, same_rat

BASIS = [CharVector(*[int(i == j) for j in range(6)]) for i in range(6)]


def _params(rng):
    return ChargeParams(
        Fraction(rng.randint(1, 9), rng.randint(1, 3)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(1, 5), rng.randint(1, 2)),
        Fraction(rng.randint(1, 5), rng.randint(1, 2)),
    )


def minus_identity(ch, *_):
    """A quadratic form negative on every nonzero vector."""
    return -sum(x * x for x in ch.as_tuple())


class TestChargeFunctionals:
    """Re Z and Im Z as linear functionals, read off `central_charge`."""

    def test_e_coefficient_in_re(self, rng):
        # adding 3 skyscrapers moves Z by (-3, 0) from any base class
        for _ in range(10):
            p, X, ch = _params(rng), rand_threefold(rng), rand_lattice_char(rng)
            z = central_charge(ch, p, X)
            zk = central_charge(add(ch, CharVector(0, 0, 0, 0, 0, 3)), p, X)
            assert (zk.re - z.re, zk.im - z.im) == (-3, 0)

    def test_skyscraper_value(self, rng):
        assert central_charge(SKYSCRAPER, _params(rng), rand_threefold(rng)) == ChargeValue(-1, 0)

    def test_agrees_with_central_charge_on_basis(self, rng):
        # Z on the unit characters is the hand-expanded coefficient vector
        for _ in range(40):
            X = rand_threefold(rng)
            p = _params(rng)
            re, im = ref.charge_coefficients(p, X)
            zs = [central_charge(e, p, X) for e in BASIS]
            assert tuple(z.re for z in zs) == re
            assert tuple(z.im for z in zs) == im

    def test_agrees_on_random_chars(self, rng):
        # Z is linear: its value is the coefficient vector read off the units
        for _ in range(100):
            X = rand_threefold(rng)
            p = _params(rng)
            zs = [central_charge(e, p, X) for e in BASIS]
            ch = rand_lattice_char(rng)
            z = central_charge(ch, p, X)
            assert z.re == sum(x * e.re for x, e in zip(ch.as_tuple(), zs))
            assert z.im == sum(x * e.im for x, e in zip(ch.as_tuple(), zs))

    def test_structure_against_liu_functionals(self, rng):
        # re = s*c + b and im = d - t*a as functionals
        for _ in range(60):
            X = rand_threefold(rng)
            p = _params(rng)
            pt = TiltPoint(p.alpha2, p.beta)
            ch = rand_lattice_char(rng)
            a, b, c, d = liu_abcd(ch, pt, X)
            z = central_charge(ch, p, X)
            assert z.re == p.s * c + b
            assert z.im == d - p.t * a


class TestKernel:
    def test_dh_e_minor_is_minus_one(self, rng):
        # the reason Z always has rank 2 and ker Z dimension 4
        for _ in range(50):
            p, X = _params(rng), rand_threefold(rng)
            zh, ze = central_charge(BASIS[4], p, X), central_charge(BASIS[5], p, X)
            assert zh.im * ze.re - zh.re * ze.im == -1


class TestDiscBarForm:
    def test_three_nonzero_entries(self, rng):
        # cHF^2 - 2 r dF: only the (1,1), (0,3) and (3,0) Gram entries are nonzero
        for _ in range(100):
            ch = rand_lattice_char(rng)
            assert disc_bar(ch) == ch.cHF**2 - 2 * ch.r * ch.dF

    def test_matches_disc_bar(self, rng):
        # disc_bar is a quadratic form: degree-2 homogeneous, parallelogram law
        for _ in range(100):
            x, y = rand_lattice_char(rng), rand_lattice_char(rng)
            assert disc_bar(CharVector(*(-3 * a for a in x.as_tuple()))) == 9 * disc_bar(x)
            assert disc_bar(add(x, y)) + disc_bar(sub(x, y)) == 2 * disc_bar(x) + 2 * disc_bar(y)

    def test_known_values(self):
        X = RuledThreefold(0, 3)
        assert disc_bar(line_bundle_char(2, -1, X)) == 0
        assert disc_bar(add(CHAR_O, line_bundle_char(1, 0, X))) == -1


class TestBGQuadraticForm:
    def test_skyscraper_zero(self, rng):
        assert bg_weak_defect(SKYSCRAPER, rand_point(rng), rand_threefold(rng)) == 0

    def test_o_h_margin(self):
        X = RuledThreefold(0, 3)
        assert bg_weak_defect(line_bundle_char(1, 0, X), TiltPoint(1, 0), X) == Fraction(3, 12)

    def test_matches_weak_defect(self, rng):
        # Q_weak is b*c - a*d of the four Liu functionals
        for _ in range(200):
            X = rand_threefold(rng)
            pt = rand_point(rng)
            ch = rand_lattice_char(rng)
            a, b, c, d = liu_abcd(ch, pt, X)
            assert bg_weak_defect(ch, pt, X) == b * c - a * d


class TestAgainstHandExpandedFormulas:
    """`central_charge` and both defects against the hand-expanded untwisted
    coefficients and Gram rows in `reference_formulas`."""

    @given(wide_chars, wide_charges, wide_threefolds)
    @example(ODD_CHAR, ODD_CHARGE, RuledThreefold(2, -5))
    @example(ODD_CHAR, ODD_CHARGE, RuledThreefold(0, 0))
    @example(CharVector(0, 0, 1, 0, 0, Fraction(1, 2)), ChargeParams(1, 0, 1, 1), RuledThreefold(3, -1))
    def test_charge_functionals(self, ch, p, X):
        re, im = ref.charge_coefficients(p, X)
        v = ch.as_tuple()
        z = central_charge(ch, p, X)
        assert same_rat(z.re, sum(a * x for a, x in zip(re, v)))
        assert same_rat(z.im, sum(a * x for a, x in zip(im, v)))

    @given(wide_chars, wide_tilt_points, wide_threefolds)
    @example(ODD_CHAR, ODD_POINT, RuledThreefold(2, -5))
    @example(ODD_CHAR, TiltPoint(1, 0), RuledThreefold(0, 0))
    @example(ODD_CHAR, TiltPoint(Fraction(1, 3), Fraction(5, 2)), RuledThreefold(5, -20))
    def test_bg_quadratic_form(self, ch, pt, X):
        want = ref.quad_value(ref.bg_weak_gram(pt, X), ch.as_tuple())
        assert same_rat(bg_weak_defect(ch, pt, X), want)

    @given(wide_chars)
    @example(ODD_CHAR)
    def test_disc_bar_form(self, ch):
        assert same_rat(disc_bar(ch), ref.quad_value(ref.disc_bar_gram(), ch.as_tuple()))


class TestVerifySupport:
    def _null_line_vector(self, p: ChargeParams) -> CharVector:
        return CharVector(
            0, 0, 1, 0, p.beta, (p.alpha2 + p.beta * p.beta) / 2
        )

    def test_family_vanishes_on_a_kernel_line(self, rng):
        # the structural obstruction: a kernel line on which both base forms
        # vanish, so no combination can be negative definite
        for _ in range(25):
            X = rand_threefold(rng)
            p = _params(rng)
            v = self._null_line_vector(p)
            assert central_charge(v, p, X) == ChargeValue(0, 0)
            assert disc_bar(v) == 0
            assert bg_weak_defect(v, TiltPoint(p.alpha2, p.beta), X) == 0
            assert null_kernel_vector(p, X) == v.as_tuple()

    def test_search_reports_inconclusive(self):
        X = RuledThreefold(0, 3)
        p = ChargeParams(1, 0, 1, 1)
        grid = [Fraction(k, 4) for k in range(0, 9)]
        mus = [Fraction(k, 4) for k in range(1, 9)]
        assert verify_support(p, X, grid, mus) is None

    def test_certificate_declines(self, rng, monkeypatch):
        X = rand_threefold(rng)
        p = _params(rng)
        # -I is negative on every nonzero v, in place of either generator
        for name in ("bg_weak_defect", "disc_bar"):
            monkeypatch.setattr(support, name, minus_identity)
            with pytest.raises(ArithmeticError, match="certificate"):
                null_kernel_vector(p, X)
            monkeypatch.undo()

        # v is not in the kernel of a charge with Re Z = e, or with Im Z = cHH
        def re_is_e(ch, p, X):
            return ChargeValue(ch.e, central_charge(ch, p, X).im)

        def im_is_chh(ch, p, X):
            return ChargeValue(central_charge(ch, p, X).re, ch.cHH)

        for charge in (re_is_e, im_is_chh):
            monkeypatch.setattr(support, "central_charge", charge)
            with pytest.raises(ArithmeticError, match="certificate"):
                null_kernel_vector(p, X)
            monkeypatch.undo()

    def test_failed_certificate_raises_through_verify_support(self, monkeypatch):
        monkeypatch.setattr(support, "disc_bar", minus_identity)
        with pytest.raises(ArithmeticError, match="certificate"):
            verify_support(ChargeParams(1, 0, 1, 1), RuledThreefold(0, 3), [0], [1])

