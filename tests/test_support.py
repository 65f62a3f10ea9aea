from fractions import Fraction

import pytest
from hypothesis import example, given

from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    ChargeFunctionals,
    ChargeParams,
    CharVector,
    QForm6,
    RatMatrix,
    RuledThreefold,
    TiltPoint,
    bg_quadratic_form,
    bg_weak_defect,
    central_charge,
    charge_functionals,
    disc_bar,
    disc_bar_form,
    line_bundle_char,
    liu_abcd,
    null_kernel_vector,
    verify_support,
)
from tiltwall import support
import reference_formulas as ref
from conftest import (
    rand_lattice_char,
    rand_point,
    rand_threefold,
    wide_charges,
    wide_threefolds,
    wide_tilt_points,
)
from test_scaled_kernels import ODD_CHARGE, ODD_POINT, same_rats

BASIS = [CharVector(*[int(i == j) for j in range(6)]) for i in range(6)]
MINUS_IDENTITY = QForm6(RatMatrix([[-int(i == j) for j in range(6)] for i in range(6)]))


def _params(rng):
    return ChargeParams(
        Fraction(rng.randint(1, 9), rng.randint(1, 3)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(1, 5), rng.randint(1, 2)),
        Fraction(rng.randint(1, 5), rng.randint(1, 2)),
    )


class TestChargeFunctionals:
    def test_e_coefficient_in_re(self, rng):
        for _ in range(10):
            fun = charge_functionals(_params(rng), rand_threefold(rng))
            assert fun.re_coeffs[5] == -1
            assert fun.im_coeffs[5] == 0

    def test_skyscraper_value(self, rng):
        fun = charge_functionals(_params(rng), rand_threefold(rng))
        assert fun.evaluate(SKYSCRAPER.as_tuple()) == (-1, 0)

    def test_evaluate_rejects_float(self, rng):
        fun = charge_functionals(_params(rng), rand_threefold(rng))
        with pytest.raises(TypeError, match="float"):
            fun.evaluate((0, 0, 0, 0, 0, 0.5))

    def test_agrees_with_central_charge_on_basis(self, rng):
        for _ in range(40):
            X = rand_threefold(rng)
            p = _params(rng)
            fun = charge_functionals(p, X)
            for v in BASIS:
                z = central_charge(v, p, X)
                assert fun.evaluate(v.as_tuple()) == (z.re, z.im)

    def test_agrees_on_random_chars(self, rng):
        for _ in range(100):
            X = rand_threefold(rng)
            p = _params(rng)
            fun = charge_functionals(p, X)
            ch = rand_lattice_char(rng)
            z = central_charge(ch, p, X)
            assert fun.evaluate(ch.as_tuple()) == (z.re, z.im)

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
            fun = charge_functionals(_params(rng), rand_threefold(rng))
            assert fun.im_coeffs[4] * fun.re_coeffs[5] - fun.re_coeffs[4] * fun.im_coeffs[5] == -1


class TestDiscBarForm:
    def test_three_nonzero_entries(self):
        q = disc_bar_form()
        nonzero = [(i, j) for i in range(6) for j in range(6) if q.matrix[i, j] != 0]
        assert sorted(nonzero) == [(0, 3), (1, 1), (3, 0)]

    def test_value_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            disc_bar_form().value((0.5, 0, 0, 0, 0, 0))

    def test_matches_disc_bar(self, rng):
        q = disc_bar_form()
        for _ in range(100):
            ch = rand_lattice_char(rng)
            assert q.value_char(ch) == disc_bar(ch)

    def test_known_values(self):
        X = RuledThreefold(0, 3)
        q = disc_bar_form()
        assert q.value_char(line_bundle_char(2, -1, X)) == 0
        assert q.value_char(CHAR_O + line_bundle_char(1, 0, X)) == -1


class TestBGQuadraticForm:
    def test_skyscraper_zero(self, rng):
        q = bg_quadratic_form(rand_point(rng), rand_threefold(rng))
        assert q.value_char(SKYSCRAPER) == 0

    def test_o_h_margin(self):
        X = RuledThreefold(0, 3)
        q = bg_quadratic_form(TiltPoint(1, 0), X)
        assert q.value_char(line_bundle_char(1, 0, X)) == Fraction(3, 12)

    def test_matches_weak_defect(self, rng):
        for _ in range(200):
            X = rand_threefold(rng)
            pt = rand_point(rng)
            ch = rand_lattice_char(rng)
            q = bg_quadratic_form(pt, X)
            assert q.value_char(ch) == bg_weak_defect(ch, pt, X)


def same_form(got: QForm6, want: QForm6) -> bool:
    return type(got) is QForm6 and all(
        same_rats(got.matrix.row(i), want.matrix.row(i)) for i in range(6)
    )


class TestAgainstHandExpandedFormulas:
    """Z's coefficients and both forms, read off the kernels, against the
    hand-expanded untwisted coefficients in `reference_formulas`."""

    @given(wide_charges, wide_threefolds)
    @example(ODD_CHARGE, RuledThreefold(2, -5))
    @example(ODD_CHARGE, RuledThreefold(0, 0))
    @example(ChargeParams(1, 0, 1, 1), RuledThreefold(3, -1))
    def test_charge_functionals(self, p, X):
        got, want = charge_functionals(p, X), ref.charge_functionals(p, X)
        assert type(got) is ChargeFunctionals
        assert same_rats(got.re_coeffs, want.re_coeffs)
        assert same_rats(got.im_coeffs, want.im_coeffs)

    @given(wide_tilt_points, wide_threefolds)
    @example(ODD_POINT, RuledThreefold(2, -5))
    @example(TiltPoint(1, 0), RuledThreefold(0, 0))
    @example(TiltPoint(Fraction(1, 3), Fraction(5, 2)), RuledThreefold(5, -20))
    def test_bg_quadratic_form(self, pt, X):
        assert same_form(bg_quadratic_form(pt, X), ref.bg_quadratic_form(pt, X))

    def test_disc_bar_form(self):
        assert same_form(disc_bar_form(), ref.disc_bar_form())


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
            fun = charge_functionals(p, X)
            assert fun.evaluate(v.as_tuple()) == (0, 0)
            assert disc_bar_form().value_char(v) == 0
            assert bg_quadratic_form(TiltPoint(p.alpha2, p.beta), X).value_char(v) == 0
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
        fun = charge_functionals(p, X)
        # -I is negative on every nonzero v
        monkeypatch.setattr(support, "family_forms", lambda p, X: (disc_bar_form(), MINUS_IDENTITY))
        with pytest.raises(ArithmeticError, match="certificate"):
            null_kernel_vector(p, X)
        monkeypatch.undo()
        # v is not in the kernel of a charge with Re Z = e
        e_only = ChargeFunctionals((0, 0, 0, 0, 0, 1), fun.im_coeffs)
        monkeypatch.setattr(support, "charge_functionals", lambda p, X: e_only)
        with pytest.raises(ArithmeticError, match="certificate"):
            null_kernel_vector(p, X)

    def test_failed_certificate_raises_through_verify_support(self, monkeypatch):
        monkeypatch.setattr(support, "family_forms", lambda p, X: (disc_bar_form(), MINUS_IDENTITY))
        with pytest.raises(ArithmeticError, match="certificate"):
            verify_support(ChargeParams(1, 0, 1, 1), RuledThreefold(0, 3), [0], [1])

    def test_validates_grids(self):
        X = RuledThreefold(0, 3)
        p = ChargeParams(1, 0, 1, 1)
        with pytest.raises(ValueError):
            verify_support(p, X, [-1], [1])
        with pytest.raises(ValueError):
            verify_support(p, X, [0], [0])

    def test_rejects_float_candidates(self):
        X = RuledThreefold(0, 3)
        p = ChargeParams(1, 0, 1, 1)
        with pytest.raises(TypeError, match="float"):
            verify_support(p, X, [0.1], [Fraction(1, 2)])
        with pytest.raises(TypeError, match="float"):
            verify_support(p, X, [Fraction(1, 10)], [0.5])
